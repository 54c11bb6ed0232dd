/**
 * @file
 * Golden output digests: FNV-1a over the serialized output of
 * rewriteBinary for a fixed matrix (3 ISAs x 3 modes x two programs
 * x option variants), of the two regenerating baselines (IR lowering
 * and BOLT-like) on 3 ISAs, and of a crafted input whose pointer
 * cell carries two relocations. Unlike the identity sweeps, which
 * compare two code paths of the same build, this pins the bytes
 * against a recorded earlier output, so a refactor that changes
 * every path the same way is still caught. An output that the SBF validator rejects
 * records the rule instead of a digest.
 *
 *   rewrite_digests --check FILE   recompute; exit 1 on any mismatch
 *   rewrite_digests --write FILE   record the current digests
 *
 * `tools/ci.sh regen-rewrite-digests` rewrites
 * tests/data/rewrite_digests.txt; run it only after an intentional
 * output change, and commit the result.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/cache.hh"
#include "baselines/boltlike.hh"
#include "baselines/irlower.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "crafted_sbf.hh"

using namespace icp;

namespace
{

struct Variant
{
    const char *name;
    std::function<void(RewriteOptions &)> apply;
    bool sharded = false;
};

const std::vector<Variant> &
variants()
{
    static const std::vector<Variant> list = {
        {"base", [](RewriteOptions &) {}},
        {"threads4", [](RewriteOptions &o) { o.threads = 4; }},
        {"clobber", [](RewriteOptions &o) { o.clobberOriginal = true; }},
        {"call-emulation",
         [](RewriteOptions &o) { o.raTranslation = false; }},
        {"counters",
         [](RewriteOptions &o) {
             o.instrumentation.countBlocks = true;
             o.instrumentation.countFunctionEntries = true;
         }},
        {"counters-threads4",
         [](RewriteOptions &o) {
             o.instrumentation.countBlocks = true;
             o.threads = 4;
         }},
        {"reversed-functions",
         [](RewriteOptions &o) {
             o.functionOrder = OrderPolicy::reversed;
             o.instrumentation.countBlocks = true;
         }},
        {"reversed-blocks",
         [](RewriteOptions &o) {
             o.blockOrder = OrderPolicy::reversed;
             o.instrumentation.countBlocks = true;
         }},
        {"shards2", [](RewriteOptions &o) { o.shards = 2; }, true},
    };
    return list;
}

/** The digest of serialized output @p bytes, or the rule the SBF
 *  validator rejects them with. */
std::string
digestOfBytes(const std::vector<std::uint8_t> &bytes)
{
    // Validation rejects nothing the rewriter writes.
    std::vector<SbfIssue> issues;
    if (!BinaryImage::tryDeserialize(bytes, issues))
        return "rejected:" + issues.front().rule;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  fnv1a(bytes.data(), bytes.size()));
    return hex;
}

std::string
digestOf(const BinaryImage &img, const RewriteOptions &opts,
         bool sharded)
{
    AnalysisCache::global().clear();
    std::vector<std::uint8_t> bytes;
    bool ok = false;
    if (sharded) {
        VectorSink sink(bytes);
        ok = rewriteBinarySharded(img, opts, sink).ok;
    } else {
        const RewriteResult rw = rewriteBinary(img, opts);
        ok = rw.ok;
        if (ok)
            bytes = rw.image.serialize();
    }
    return ok ? digestOfBytes(bytes) : "failed";
}

std::string
irLowerDigest(const BinaryImage &img, bool count_blocks)
{
    AnalysisCache::global().clear();
    InstrumentationSpec spec;
    spec.countBlocks = count_blocks;
    const RewriteResult rw = irLowerRewrite(img, spec);
    return rw.ok ? digestOfBytes(rw.image.serialize()) : "failed";
}

std::string
boltDigest(const BinaryImage &img, BoltOperation op)
{
    AnalysisCache::global().clear();
    const BoltOutcome out = boltRewrite(img, op);
    return out.ok ? digestOfBytes(out.image.serialize()) : "failed";
}

/** "arch mode program variant" -> digest, in matrix order. */
std::vector<std::pair<std::string, std::string>>
computeMatrix()
{
    std::vector<std::pair<std::string, std::string>> rows;
    for (Arch arch : {Arch::x64, Arch::aarch64, Arch::ppc64le}) {
        const std::pair<const char *, BinaryImage> programs[] = {
            {"micro-pie", compileProgram(microProfile(arch, true))},
            {"chromium-small",
             compileProgram(chromiumSmallProfile(arch, false))},
        };
        for (RewriteMode mode : {RewriteMode::dir, RewriteMode::jt,
                                 RewriteMode::funcPtr}) {
            for (const auto &[prog, img] : programs) {
                for (const Variant &v : variants()) {
                    RewriteOptions opts;
                    opts.mode = mode;
                    opts.threads = 1;
                    v.apply(opts);
                    const std::string key =
                        std::string(archName(arch)) + " " +
                        rewriteModeName(mode) + " " + prog + " " +
                        v.name;
                    rows.emplace_back(key,
                                      digestOf(img, opts, v.sharded));
                }
            }
        }
    }

    // The regenerating baselines retarget every pointer definition
    // of the regenerated code: PIE relocation cells, non-PIE data
    // cells and code definitions. The duplicate-site input pins that
    // every relocation at a retargeted cell takes the new addend.
    // IR lowering refuses C++ exceptions: the baseline inputs drop
    // them.
    const auto plain = [](ProgramSpec spec) {
        spec.features.cppExceptions = false;
        return spec;
    };
    for (Arch arch : {Arch::x64, Arch::aarch64, Arch::ppc64le}) {
        const std::string isa = archName(arch);
        const BinaryImage micro =
            compileProgram(plain(microProfile(arch, true)));
        const BinaryImage micro_static =
            compileProgram(plain(microProfile(arch, false)));
        ProgramSpec linked = plain(microProfile(arch, true));
        linked.emitLinkRelocs = true;
        const BinaryImage micro_linked = compileProgram(linked);
        BinaryImage dup = micro;
        duplicateFuncPtrReloc(dup);

        rows.emplace_back(isa + " irlower micro-plain-pie base",
                          irLowerDigest(micro, false));
        rows.emplace_back(isa + " irlower micro-plain-pie counters",
                          irLowerDigest(micro, true));
        rows.emplace_back(isa + " irlower micro-plain-pie-dup-reloc base",
                          irLowerDigest(dup, false));
        rows.emplace_back(
            isa + " bolt micro-plain-pie-link-relocs reorder-functions",
            boltDigest(micro_linked, BoltOperation::reorderFunctions));
        rows.emplace_back(
            isa + " bolt micro-plain-pie reorder-blocks",
            boltDigest(micro, BoltOperation::reorderBlocks));
        rows.emplace_back(
            isa + " bolt micro-plain reorder-blocks",
            boltDigest(micro_static, BoltOperation::reorderBlocks));
        rows.emplace_back(
            isa + " bolt micro-plain-pie-dup-reloc reorder-blocks",
            boltDigest(dup, BoltOperation::reorderBlocks));

        RewriteOptions opts;
        opts.mode = RewriteMode::funcPtr;
        opts.threads = 1;
        rows.emplace_back(isa + " func-ptr micro-plain-pie-dup-reloc base",
                          digestOf(dup, opts, false));
    }
    return rows;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: rewrite_digests --check FILE | --write FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    const std::string cmd = argv[1];
    const std::string path = argv[2];
    if (cmd != "--check" && cmd != "--write")
        return usage();

    const auto rows = computeMatrix();
    if (cmd == "--write") {
        std::ofstream out(path);
        for (const auto &[key, digest] : rows)
            out << key << " " << digest << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %zu digests to %s\n", rows.size(),
                    path.c_str());
        return 0;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    std::map<std::string, std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t sp = line.rfind(' ');
        if (sp != std::string::npos)
            golden[line.substr(0, sp)] = line.substr(sp + 1);
    }
    unsigned bad = 0;
    for (const auto &[key, digest] : rows) {
        auto it = golden.find(key);
        if (it == golden.end() || it->second != digest) {
            std::printf("MISMATCH %s: got %s, golden %s\n", key.c_str(),
                        digest.c_str(),
                        it == golden.end() ? "(missing)"
                                           : it->second.c_str());
            ++bad;
        }
    }
    if (golden.size() != rows.size()) {
        std::printf("golden file has %zu rows, matrix has %zu\n",
                    golden.size(), rows.size());
        ++bad;
    }
    std::printf("%zu digests checked, %u mismatches\n", rows.size(),
                bad);
    return bad == 0 ? 0 : 1;
}
