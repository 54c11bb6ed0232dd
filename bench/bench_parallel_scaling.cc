/**
 * @file
 * Scaling benchmark of the parallel per-function pipeline: full
 * rewrites of the two largest workloads at 1/2/4/8 threads, each
 * under five cache regimes — cold (no prior state), warm-memory
 * (in-process AnalysisCache primed), cold-disk (--cache-file set but
 * the file does not exist yet: pays the save), warm-disk (fresh
 * process, populated cache file: pays load + save, reuses analysis),
 * and warm-disk-delta (fresh process, file primed from a
 * one-instruction-edited binary: one analysis miss, one-entry delta
 * append — the paper's incremental steady state) — reporting wall
 * time, the cache file size, and the per-stage timer breakdown,
 * including the cache.load/cache.save stages. A warm_datadeps
 * section compares the three RewriteSession::loadInput edit classes
 * (unread-data edit: splice everything; code edit: re-emit one
 * function; relocation-site edit: conservative full reset). A serve
 * section drives an in-process `icp serve` daemon through a
 * one-function-edit rewrite loop and compares its per-request
 * latency against forking the real `icp rewrite --cache-file` binary
 * per edit — the process startup + cache load the daemon exists to
 * amortize. A cross_binary section rewrites a libcommon corpus
 * (binaries sharing a byte-identical static-lib core at shifted
 * link addresses) through one shared cache file and reports the
 * content-addressed cross-binary hit rate and median wall vs each
 * binary's cold baseline. `--json <path>` writes the
 * results (BENCH_parallel.json
 * in the repository is a committed baseline); `--cache-file <path>`
 * relocates the disk regimes' cache file from its /tmp default;
 * `--icp <path>` names the CLI binary for the serve section's
 * one-shot baseline (default tools/icp, resolved from the working
 * directory — i.e. run from the build tree).
 *
 * Speedups are whatever the host delivers: on a single-core
 * container the thread counts verify determinism and overhead
 * rather than demonstrating parallel speedup.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/cache.hh"
#include "analysis/datadeps.hh"
#include "bench_main.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "rewrite/session.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace icp;

namespace
{

constexpr unsigned reps = 3;

/** The disk-regime cache file; overridable with --cache-file. */
std::string cache_file = "/tmp/icp_bench_parallel.icpc";

/** The CLI binary the serve section's one-shot baseline forks;
 *  overridable with --icp. The default resolves from the build tree
 *  (the bench's usual working directory). */
std::string icp_binary = "tools/icp";

/** The registry timer the tables below read by name. */
const Timer relocation = Metrics::global().timer("relocation");

double
rewriteWallMs(const BinaryImage &img, unsigned threads,
              const std::string &cache_path = "")
{
    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.instrumentation.countFunctionEntries = true;
    opts.threads = threads;
    opts.cachePath = cache_path;
    const auto t0 = std::chrono::steady_clock::now();
    const RewriteResult rw = rewriteBinary(img, opts);
    const auto t1 = std::chrono::steady_clock::now();
    if (!rw.ok) {
        std::fprintf(stderr, "rewrite failed: %s\n",
                     rw.failReason.c_str());
        std::exit(1);
    }
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

enum class CacheMode
{
    cold,       ///< no prior state at all
    warmMemory, ///< in-process AnalysisCache primed
    coldDisk,   ///< --cache-file set, file absent (pays the save)
    warmDisk,   ///< fresh process + populated file (load + reuse)
    /** Fresh process + file primed from a one-instruction-edited
     *  binary: one analysis miss, one-entry delta append — the
     *  incremental-patching steady state. */
    warmDiskDelta,
};

const char *
cacheModeName(CacheMode mode)
{
    switch (mode) {
      case CacheMode::cold: return "cold";
      case CacheMode::warmMemory: return "warm-memory";
      case CacheMode::coldDisk: return "cold-disk";
      case CacheMode::warmDisk: return "warm-disk";
      case CacheMode::warmDiskDelta: return "warm-disk-delta";
    }
    return "?";
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

/**
 * Flip the low bit of one AddImm immediate, in place (same encoded
 * length), so exactly one function's cache key changes. Mirrors the
 * dirty-function probe in test_session.cc.
 */
bool
mutateOneImmediate(BinaryImage &img)
{
    const Codec &codec = *img.archInfo().codec;
    for (const Symbol *sym : img.functionSymbols()) {
        std::vector<std::uint8_t> body;
        if (!img.readBytes(sym->addr, sym->size, body))
            continue;
        Addr addr = sym->addr;
        std::size_t off = 0;
        while (off < body.size()) {
            Instruction in;
            if (!codec.decode(body.data() + off, body.size() - off,
                              addr, in) ||
                in.length == 0)
                break;
            if (in.op == Opcode::AddImm && in.imm > 1) {
                Instruction edit = in;
                edit.imm = in.imm ^ 1;
                std::vector<std::uint8_t> enc;
                if (codec.encode(edit, addr, enc) &&
                    enc.size() == in.length)
                    return img.writeBytes(addr, enc);
            }
            off += in.length;
            addr += in.length;
        }
    }
    return false;
}

struct Run
{
    unsigned threads = 0;
    CacheMode mode = CacheMode::cold;
    double wallMs = 0.0;
    std::string stages; ///< Metrics JSON of the best rep
    std::uint64_t cacheFileBytes = 0; ///< file size after the run
};

/**
 * Best-of-reps wall time. The disk modes clear the in-memory cache
 * before every rep (each rep models a fresh process); warm-memory
 * primes once and keeps it; cold clears everything every rep.
 */
Run
measure(const BinaryImage &img, unsigned threads, CacheMode mode)
{
    Run run;
    run.threads = threads;
    run.mode = mode;
    if (mode == CacheMode::warmMemory) {
        AnalysisCache::global().clear();
        rewriteWallMs(img, threads);
    }
    if (mode == CacheMode::warmDisk) {
        AnalysisCache::global().clear();
        std::remove(cache_file.c_str());
        rewriteWallMs(img, threads, cache_file); // populate the file
    }
    BinaryImage edited;
    if (mode == CacheMode::warmDiskDelta) {
        edited = img;
        if (!mutateOneImmediate(edited)) {
            std::fprintf(stderr,
                         "no in-place-mutable immediate found\n");
            std::exit(1);
        }
    }
    const bool disk = mode == CacheMode::coldDisk ||
                      mode == CacheMode::warmDisk ||
                      mode == CacheMode::warmDiskDelta;
    for (unsigned r = 0; r < reps; ++r) {
        if (mode == CacheMode::warmDiskDelta) {
            // Re-prime from the edited binary every rep so the timed
            // run always sees exactly one stale entry (its own delta
            // append would otherwise warm the file fully).
            AnalysisCache::global().clear();
            std::remove(cache_file.c_str());
            rewriteWallMs(edited, threads, cache_file);
        }
        if (mode != CacheMode::warmMemory)
            AnalysisCache::global().clear();
        if (mode == CacheMode::coldDisk)
            std::remove(cache_file.c_str());
        Metrics::global().reset();
        const double ms =
            rewriteWallMs(img, threads, disk ? cache_file : "");
        if (r == 0 || ms < run.wallMs) {
            run.wallMs = ms;
            run.stages = Metrics::global().json();
            run.cacheFileBytes = disk ? fileBytes(cache_file) : 0;
        }
    }
    return run;
}

std::string
shardCountersJson(const std::vector<ShardCounters> &shards)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardCounters &sc = shards[i];
        out << (i ? ", " : "") << "{\"lo\": " << sc.lo
            << ", \"hi\": " << sc.hi
            << ", \"functions\": " << sc.functions
            << ", \"instrumented\": " << sc.instrumented
            << ", \"blocks\": " << sc.blocks
            << ", \"insns\": " << sc.insns << "}";
    }
    out << "]";
    return out.str();
}

/**
 * One measured run of the chromium corpus: classic materializing
 * (shards == 0) or sharded streaming, each in a forked child so
 * wait4's ru_maxrss gives the run's true peak RSS without the
 * bench's own footprint.
 */
struct ChromiumRun
{
    unsigned shards = 0;
    double wallMs = 0.0;
    std::uint64_t peakRssBytes = 0;  ///< child ru_maxrss
    std::uint64_t outputBytes = 0;   ///< rewritten .sbf size
    std::string stages;              ///< Metrics JSON
    std::string shardCounters = "[]";
};

/**
 * Child body for one chromium run. Loads the corpus from @p sbf_path
 * (the parent never materializes it: inherited RSS stays tiny),
 * rewrites in jt mode, and writes wall/output/stages/counters as
 * `key=value` lines to @p report_path. Returns the exit status.
 */
int
chromiumChildBody(const std::string &sbf_path,
                  const std::string &report_path,
                  const std::string &out_path, unsigned shards)
{
    std::ifstream in(sbf_path, std::ios::binary);
    std::vector<std::uint8_t> raw(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::vector<SbfIssue> issues;
    const auto img = BinaryImage::tryDeserialize(raw, issues);
    if (!img)
        return 2;
    raw.clear();
    raw.shrink_to_fit();

    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.threads = 1;
    opts.shards = shards;
    opts.lint = false;

    Metrics::global().reset();
    const auto t0 = std::chrono::steady_clock::now();
    RewriteResult rw;
    if (shards == 0) {
        rw = rewriteBinary(*img, opts);
        if (rw.ok) {
            const auto bytes = rw.image.serialize();
            std::ofstream out(out_path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
        }
    } else {
        std::FILE *f = std::fopen(out_path.c_str(), "wb");
        if (!f)
            return 2;
        FileSink sink(f);
        rw = rewriteBinarySharded(*img, opts, sink);
        std::fclose(f);
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!rw.ok) {
        std::fprintf(stderr, "chromium rewrite failed: %s\n",
                     rw.failReason.c_str());
        return 2;
    }

    std::ofstream report(report_path, std::ios::trunc);
    report << "wall_ms="
           << std::chrono::duration<double, std::milli>(t1 - t0)
                  .count()
           << "\noutput_bytes=" << fileBytes(out_path)
           << "\nstages=" << Metrics::global().json()
           << "\nshard_counters="
           << shardCountersJson(rw.stats.shards) << "\n";
    return report ? 0 : 2;
}

/**
 * The chromium-corpus memory-ceiling regime: one child per shard
 * count, shards=0 being the classic materializing baseline the
 * streaming path's RSS is judged against.
 */
void
chromiumShardedSection(icp::bench::JsonSections &sections)
{
    const std::string dir = "/tmp/icp_bench_chromium." +
                            std::to_string(getpid());
    const std::string sbf_path = dir + ".sbf";
    const std::string out_path = dir + ".out.sbf";
    const std::string report_path = dir + ".report";

    // Compile in a throwaway child so the bench process never holds
    // the corpus (forked measurement children would inherit it).
    {
        const pid_t pid = fork();
        if (pid == 0) {
            const BinaryImage img =
                compileProgram(chromiumProfile());
            const auto bytes = img.serialize();
            std::ofstream out(sbf_path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
            _exit(out ? 0 : 2);
        }
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "chromium compile failed\n");
            std::exit(1);
        }
    }

    std::vector<ChromiumRun> runs;
    for (unsigned shards : {0u, 1u, 2u, 4u}) {
        const pid_t pid = fork();
        if (pid == 0)
            _exit(chromiumChildBody(sbf_path, report_path, out_path,
                                    shards));
        int status = 0;
        struct rusage ru = {};
        wait4(pid, &status, 0, &ru);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "chromium run failed (shards=%u)\n",
                         shards);
            std::exit(1);
        }
        ChromiumRun run;
        run.shards = shards;
        run.peakRssBytes =
            static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
        std::ifstream report(report_path);
        std::string line;
        while (std::getline(report, line)) {
            const auto eq = line.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = line.substr(0, eq);
            const std::string val = line.substr(eq + 1);
            if (key == "wall_ms")
                run.wallMs = std::stod(val);
            else if (key == "output_bytes")
                run.outputBytes = std::stoull(val);
            else if (key == "stages")
                run.stages = val;
            else if (key == "shard_counters")
                run.shardCounters = val;
        }
        runs.push_back(std::move(run));
    }
    std::remove(sbf_path.c_str());
    std::remove(out_path.c_str());
    std::remove(report_path.c_str());

    const double base_rss =
        static_cast<double>(runs.front().peakRssBytes);
    TextTable table({"Shards", "Wall ms", "Peak RSS MiB",
                     "RSS vs classic", "Output MiB"});
    std::ostringstream json;
    json << "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ChromiumRun &r = runs[i];
        char rss[32], ratio[32], out_mib[32];
        std::snprintf(rss, sizeof(rss), "%.1f",
                      static_cast<double>(r.peakRssBytes) /
                          (1024.0 * 1024.0));
        std::snprintf(ratio, sizeof(ratio), "%.2fx",
                      static_cast<double>(r.peakRssBytes) /
                          base_rss);
        std::snprintf(out_mib, sizeof(out_mib), "%.1f",
                      static_cast<double>(r.outputBytes) /
                          (1024.0 * 1024.0));
        table.addRow({r.shards ? std::to_string(r.shards)
                               : "0 (classic)",
                      std::to_string(r.wallMs), rss,
                      r.shards ? ratio : "-", out_mib});
        json << (i ? ",\n" : "\n")
             << "    {\"shards\": " << r.shards
             << ", \"wall_ms\": " << r.wallMs
             << ", \"peak_rss_bytes\": " << r.peakRssBytes
             << ", \"output_bytes\": " << r.outputBytes
             << ", \"shard_counters\": " << r.shardCounters
             << ", \"stages\": " << r.stages << "}";
    }
    json << "\n  ]";
    std::printf("chromium corpus, jt mode (forked runs, RSS via "
                "wait4)\n%s\n",
                table.render().c_str());
    sections.add("chromium_sharded", json.str());
}

/**
 * The warm-session regime: a full rewrite, then a one-instruction
 * edit re-rewritten through RewriteSession::loadInput. The one-shot
 * warm-memory relocation cost is irreducible (every function's
 * bytes must re-emit); session reuse is the path that shrinks it —
 * only the dirty function re-emits, the rest splice.
 */
void
warmSessionSection(icp::bench::JsonSections &sections)
{
    AnalysisCache::global().clear();
    BinaryImage img = compileProgram(libxulProfile());
    BinaryImage edited = img;
    if (!mutateOneImmediate(edited)) {
        std::fprintf(stderr, "no in-place-mutable immediate found\n");
        std::exit(1);
    }

    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.instrumentation.countFunctionEntries = true;
    opts.threads = 1;
    // lint stays on: the recorded manifest is what the selective
    // re-rewrite splices previous bytes from.

    RewriteSession session(std::move(img));

    Metrics::global().reset();
    auto t0 = std::chrono::steady_clock::now();
    const RewriteResult &full = session.rewrite(opts);
    auto t1 = std::chrono::steady_clock::now();
    if (!full.ok) {
        std::fprintf(stderr, "session rewrite failed: %s\n",
                     full.failReason.c_str());
        std::exit(1);
    }
    const double full_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double full_reloc_ms =
        static_cast<double>(relocation.value()) / 1e6;
    const std::string full_stages = Metrics::global().json();
    const unsigned full_emitted = full.stats.relocEmittedFunctions;

    Metrics::global().reset();
    t0 = std::chrono::steady_clock::now();
    const RewriteSession::LoadOutcome outcome =
        session.loadInput(std::move(edited));
    t1 = std::chrono::steady_clock::now();
    const double delta_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double delta_reloc_ms =
        static_cast<double>(relocation.value()) / 1e6;
    const std::string delta_stages = Metrics::global().json();
    if (!outcome.incremental || !session.lastResult().ok) {
        std::fprintf(stderr, "session delta was not incremental\n");
        std::exit(1);
    }
    const RewriteResult &delta = session.lastResult();

    TextTable table({"Pass", "Wall ms", "Relocation ms", "Emitted",
                     "Spliced"});
    table.addRow({"full", std::to_string(full_ms),
                  std::to_string(full_reloc_ms),
                  std::to_string(full_emitted), "0"});
    table.addRow({"1-insn delta", std::to_string(delta_ms),
                  std::to_string(delta_reloc_ms),
                  std::to_string(delta.stats.relocEmittedFunctions),
                  std::to_string(delta.stats.relocReusedFunctions)});
    std::printf("libxul warm session (RewriteSession::loadInput, "
                "one AddImm edit)\n%s\n",
                table.render().c_str());

    std::ostringstream json;
    json << "{\n    \"full\": {\"wall_ms\": " << full_ms
         << ", \"relocation_ms\": " << full_reloc_ms
         << ", \"emitted_functions\": " << full_emitted
         << ", \"stages\": " << full_stages << "},\n"
         << "    \"delta\": {\"wall_ms\": " << delta_ms
         << ", \"relocation_ms\": " << delta_reloc_ms
         << ", \"dirty_functions\": "
         << outcome.dirtyFunctions.size()
         << ", \"emitted_functions\": "
         << delta.stats.relocEmittedFunctions
         << ", \"spliced_functions\": "
         << delta.stats.relocReusedFunctions
         << ", \"stages\": " << delta_stages << "}\n  }";
    sections.add("warm_session", json.str());
}

/**
 * Pick a data byte nothing depends on: outside every recorded
 * read-set, donated scratch range, runtime-relocation slot, and
 * rewritten pointer cell. Scans .rodata backwards (the rodataPadding
 * tail lives there). Returns 0 when none exists.
 */
Addr
findUnreadDataByte(RewriteSession &session)
{
    const CfgModule &cfg = session.analyze();
    const RewriteManifest &manifest = session.lastResult().manifest;
    auto claimed = [&](Addr a) {
        for (const FunctionSlot &slot : cfg.functions)
            if (slot.fn->dataDeps.overlaps(a, a + 1))
                return true;
        for (const auto &[addr, len] : manifest.scratchRanges)
            if (a >= addr && a < addr + len)
                return true;
        for (const Relocation &rel : session.input().relocs)
            if (a >= rel.site && a < rel.site + 8)
                return true;
        for (const FuncPtrPatch &p : manifest.funcPtrs)
            if (p.kind == FuncPtrPatch::Kind::dataCell &&
                a >= p.site && a < p.site + 8)
                return true;
        return false;
    };

    for (const Section &sec : session.input().sections) {
        if (sec.executable || sec.bytes.empty() ||
            sec.name != ".rodata")
            continue;
        for (std::size_t i = sec.bytes.size(); i-- > 0;) {
            const Addr a = sec.addr + static_cast<Addr>(i);
            if (!claimed(a))
                return a;
        }
    }
    return 0;
}

bool
flipImageByte(BinaryImage &img, Addr victim)
{
    for (Section &sec : img.sections) {
        if (!sec.contains(victim) || sec.bytes.empty())
            continue;
        const std::size_t off =
            static_cast<std::size_t>(victim - sec.addr);
        if (off >= sec.bytes.size())
            return false;
        sec.bytes[off] ^= 0x5a;
        return true;
    }
    return false;
}

/**
 * The data-dependency regime: the same libxul corpus pushed through
 * RewriteSession::loadInput under the three edit classes the
 * read-set slicing distinguishes — an unread-data edit (overlap
 * query finds no reader: every function splices, nothing
 * re-analyzes), a one-instruction code edit (one dirty function
 * re-emits), and a relocation-site edit (conservative full reset,
 * the pre-slicing worst case the first two are measured against).
 */
void
warmDatadepsSection(icp::bench::JsonSections &sections)
{
    ProgramSpec spec = libxulProfile();
    // A blob no analysis reads — the string-table shape of the
    // paper's data-edit workload.
    spec.rodataPadding = 4096;

    struct Regime
    {
        const char *name;
        bool expectIncremental;
    };
    const std::vector<Regime> regimes = {
        {"data-only", true},
        {"code-edit", true},
        {"reset", false},
    };

    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.instrumentation.countFunctionEntries = true;
    opts.threads = 1;
    // lint stays on: the splice path reuses the recorded manifest.

    TextTable table({"Edit", "Wall ms", "Incremental", "Dirty",
                     "Emitted", "Spliced"});
    std::ostringstream json;
    json << "[";
    for (std::size_t i = 0; i < regimes.size(); ++i) {
        const Regime &regime = regimes[i];
        // Fresh session per regime so every delta is measured
        // against the identical full-rewrite baseline.
        AnalysisCache::global().clear();
        RewriteSession session(compileProgram(spec));
        if (!session.rewrite(opts).ok) {
            std::fprintf(stderr, "session rewrite failed\n");
            std::exit(1);
        }

        BinaryImage edited = compileProgram(spec);
        bool prepared = false;
        if (std::string(regime.name) == "data-only") {
            const Addr victim = findUnreadDataByte(session);
            prepared = victim != 0 && flipImageByte(edited, victim);
        } else if (std::string(regime.name) == "code-edit") {
            prepared = mutateOneImmediate(edited);
        } else {
            // Overwrite a runtime-relocation slot: loadInput cannot
            // attribute the diff to any function and must reset.
            for (const Relocation &rel : edited.relocs)
                if ((prepared = flipImageByte(edited, rel.site)))
                    break;
        }
        if (!prepared) {
            std::fprintf(stderr, "no %s edit site found\n",
                         regime.name);
            std::exit(1);
        }

        Metrics::global().reset();
        const auto t0 = std::chrono::steady_clock::now();
        const RewriteSession::LoadOutcome outcome =
            session.loadInput(std::move(edited));
        // A reset clears the previous result; the full re-rewrite it
        // forces is the cost of this edit class, so time it too.
        if (!outcome.incremental)
            session.rewrite(opts);
        const auto t1 = std::chrono::steady_clock::now();
        if (!session.lastResult().ok ||
            outcome.incremental != regime.expectIncremental) {
            std::fprintf(stderr, "%s edit: unexpected outcome\n",
                         regime.name);
            std::exit(1);
        }
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        const RewriteResult &res = session.lastResult();
        table.addRow(
            {regime.name, std::to_string(ms),
             outcome.incremental ? "yes" : "no (reset)",
             std::to_string(outcome.dirtyFunctions.size()),
             std::to_string(res.stats.relocEmittedFunctions),
             std::to_string(res.stats.relocReusedFunctions)});
        json << (i ? ",\n" : "\n")
             << "    {\"edit\": \"" << regime.name
             << "\", \"wall_ms\": " << ms << ", \"incremental\": "
             << (outcome.incremental ? "true" : "false")
             << ", \"dirty_functions\": "
             << outcome.dirtyFunctions.size()
             << ", \"emitted_functions\": "
             << res.stats.relocEmittedFunctions
             << ", \"spliced_functions\": "
             << res.stats.relocReusedFunctions
             << ", \"stages\": " << Metrics::global().json()
             << "}";
    }
    json << "\n  ]";
    std::printf("libxul data-dependency deltas "
                "(RewriteSession::loadInput by edit class)\n%s\n",
                table.render().c_str());
    sections.add("warm_datadeps", json.str());
}

std::vector<std::uint8_t>
readBlob(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

bool
writeBlob(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

/**
 * One timed `icp rewrite --cache-file` subprocess — fork + execl +
 * waitpid, stdout to /dev/null. This is the cost the daemon
 * amortizes: process startup, binary load, cache-file load, a full
 * (non-splicing) emit, and the delta save. --lint matches the
 * daemon's options (a serve rewrite always carries the lint
 * manifest, which is what its `lint` verb answers from for free —
 * the one-shot equivalent of the CI rewrite→lint loop pays it per
 * process).
 */
double
oneShotRewriteMs(const std::string &in, const std::string &out,
                 const std::string &cache)
{
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            dup2(devnull, 1);
        execl(icp_binary.c_str(), icp_binary.c_str(), "rewrite",
              in.c_str(), out.c_str(), "--cache-file", cache.c_str(),
              "--mode", "jt", "--threads", "1", "--lint",
              static_cast<char *>(nullptr));
        _exit(127);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    const auto t1 = std::chrono::steady_clock::now();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "one-shot icp rewrite failed (%s)\n",
                     icp_binary.c_str());
        std::exit(1);
    }
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

/**
 * The hot-session regime: an in-process `icp serve` daemon answers a
 * loop of one-immediate-edit rewrites (every iteration rewrites the
 * input file on disk, so each request takes the full stamp-check +
 * loadInput + selective-re-emit path), measured against forking the
 * real one-shot CLI with a primed --cache-file per edit. The serve
 * p50 should win by the process startup + cache load + full-emit
 * margin — the daemon's entire reason to exist.
 */
void
serveSection(icp::bench::JsonSections &sections)
{
    constexpr unsigned serve_reps = 20;

    struct ServeWorkload
    {
        const char *name;
        ProgramSpec spec;
    };
    std::vector<ServeWorkload> workloads;
    workloads.push_back({"libxul", libxulProfile()});
    workloads.push_back(
        {"chromium_small", chromiumSmallProfile(Arch::x64, true)});

    const bool have_icp = access(icp_binary.c_str(), X_OK) == 0;
    if (!have_icp)
        std::fprintf(stderr,
                     "serve bench: '%s' not executable; one-shot "
                     "subprocess baseline skipped (pass --icp)\n",
                     icp_binary.c_str());

    TextTable table({"Workload", "Serve p50 ms", "Serve p99 ms",
                     "Req/s", "One-shot p50 ms", "Speedup"});
    std::ostringstream json;
    json << "[";
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        ServeWorkload &w = workloads[wi];
        const std::string base = "/tmp/icp_bench_serve." +
                                 std::to_string(getpid()) + "." +
                                 w.name;
        const std::string in_path = base + ".sbf";
        const std::string out_path = base + ".out.sbf";
        const std::string one_in = base + ".oneshot.sbf";
        const std::string one_out = base + ".oneshot.out.sbf";
        const std::string one_cache = base + ".icpc";
        const std::string sock = base + ".sock";

        AnalysisCache::global().clear();
        BinaryImage img = compileProgram(w.spec);
        BinaryImage edited = img;
        if (!mutateOneImmediate(edited)) {
            std::fprintf(stderr,
                         "no in-place-mutable immediate found\n");
            std::exit(1);
        }
        const auto blob_a = img.serialize();
        const auto blob_b = edited.serialize();

        ServeOptions so;
        so.socketPath = sock;
        so.threads = 1;
        ServeServer server(so);
        std::string err;
        if (!server.start(err)) {
            std::fprintf(stderr, "serve bench: start failed: %s\n",
                         err.c_str());
            std::exit(1);
        }
        std::thread daemon([&server] { server.run(); });

        // A hot-loop client holds its connection open (the daemon's
        // frame loop serves any number of requests per connection),
        // so connect + accept + dispatch are paid once, not per
        // request — that is the steady state being measured here.
        sockaddr_un sa = {};
        sa.sun_family = AF_UNIX;
        std::snprintf(sa.sun_path, sizeof(sa.sun_path), "%s",
                      sock.c_str());
        const int cfd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (cfd < 0 ||
            connect(cfd, reinterpret_cast<sockaddr *>(&sa),
                    sizeof(sa)) != 0) {
            std::fprintf(stderr, "serve bench: connect failed\n");
            std::exit(1);
        }

        auto serveRewrite = [&](ServeMessage &reply) {
            ServeMessage req;
            req.verb = "rewrite";
            req.set("path", in_path);
            req.set("out", out_path);
            req.set("mode", "jt");
            req.set("threads", std::uint64_t{1});
            std::string call_err;
            if (!writeServeFrame(cfd, req, 30000) ||
                readServeFrame(cfd, reply, 30000, call_err) !=
                    FrameStatus::ok ||
                reply.verb != "ok") {
                std::fprintf(stderr,
                             "serve bench: rewrite failed: %s %s\n",
                             call_err.c_str(),
                             reply.get("error").c_str());
                std::exit(1);
            }
        };

        // Cold open, untimed: the daemon's first load of this path.
        writeBlob(in_path, blob_a);
        ServeMessage reply;
        serveRewrite(reply);

        // One-shot cold prime, untimed: populates the cache file the
        // timed subprocess runs load from.
        if (have_icp) {
            std::remove(one_cache.c_str());
            writeBlob(one_in, blob_a);
            oneShotRewriteMs(one_in, one_out, one_cache);
        }

        // Warm loop: every rep rewrites both input files with the
        // other blob (a one-immediate diff from the resident /
        // cached state), so each request pays stamp check +
        // loadInput + selective re-emit, never the unchanged-file
        // cached-reply shortcut. The serve request and the one-shot
        // subprocess are timed back to back inside the same rep so
        // host-load drift (this is often a shared core) hits both
        // sides equally instead of whichever loop ran second.
        SampleStats serve_ms;
        SampleStats one_ms;
        std::uint64_t dirty_total = 0;
        std::uint64_t emitted_total = 0;
        for (unsigned r = 0; r < serve_reps; ++r) {
            writeBlob(in_path, r % 2 == 0 ? blob_b : blob_a);
            const auto t0 = std::chrono::steady_clock::now();
            serveRewrite(reply);
            const auto t1 = std::chrono::steady_clock::now();
            if (reply.getU64("warm") != 1 ||
                reply.getU64("incremental") != 1) {
                std::fprintf(stderr,
                             "serve bench: rep %u not a warm "
                             "incremental answer\n",
                             r);
                std::exit(1);
            }
            dirty_total += reply.getU64("dirty");
            emitted_total += reply.getU64("emitted");
            serve_ms.add(
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count());
            if (have_icp) {
                writeBlob(one_in, r % 2 == 0 ? blob_b : blob_a);
                one_ms.add(
                    oneShotRewriteMs(one_in, one_out, one_cache));
            }
        }
        close(cfd);
        server.requestDrain();
        daemon.join();

        const double p50 = serve_ms.percentile(50);
        const double p99 = serve_ms.percentile(99);
        const double req_per_sec =
            serve_ms.mean() > 0.0 ? 1000.0 / serve_ms.mean() : 0.0;
        const double one_p50 =
            one_ms.empty() ? 0.0 : one_ms.percentile(50);
        const double speedup = p50 > 0.0 && one_p50 > 0.0
                                   ? one_p50 / p50
                                   : 0.0;

        char p50s[32], p99s[32], rps[32], ones[32], sp[32];
        std::snprintf(p50s, sizeof(p50s), "%.3f", p50);
        std::snprintf(p99s, sizeof(p99s), "%.3f", p99);
        std::snprintf(rps, sizeof(rps), "%.1f", req_per_sec);
        std::snprintf(ones, sizeof(ones), "%.3f", one_p50);
        std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
        table.addRow({w.name, p50s, p99s, rps,
                      one_ms.empty() ? "-" : ones,
                      one_ms.empty() ? "-" : sp});

        json << (wi ? ",\n" : "\n") << "    {\"workload\": \""
             << w.name << "\", \"reps\": " << serve_reps
             << ", \"dirty_per_rep\": "
             << (static_cast<double>(dirty_total) / serve_reps)
             << ", \"emitted_per_rep\": "
             << (static_cast<double>(emitted_total) / serve_reps)
             << ", \"serve_p50_ms\": " << p50
             << ", \"serve_p99_ms\": " << p99
             << ", \"serve_mean_ms\": " << serve_ms.mean()
             << ", \"serve_req_per_sec\": " << req_per_sec
             << ", \"oneshot_p50_ms\": "
             << (one_ms.empty() ? 0.0 : one_ms.percentile(50))
             << ", \"oneshot_p99_ms\": "
             << (one_ms.empty() ? 0.0 : one_ms.percentile(99))
             << ", \"speedup_p50\": " << speedup << "}";

        std::remove(in_path.c_str());
        std::remove(out_path.c_str());
        std::remove(one_in.c_str());
        std::remove(one_out.c_str());
        std::remove(one_cache.c_str());
    }
    json << "\n  ]";
    std::printf("serve daemon vs one-shot subprocess "
                "(one-immediate edit per request, mode jt)\n%s\n",
                table.render().c_str());
    sections.add("serve", json.str());
}

/**
 * The cross-binary regime: a corpus of libcommon binaries that share
 * a byte-identical static-lib core at different link addresses.
 * Binary 0 is rewritten cold into a shared cache file; each later
 * binary is then rewritten in a fresh-process model (in-memory cache
 * cleared, file loaded) against that file. Content-addressed keys
 * make every core function's entry hit despite the address shift;
 * a hit decodes its record at the lookup entry. Reported per warm
 * binary: the median wall of `reps` runs vs the median of its own
 * cold baselines, the function-analysis hit rate, and how many of
 * those hits were cross-binary (origin entry != lookup entry).
 */
void
crossBinarySection(icp::bench::JsonSections &sections)
{
    const std::string xbin_cache = cache_file + ".xbin";
    const auto specs = libcommonCorpus(Arch::x64, 4);
    std::vector<BinaryImage> imgs;
    for (const auto &spec : specs)
        imgs.push_back(compileProgram(spec));

    // Per-binary cold baselines: no cache file, empty memory cache.
    std::vector<double> cold_ms(imgs.size(), 0.0);
    for (std::size_t b = 0; b < imgs.size(); ++b) {
        SampleStats ms;
        for (unsigned rep = 0; rep < reps; ++rep) {
            AnalysisCache::global().clear();
            ms.add(rewriteWallMs(imgs[b], 1));
        }
        cold_ms[b] = ms.percentile(50);
    }

    // Prime the shared file with binary 0 (itself a cold run).
    std::remove(xbin_cache.c_str());
    AnalysisCache::global().clear();
    rewriteWallMs(imgs[0], 1, xbin_cache);

    // B..N sequentially against the accumulating shared file. Every
    // rep of a binary starts from the file the previous binary left
    // (its bytes restored), so each rep is first contact; the last
    // rep's save carries the binary's app tail on to the next one.
    TextTable table({"Binary", "Cold ms", "Warm ms", "vs cold",
                     "Hit rate", "Cross hits"});
    table.addRow({"libcommon-app0 (prime)",
                  std::to_string(cold_ms[0]), "-", "-", "-", "-"});
    std::ostringstream json;
    json << "[";
    for (std::size_t b = 1; b < imgs.size(); ++b) {
        const std::vector<std::uint8_t> shared = readBlob(xbin_cache);
        SampleStats warm_ms;
        std::uint64_t hits = 0, misses = 0, cross = 0;
        for (unsigned rep = 0; rep < reps; ++rep) {
            writeBlob(xbin_cache, shared);
            AnalysisCache::global().clear();
            Metrics::global().reset();
            const std::uint64_t cross0 =
                CacheCounters::global().crossHits.value();
            warm_ms.add(rewriteWallMs(imgs[b], 1, xbin_cache));
            const auto stats = AnalysisCache::global().stats();
            hits = stats.functionHits;
            misses = stats.functionMisses;
            cross = CacheCounters::global().crossHits.value() - cross0;
        }
        const double warm = warm_ms.percentile(50);
        const double hit_rate =
            hits + misses
                ? static_cast<double>(hits) /
                      static_cast<double>(hits + misses)
                : 0.0;
        const std::string stages = Metrics::global().json();

        char vs_cold[32], rate[32];
        std::snprintf(vs_cold, sizeof(vs_cold), "%.2fx",
                      cold_ms[b] / warm);
        std::snprintf(rate, sizeof(rate), "%.1f%%",
                      hit_rate * 100.0);
        table.addRow({specs[b].name, std::to_string(cold_ms[b]),
                      std::to_string(warm), vs_cold, rate,
                      std::to_string(cross)});

        json << (b > 1 ? ",\n" : "\n") << "    {\"binary\": \""
             << specs[b].name << "\", \"cold_ms\": " << cold_ms[b]
             << ", \"warm_ms\": " << warm
             << ", \"function_hits\": " << hits
             << ", \"function_misses\": " << misses
             << ", \"hit_rate\": " << hit_rate
             << ", \"cross_hits\": " << cross
             << ", \"cache_file_bytes\": " << fileBytes(xbin_cache)
             << ", \"stages\": " << stages << "}";
    }
    json << "\n  ]";
    std::printf("cross-binary cache sharing (libcommon x64 corpus, "
                "shared --cache-file primed by app0; median of %u "
                "reps)\n%s\n",
                reps, table.render().c_str());
    sections.add("cross_binary", json.str());
    std::remove(xbin_cache.c_str());
}

std::string
runsJson(const std::vector<Run> &runs)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run &r = runs[i];
        out << (i ? ",\n" : "\n")
            << "    {\"threads\": " << r.threads << ", \"cache\": \""
            << cacheModeName(r.mode) << "\", \"wall_ms\": "
            << r.wallMs
            << ", \"cache_file_bytes\": " << r.cacheFileBytes
            << ", \"stages\": " << r.stages << "}";
    }
    out << "\n  ]";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache-file" && i + 1 < argc)
            cache_file = argv[++i];
        else if (arg.rfind("--cache-file=", 0) == 0)
            cache_file = arg.substr(13);
        else if (arg == "--icp" && i + 1 < argc)
            icp_binary = argv[++i];
        else if (arg.rfind("--icp=", 0) == 0)
            icp_binary = arg.substr(6);
    }

    std::printf("Parallel pipeline scaling (hardware concurrency: "
                "%u)\n\n",
                std::thread::hardware_concurrency());

    icp::bench::JsonSections sections;
    {
        std::ostringstream hw;
        hw << std::thread::hardware_concurrency();
        sections.add("hardware_concurrency", hw.str());
    }

    // Before any corpus is compiled in-process: the forked
    // measurement children must inherit a near-empty address space.
    chromiumShardedSection(sections);

    struct Workload
    {
        const char *name;
        BinaryImage img;
    };
    std::vector<Workload> workloads;
    workloads.push_back({"libxul", compileProgram(libxulProfile())});
    workloads.push_back(
        {"spec_gcc_aarch64",
         compileProgram(specCpuSuite(Arch::aarch64, true)[1])});

    for (Workload &w : workloads) {
        TextTable table({"Threads", "Cache", "Wall ms", "Speedup",
                         "vs cold"});
        std::vector<Run> runs;
        double base_cold = 0.0;
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            double cold_ms = 0.0;
            for (CacheMode mode :
                 {CacheMode::cold, CacheMode::warmMemory,
                  CacheMode::coldDisk, CacheMode::warmDisk,
                  CacheMode::warmDiskDelta}) {
                Run run = measure(w.img, threads, mode);
                if (mode == CacheMode::cold) {
                    cold_ms = run.wallMs;
                    if (threads == 1)
                        base_cold = run.wallMs;
                }
                char speedup[32], vs_cold[32];
                std::snprintf(speedup, sizeof(speedup), "%.2fx",
                              base_cold / run.wallMs);
                std::snprintf(vs_cold, sizeof(vs_cold), "%.2fx",
                              cold_ms / run.wallMs);
                table.addRow({std::to_string(threads),
                              cacheModeName(run.mode),
                              std::to_string(run.wallMs), speedup,
                              mode == CacheMode::cold ? "-"
                                                      : vs_cold});
                runs.push_back(std::move(run));
            }
        }
        std::printf("%s: %zu functions\n%s\n", w.name,
                    w.img.functionSymbols().size(),
                    table.render().c_str());
        sections.add(w.name, runsJson(runs));
    }
    std::remove(cache_file.c_str());

    warmSessionSection(sections);
    warmDatadepsSection(sections);
    serveSection(sections);
    crossBinarySection(sections);

    if (!icp::bench::writeJsonIfRequested(argc, argv,
                                          sections.str()))
        return 1;
    return 0;
}
