/**
 * @file
 * Unit tests for the per-function data-reference dependency analysis
 * (analysis/datadeps.hh): interval-set construction and queries,
 * content-hash validation against an image, the overlap index that
 * drives loadInput's data-edit invalidation, computeDataDeps on
 * compiled corpora (jump-table extents recorded, .text-embedded
 * tables excluded, constant-base global reads visible on every ISA),
 * and the AnalysisCache round trip of read-sets through the v3
 * on-disk store.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "analysis/builder.hh"
#include "analysis/cache.hh"
#include "analysis/cache_store.hh"
#include "analysis/datadeps.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"

using namespace icp;

namespace
{

BinaryImage
compileMicro(Arch arch)
{
    return compileProgram(microProfile(arch, /*pie=*/true));
}

/** First non-executable section with bytes (the micro .rodata). */
const Section *
firstDataSection(const BinaryImage &img)
{
    for (const Section &sec : img.sections)
        if (!sec.executable && !sec.bytes.empty())
            return &sec;
    return nullptr;
}

std::string
tmpPath(const std::string &name)
{
    return "/tmp/icp_datadeps_" + std::to_string(::getpid()) + "_" +
           name;
}

struct FileGuard
{
    std::string path;
    ~FileGuard() { std::remove(path.c_str()); }
};

} // namespace

// --- interval set ----------------------------------------------------------

TEST(DataDepsSet, AddFinalizeCoalescesAndHashes)
{
    const BinaryImage img = compileMicro(Arch::x64);
    const Section *sec = firstDataSection(img);
    ASSERT_NE(sec, nullptr);
    ASSERT_GE(sec->bytes.size(), 32u);
    const Addr base = sec->addr;

    DataDeps deps;
    // Out of order, overlapping, and adjacent ranges all coalesce.
    deps.add(base + 8, base + 12);
    deps.add(base + 0, base + 4);
    deps.add(base + 2, base + 9);  // bridges the first two
    deps.add(base + 16, base + 20);
    deps.add(base + 20, base + 24); // adjacent: merges
    deps.finalize(img);

    ASSERT_EQ(deps.size(), 2u);
    EXPECT_EQ(deps.ranges()[0].lo, base + 0);
    EXPECT_EQ(deps.ranges()[0].hi, base + 12);
    EXPECT_EQ(deps.ranges()[1].lo, base + 16);
    EXPECT_EQ(deps.ranges()[1].hi, base + 24);
    EXPECT_EQ(deps.totalBytes(), 20u);
    // Mapped ranges carry a content hash (0 is the unmapped marker).
    EXPECT_NE(deps.ranges()[0].hash, 0u);
    EXPECT_NE(deps.ranges()[1].hash, 0u);
    EXPECT_TRUE(deps.validate(img));
}

TEST(DataDepsSet, EmptyAndInvertedRangesIgnored)
{
    const BinaryImage img = compileMicro(Arch::x64);
    DataDeps deps;
    deps.add(0x1000, 0x1000); // empty
    deps.add(0x2000, 0x1000); // inverted
    deps.finalize(img);
    EXPECT_TRUE(deps.empty());
    EXPECT_EQ(deps.totalBytes(), 0u);
    // An empty set reads nothing: trivially valid, overlaps nothing.
    EXPECT_TRUE(deps.validate(img));
    EXPECT_FALSE(deps.overlaps(0, ~static_cast<Addr>(0)));
}

TEST(DataDepsSet, OverlapsAndCoversAreHalfOpen)
{
    DataDeps deps;
    deps.setRanges({{0x100, 0x110, 1}, {0x200, 0x208, 2}});

    EXPECT_TRUE(deps.overlaps(0x100, 0x101));
    EXPECT_TRUE(deps.overlaps(0x10f, 0x110));
    EXPECT_FALSE(deps.overlaps(0x110, 0x200)); // exactly the gap
    EXPECT_TRUE(deps.overlaps(0x0, 0x101));
    EXPECT_TRUE(deps.overlaps(0x10f, 0x201)); // spans both
    EXPECT_FALSE(deps.overlaps(0xff, 0x100)); // ends at lo

    EXPECT_TRUE(deps.covers(0x100, 0x110));
    EXPECT_TRUE(deps.covers(0x104, 0x108));
    EXPECT_FALSE(deps.covers(0x10c, 0x114)); // straddles hi
    EXPECT_FALSE(deps.covers(0x110, 0x200)); // outside entirely
}

TEST(DataDepsSet, ValidateDetectsExactlyTheReadBytes)
{
    BinaryImage img = compileMicro(Arch::x64);
    const Section *sec = firstDataSection(img);
    ASSERT_NE(sec, nullptr);
    ASSERT_GE(sec->bytes.size(), 16u);
    const Addr base = sec->addr;

    DataDeps deps;
    deps.add(base + 0, base + 8);
    deps.finalize(img);
    ASSERT_TRUE(deps.validate(img));

    // A byte inside the recorded range invalidates...
    BinaryImage edited = img;
    edited.sections[static_cast<std::size_t>(
        sec - img.sections.data())].bytes[4] ^= 0xff;
    EXPECT_FALSE(deps.validate(edited));

    // ...a byte outside it does not.
    BinaryImage other = img;
    other.sections[static_cast<std::size_t>(
        sec - img.sections.data())].bytes[12] ^= 0xff;
    EXPECT_TRUE(deps.validate(other));
}

TEST(HashImageRange, UnmappedIsZeroAndContentSensitive)
{
    BinaryImage img = compileMicro(Arch::x64);
    const Section *sec = firstDataSection(img);
    ASSERT_NE(sec, nullptr);

    const std::uint64_t h =
        hashImageRange(img, sec->addr, sec->addr + 8);
    EXPECT_NE(h, 0u);

    // Nothing maps address 8; the sentinel is 0.
    EXPECT_EQ(hashImageRange(img, 0x8, 0x10), 0u);

    img.sections[static_cast<std::size_t>(sec - img.sections.data())]
        .bytes[3] ^= 0x01;
    EXPECT_NE(hashImageRange(img, sec->addr, sec->addr + 8), h);
}

TEST(HashInPlace, KeysAndRangeHashesArePinned)
{
    // Cache files and read-sets store these hashes, so their values
    // are part of the format: pinned here on micro x64 (PIE), with a
    // data section and a function stretched past their stored bytes
    // so both hash zero fill the same way.
    BinaryImage img = compileMicro(Arch::x64);
    Section *text = img.findSection(SectionKind::text);
    ASSERT_NE(text, nullptr);
    const std::size_t data_index = static_cast<std::size_t>(
        firstDataSection(img) - img.sections.data());

    std::uint64_t keys = 0;
    for (const Symbol *sym : img.functionSymbols()) {
        keys = fnv1a(&keys, sizeof(keys),
                     functionCacheKey(img, *sym, {}, 0x1234));
        keys = fnv1a(&keys, sizeof(keys),
                     functionCacheKey(img, *sym, {{1, 2, 3}}, 0x1234));
    }
    EXPECT_EQ(keys, 14896875785874358401ull);

    Section &data = img.sections[data_index];
    const Addr lo = data.addr;
    const Addr stored_end = data.addr + data.bytes.size();
    EXPECT_EQ(hashImageRange(img, lo, stored_end),
              13961540330085132261ull);
    EXPECT_EQ(hashImageRange(img, lo + 3, lo + 11),
              11470059341666184323ull);

    // Zero fill past the stored bytes hashes as zero bytes.
    data.memSize = data.bytes.size() + 24;
    EXPECT_EQ(hashImageRange(img, stored_end - 4, stored_end + 20),
              9354609568656401157ull);
    EXPECT_EQ(hashImageRange(img, stored_end + 2, stored_end + 24),
              17890621422390769789ull);

    text->memSize = text->bytes.size() + 16;
    const Symbol tail{"tail", Symbol::Kind::function,
                      text->addr + text->bytes.size() - 3, 12};
    EXPECT_EQ(functionCacheKey(img, tail, {}, 0x1234),
              5008670011315154793ull);
}

// --- computeDataDeps on compiled corpora -----------------------------------

namespace
{

CfgModule
analyzeNoCache(const BinaryImage &img)
{
    AnalysisOptions opts;
    opts.useCache = false;
    return buildCfg(img, opts);
}

} // namespace

TEST(ComputeDataDeps, JumpTableExtentsRecorded)
{
    for (const Arch arch : {Arch::x64, Arch::aarch64}) {
        const BinaryImage img = compileMicro(arch);
        const CfgModule cfg = analyzeNoCache(img);

        unsigned tables_checked = 0;
        for (const auto &[entry, func] : cfg.functions) {
            (void)entry;
            for (const JumpTable &jt : func.jumpTables) {
                if (jt.embeddedInCode || jt.entryCount == 0)
                    continue;
                const Addr lo = jt.tableAddr;
                const Addr hi =
                    jt.tableAddr + static_cast<Addr>(jt.entryCount) *
                                       jt.entrySize;
                EXPECT_TRUE(func.dataDeps.covers(lo, hi))
                    << archName(arch) << " " << func.name
                    << ": table bytes not in the read-set";
                ++tables_checked;
            }
        }
        EXPECT_GT(tables_checked, 0u)
            << archName(arch) << ": corpus grew no jump tables";
    }
}

TEST(ComputeDataDeps, ReadSetsNeverCoverCode)
{
    for (const Arch arch : all_arches) {
        const BinaryImage img = compileMicro(arch);
        const CfgModule cfg = analyzeNoCache(img);
        for (const auto &[entry, func] : cfg.functions) {
            (void)entry;
            for (const DepRange &r : func.dataDeps.ranges()) {
                for (const Section &sec : img.sections) {
                    if (!sec.executable)
                        continue;
                    EXPECT_FALSE(r.lo < sec.end() && sec.addr < r.hi)
                        << archName(arch) << " " << func.name
                        << ": read-set range overlaps " << sec.name;
                }
            }
        }
    }
}

TEST(ComputeDataDeps, GlobalReadsVisibleOnEveryIsa)
{
    // FuncSpec::readsGlobal emits a constant-base load of a .data
    // cell — the ISA-generic shape (ppc64le embeds its jump tables in
    // .text, so this is what makes its read-sets non-empty).
    for (const Arch arch : all_arches) {
        ProgramSpec spec = microProfile(arch, /*pie=*/true);
        ASSERT_GE(spec.funcs.size(), 2u);
        spec.funcs[1].readsGlobal = true;
        spec.funcs[1].globalSlot = 3;
        const std::string victim = spec.funcs[1].name;

        const BinaryImage img = compileProgram(spec);
        const CfgModule cfg = analyzeNoCache(img);

        const Function *func = nullptr;
        for (const auto &[entry, f] : cfg.functions) {
            (void)entry;
            if (f.name == victim)
                func = &f;
        }
        ASSERT_NE(func, nullptr) << archName(arch);
        EXPECT_FALSE(func->dataDeps.empty())
            << archName(arch)
            << ": global read missing from the read-set";
        EXPECT_GE(func->dataDeps.totalBytes(), 8u) << archName(arch);
        EXPECT_TRUE(func->dataDeps.validate(img));
    }
}

TEST(ComputeDataDeps, MatchesFreshRecomputation)
{
    const BinaryImage img = compileMicro(Arch::x64);
    const CfgModule cfg = analyzeNoCache(img);
    unsigned nonempty = 0;
    for (const auto &[entry, func] : cfg.functions) {
        (void)entry;
        const DataDeps fresh = computeDataDeps(func, img);
        EXPECT_EQ(fresh, func.dataDeps) << func.name;
        if (!fresh.empty())
            ++nonempty;
    }
    EXPECT_GT(nonempty, 0u);
}

// --- cache round trip ------------------------------------------------------

TEST(DataDepsCache, RoundTripsThroughStoreAndDiskFile)
{
    const BinaryImage img = compileMicro(Arch::x64);
    const CfgModule cfg = analyzeNoCache(img);

    std::shared_ptr<const Function> func;
    for (const FunctionSlot &slot : cfg.functions)
        if (!slot.fn->dataDeps.empty())
            func = slot.fn;
    ASSERT_NE(func, nullptr);

    // The read-set rides in the function record.
    AnalysisCache::global().clear();
    const std::uint64_t key = 0x1234abcdULL;
    AnalysisCache::global().storeFunction(key, Arch::x64, func,
                                          img.tocBase);

    // A lookup as the symbol of func's code at @p entry.
    auto find = [&](std::uint64_t k, Addr entry) {
        const Symbol sym{func->name, Symbol::Kind::function, entry,
                         func->end - func->entry};
        return AnalysisCache::global().findFunction(k, img, sym);
    };
    const auto in_memory = find(key, func->entry);
    ASSERT_NE(in_memory, nullptr);
    EXPECT_EQ(in_memory->dataDeps, func->dataDeps);
    EXPECT_EQ(find(key + 1, func->entry), nullptr);

    // Other bytes sit at a shifted entry of the same image: a hit
    // there is decoded from those bytes and must disagree, so the
    // lookup is one miss, neither a hit nor a cross hit. (A re-hit
    // where the same code does sit is CacheStoreArch's third
    // member.)
    const AnalysisCache::Stats before = AnalysisCache::global().stats();
    const std::uint64_t cross0 = CacheCounters::global().crossHits.value();
    EXPECT_EQ(find(key, func->entry + 0x1000), nullptr);
    const AnalysisCache::Stats after = AnalysisCache::global().stats();
    EXPECT_EQ(after.functionHits, before.functionHits);
    EXPECT_EQ(after.functionMisses, before.functionMisses + 1);
    EXPECT_EQ(CacheCounters::global().crossHits.value(), cross0);

    // Through the file: save, clear, lazy-load, look up again.
    FileGuard guard{tmpPath("roundtrip.icpc")};
    ASSERT_TRUE(AnalysisCache::global().save(guard.path));
    AnalysisCache::global().clear();
    ASSERT_EQ(find(key, func->entry), nullptr);

    const CacheLoadReport rep =
        AnalysisCache::global().load(guard.path, Arch::x64);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.fileVersion, cache_file_version);
    EXPECT_EQ(rep.loadedFunctions, 1u);

    const auto from_disk = find(key, func->entry);
    ASSERT_NE(from_disk, nullptr);
    EXPECT_EQ(from_disk->dataDeps, func->dataDeps);
    AnalysisCache::global().clear();
}
