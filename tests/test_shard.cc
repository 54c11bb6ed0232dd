/**
 * @file
 * Sharded-rewrite tests: shard planning properties, byte identity of
 * the range-bounded streaming path against the classic materializing
 * rewrite across ISAs and modes, a torn cache-file tail that the run
 * repairs, the private temporary cache, and rejection of
 * incompatible option combos.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "analysis/cache.hh"
#include "analysis/cache_store.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"

using namespace icp;

namespace
{

/**
 * Baseline options for sharded-vs-classic comparisons: one thread,
 * no cache file unless a test opts in.
 */
RewriteOptions
shardOptions(RewriteMode mode, unsigned shards)
{
    RewriteOptions opts;
    opts.mode = mode;
    opts.threads = 1;
    opts.shards = shards;
    return opts;
}

/** Run the classic path and return its serialized output bytes. */
std::vector<std::uint8_t>
classicBytes(const BinaryImage &img, RewriteOptions opts)
{
    opts.shards = 0;
    opts.cachePath.clear(); // never warm the sharded run's file
    AnalysisCache::global().clear();
    const RewriteResult rw = rewriteBinary(img, opts);
    EXPECT_TRUE(rw.ok) << rw.failReason;
    return rw.image.serialize();
}

/** Run the sharded path into a VectorSink; also exposes the result. */
std::vector<std::uint8_t>
shardedBytes(const BinaryImage &img, const RewriteOptions &opts,
             RewriteResult *result_out = nullptr)
{
    AnalysisCache::global().clear();
    std::vector<std::uint8_t> bytes;
    VectorSink sink(bytes);
    RewriteResult rw = rewriteBinarySharded(img, opts, sink);
    EXPECT_TRUE(rw.ok) << rw.failReason;
    EXPECT_TRUE(rw.image.sections.empty()); // streamed, not held
    if (result_out)
        *result_out = std::move(rw);
    return bytes;
}

std::string
tempCachePath(const char *tag)
{
    return "/tmp/icp-test-shard-" + std::string(tag) + "." +
           std::to_string(getpid()) + ".sbfc";
}

void
removeCache(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

} // namespace

TEST(ShardPlan, RangesTileAddressSpace)
{
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, true));
    for (unsigned n : {1u, 2u, 3u, 7u}) {
        const auto ranges = planShards(img, n);
        ASSERT_FALSE(ranges.empty());
        EXPECT_LE(ranges.size(), n);
        EXPECT_EQ(ranges.front().lo, 0u);
        EXPECT_EQ(ranges.back().hi, ~static_cast<Addr>(0));
        for (std::size_t i = 0; i < ranges.size(); ++i) {
            EXPECT_LT(ranges[i].lo, ranges[i].hi);
            if (i) {
                EXPECT_EQ(ranges[i].lo, ranges[i - 1].hi);
            }
        }
    }
}

TEST(ShardPlan, BalancesFunctionCounts)
{
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, true));
    const auto syms = img.functionSymbols();
    const auto ranges = planShards(img, 4);
    ASSERT_EQ(ranges.size(), 4u);
    for (const ShardRange &r : ranges) {
        unsigned count = 0;
        for (const Symbol *sym : syms)
            if (sym->addr >= r.lo && sym->addr < r.hi)
                ++count;
        // Near-equal split: within one of size/4 either way.
        EXPECT_NEAR(count, syms.size() / 4.0, syms.size() / 8.0);
    }
}

TEST(ShardPlan, ClampsToFunctionCount)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const auto ranges =
        planShards(img, 1000); // far more shards than functions
    EXPECT_LE(ranges.size(), img.functionSymbols().size());
    EXPECT_GE(ranges.size(), 1u);
}

TEST(ShardRewrite, ByteIdenticalAcrossArchesAndModes)
{
    for (Arch arch : {Arch::x64, Arch::aarch64, Arch::ppc64le}) {
        const BinaryImage img =
            compileProgram(chromiumSmallProfile(arch, true));
        for (RewriteMode mode : {RewriteMode::dir, RewriteMode::jt,
                                 RewriteMode::funcPtr}) {
            const RewriteOptions opts = shardOptions(mode, 3);
            const auto classic = classicBytes(img, opts);
            RewriteResult rw;
            const auto sharded = shardedBytes(img, opts, &rw);
            EXPECT_EQ(sharded, classic)
                << archName(arch) << " mode "
                << rewriteModeName(mode);
            ASSERT_EQ(rw.stats.shards.size(), 3u);
            unsigned funcs = 0, inst = 0;
            for (const ShardCounters &sc : rw.stats.shards) {
                funcs += sc.functions;
                inst += sc.instrumented;
                EXPECT_GT(sc.blocks, 0u);
                EXPECT_GE(sc.insns, sc.blocks);
            }
            EXPECT_EQ(funcs, rw.stats.totalFunctions);
            EXPECT_EQ(inst, rw.stats.instrumentedFunctions);
        }
    }
}

TEST(ShardRewrite, ShardCountInvariant)
{
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::aarch64, false));
    const auto one =
        shardedBytes(img, shardOptions(RewriteMode::jt, 1));
    const auto four =
        shardedBytes(img, shardOptions(RewriteMode::jt, 4));
    EXPECT_EQ(one, four);
}

TEST(ShardRewrite, ClobberAndCallEmulationIdentical)
{
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::aarch64, true));
    for (int variant = 0; variant < 2; ++variant) {
        RewriteOptions opts = shardOptions(RewriteMode::jt, 3);
        if (variant == 0)
            opts.clobberOriginal = true;
        else
            opts.raTranslation = false; // call emulation
        EXPECT_EQ(shardedBytes(img, opts), classicBytes(img, opts))
            << "variant " << variant;
    }
}

TEST(ShardRewrite, CountersIdenticalWithInstrumentation)
{
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, true));
    RewriteOptions opts = shardOptions(RewriteMode::jt, 2);
    opts.instrumentation.countBlocks = true;
    opts.instrumentation.countFunctionEntries = true;
    AnalysisCache::global().clear();
    const RewriteResult classic = rewriteBinary(
        img, [&] {
            RewriteOptions o = opts;
            o.shards = 0;
            return o;
        }());
    ASSERT_TRUE(classic.ok) << classic.failReason;
    RewriteResult sharded;
    const auto bytes = shardedBytes(img, opts, &sharded);
    EXPECT_EQ(bytes, classic.image.serialize());
    EXPECT_EQ(sharded.blockCounters, classic.blockCounters);
    EXPECT_EQ(sharded.entryCounters, classic.entryCounters);
}

TEST(ShardRewrite, TornCacheTailIsRepairedAndOutputIdentical)
{
    // A cache file holding one complete segment, followed by what an
    // appender killed mid-save leaves behind: a plausible segment
    // header cut off mid-payload.
    const std::string cache = tempCachePath("torn");
    removeCache(cache);
    {
        RewriteOptions prime;
        prime.cachePath = cache;
        AnalysisCache::global().clear();
        ASSERT_TRUE(rewriteBinary(
                        compileProgram(microProfile(Arch::x64, true)),
                        prime)
                        .ok);
    }
    const std::uint8_t torn[] = {'I', 'C', 'P', 'S', 0xff, 0x13,
                                 0x37, 0x00, 0xde, 0xad};
    {
        std::FILE *f = std::fopen(cache.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
        std::fclose(f);
    }
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, true));
    RewriteOptions opts = shardOptions(RewriteMode::jt, 3);
    opts.cachePath = cache;
    EXPECT_EQ(shardedBytes(img, opts), classicBytes(img, opts));

    // The run's saves dropped the torn tail: a fresh load sees only
    // complete segments.
    AnalysisCache::global().clear();
    const CacheLoadReport report =
        AnalysisCache::global().load(cache, img.arch);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.droppedEntries, 0u);
    EXPECT_GT(report.loadedEntries(), 0u);
    removeCache(cache);
}

TEST(ShardWorkers, PrivateTempCacheUnderTmpdirIsRemoved)
{
    // Without --cache-file the range cache lives in a private
    // mkdtemp directory under TMPDIR, removed with its lock file when
    // the run ends.
    const std::string dir =
        "/tmp/icp-test-shard-tmpdir." + std::to_string(getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const char *old = std::getenv("TMPDIR");
    const std::string saved = old ? old : "";
    setenv("TMPDIR", dir.c_str(), 1);

    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, false));
    const RewriteOptions opts = shardOptions(RewriteMode::jt, 2);
    const auto bytes = shardedBytes(img, opts);

    if (old)
        setenv("TMPDIR", saved.c_str(), 1);
    else
        unsetenv("TMPDIR");
    EXPECT_EQ(bytes, classicBytes(img, opts));
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(ShardRewrite, RejectsIncompatibleOptions)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, true));
    std::vector<std::uint8_t> bytes;

    {
        RewriteOptions opts = shardOptions(RewriteMode::jt, 2);
        opts.functionOrder = OrderPolicy::reversed;
        VectorSink sink(bytes);
        const RewriteResult rw =
            rewriteBinarySharded(img, opts, sink);
        EXPECT_FALSE(rw.ok);
        EXPECT_FALSE(rw.failReason.empty());
    }
    {
        RewriteOptions opts = shardOptions(RewriteMode::jt, 2);
        opts.injectDefect = InjectDefect::trampTarget;
        VectorSink sink(bytes);
        const RewriteResult rw =
            rewriteBinarySharded(img, opts, sink);
        EXPECT_FALSE(rw.ok);
        EXPECT_FALSE(rw.failReason.empty());
    }
    {
        RewriteOptions opts = shardOptions(RewriteMode::jt, 2);
        opts.reachabilityPruning = true;
        opts.clobberOriginal = true;
        VectorSink sink(bytes);
        const RewriteResult rw =
            rewriteBinarySharded(img, opts, sink);
        EXPECT_FALSE(rw.ok);
        EXPECT_FALSE(rw.failReason.empty());
    }
}
