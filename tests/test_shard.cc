/**
 * @file
 * Sharded-rewrite tests: shard planning properties, byte identity of
 * the range-bounded streaming path against the classic materializing
 * rewrite across ISAs and modes, range mode leaving the analysis
 * cache untouched, and rejection of incompatible option combos.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include "analysis/cache.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"

using namespace icp;

namespace
{

/** Baseline options for sharded-vs-classic comparisons. */
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

TEST(ShardRewrite, RangeModeLeavesAnalysisCacheUntouched)
{
    // Several ranges analyze in memory: the run neither clears,
    // consults nor fills the process-wide analysis cache, which a
    // classic rewrite has just populated.
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, true));
    const RewriteOptions opts = shardOptions(RewriteMode::jt, 3);
    const auto classic = classicBytes(img, opts);
    AnalysisCache &cache = AnalysisCache::global();
    const AnalysisCache::Stats before = cache.stats();
    const std::size_t entries = cache.entryCount();
    ASSERT_GT(entries, 0u);

    std::vector<std::uint8_t> bytes;
    VectorSink sink(bytes);
    const RewriteResult rw = rewriteBinarySharded(img, opts, sink);
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(bytes, classic);
    const AnalysisCache::Stats after = cache.stats();
    EXPECT_EQ(after.functionHits, before.functionHits);
    EXPECT_EQ(after.functionMisses, before.functionMisses);
    EXPECT_EQ(cache.entryCount(), entries);
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
    {
        // More than one range takes no cache file; the rejection
        // comes before the file is loaded or created.
        const std::string cache = "/tmp/icp-test-shard-reject." +
                                  std::to_string(getpid()) + ".icpc";
        std::remove(cache.c_str());
        RewriteOptions opts = shardOptions(RewriteMode::jt, 2);
        opts.cachePath = cache;
        VectorSink sink(bytes);
        const RewriteResult rw =
            rewriteBinarySharded(img, opts, sink);
        EXPECT_FALSE(rw.ok);
        EXPECT_FALSE(rw.failReason.empty());
        struct stat st;
        EXPECT_NE(stat(cache.c_str(), &st), 0);
        EXPECT_NE(stat((cache + ".lock").c_str(), &st), 0);
    }
}
