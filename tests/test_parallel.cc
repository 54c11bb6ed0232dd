/**
 * @file
 * Determinism and reuse tests of the parallel per-function pipeline:
 * rewriting with N worker threads must produce byte-identical output
 * to the sequential path, a warm analysis cache must change nothing
 * (also when its hits are decoded at another binary's entries) but
 * skip >= 95% of per-function analysis work, and the thread pool
 * itself must cover every index exactly once and propagate
 * exceptions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "analysis/cache.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "support/thread_pool.hh"

using namespace icp;

namespace
{

struct ArchMode
{
    Arch arch;
    RewriteMode mode;
};

std::string
archModeName(const ::testing::TestParamInfo<ArchMode> &info)
{
    std::string s;
    switch (info.param.arch) {
      case Arch::x64: s = "x64"; break;
      case Arch::ppc64le: s = "ppc64le"; break;
      case Arch::aarch64: s = "aarch64"; break;
    }
    switch (info.param.mode) {
      case RewriteMode::dir: s += "_dir"; break;
      case RewriteMode::jt: s += "_jt"; break;
      case RewriteMode::funcPtr: s += "_funcptr"; break;
    }
    return s;
}

RewriteOptions
fullOptions(RewriteMode mode, unsigned threads, bool cache)
{
    RewriteOptions opts;
    opts.mode = mode;
    opts.instrumentation.countFunctionEntries = true;
    opts.instrumentation.countBlocks = true;
    opts.threads = threads;
    opts.useAnalysisCache = cache;
    return opts;
}

class ParallelPerArchMode : public ::testing::TestWithParam<ArchMode>
{
};

} // namespace

TEST(ThreadPool, EffectiveThreads)
{
    EXPECT_GE(effectiveThreads(0), 1u);
    EXPECT_EQ(effectiveThreads(1), 1u);
    EXPECT_EQ(effectiveThreads(7), 7u);
}

TEST(ThreadPool, CoversEveryIndexOnce)
{
    std::vector<std::atomic<unsigned>> hits(1000);
    ThreadPool::shared().parallelFor(hits.size(), 4,
                                     [&](std::size_t i) {
                                         hits[i].fetch_add(1);
                                     });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, SerialDegenerateCase)
{
    // max_parallel = 1 must run on the calling thread in order.
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    ThreadPool::shared().parallelFor(64, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, MapPreservesIndexOrder)
{
    const std::vector<int> out =
        ThreadPool::shared().parallelMap<int>(
            257, 4, [](std::size_t i) {
                return static_cast<int>(i * 3);
            });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * 3));
}

TEST(ThreadPool, PropagatesExceptions)
{
    std::atomic<unsigned> ran{0};
    EXPECT_THROW(
        ThreadPool::shared().parallelFor(
            100, 4,
            [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 37)
                    throw std::runtime_error("index 37");
            }),
        std::runtime_error);
    // Every index still completes (no partial cancellation), so the
    // pool is reusable after a throwing job.
    EXPECT_EQ(ran.load(), 100u);
    std::atomic<unsigned> again{0};
    ThreadPool::shared().parallelFor(10, 4, [&](std::size_t) {
        again.fetch_add(1);
    });
    EXPECT_EQ(again.load(), 10u);
}

TEST_P(ParallelPerArchMode, ThreadsProduceIdenticalBytes)
{
    const auto param = GetParam();
    const BinaryImage img =
        compileProgram(microProfile(param.arch, true));

    AnalysisCache::global().clear();
    const RewriteResult serial =
        rewriteBinary(img, fullOptions(param.mode, 1, false));
    ASSERT_TRUE(serial.ok) << serial.failReason;

    for (unsigned threads : {2u, 4u}) {
        AnalysisCache::global().clear();
        const RewriteResult parallel = rewriteBinary(
            img, fullOptions(param.mode, threads, false));
        ASSERT_TRUE(parallel.ok) << parallel.failReason;
        EXPECT_EQ(serial.image.serialize(),
                  parallel.image.serialize())
            << "threads=" << threads;
        EXPECT_EQ(serial.blockCounters, parallel.blockCounters);
        EXPECT_EQ(serial.entryCounters, parallel.entryCounters);
    }
}

TEST_P(ParallelPerArchMode, WarmCacheProducesIdenticalBytes)
{
    const auto param = GetParam();
    const BinaryImage img =
        compileProgram(microProfile(param.arch, true));

    AnalysisCache::global().clear();
    const RewriteResult cold =
        rewriteBinary(img, fullOptions(param.mode, 4, true));
    ASSERT_TRUE(cold.ok) << cold.failReason;

    const AnalysisCache::Stats before =
        AnalysisCache::global().stats();
    const RewriteResult warm =
        rewriteBinary(img, fullOptions(param.mode, 4, true));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    const AnalysisCache::Stats after =
        AnalysisCache::global().stats();

    EXPECT_EQ(cold.image.serialize(), warm.image.serialize());
    EXPECT_EQ(cold.blockCounters, warm.blockCounters);
    EXPECT_EQ(cold.entryCounters, warm.entryCounters);

    // The warm rewrite must reuse >= 95% of per-function analysis.
    const std::uint64_t hits = after.hits() - before.hits();
    const std::uint64_t misses = after.misses() - before.misses();
    ASSERT_GT(hits + misses, 0u);
    EXPECT_GE(static_cast<double>(hits) /
                  static_cast<double>(hits + misses),
              0.95);

    // And a cache-off rewrite matches too.
    const RewriteResult uncached =
        rewriteBinary(img, fullOptions(param.mode, 4, false));
    ASSERT_TRUE(uncached.ok) << uncached.failReason;
    EXPECT_EQ(cold.image.serialize(), uncached.image.serialize());
}

INSTANTIATE_TEST_SUITE_P(
    AllArchesModes, ParallelPerArchMode,
    ::testing::Values(ArchMode{Arch::x64, RewriteMode::dir},
                      ArchMode{Arch::x64, RewriteMode::jt},
                      ArchMode{Arch::x64, RewriteMode::funcPtr},
                      ArchMode{Arch::ppc64le, RewriteMode::dir},
                      ArchMode{Arch::ppc64le, RewriteMode::jt},
                      ArchMode{Arch::ppc64le, RewriteMode::funcPtr},
                      ArchMode{Arch::aarch64, RewriteMode::dir},
                      ArchMode{Arch::aarch64, RewriteMode::jt},
                      ArchMode{Arch::aarch64, RewriteMode::funcPtr}),
    archModeName);

TEST(ParallelSuite, InMemoryReHitsIdenticalAcrossThreads)
{
    // Member 1 of a shared-library corpus right after member 0, one
    // process, no cache file: its core functions hit entries sitting
    // at member 0's entries, and each worker decodes its hit from
    // the shared Function at member 1's, outside the cache lock.
    for (Arch arch : {Arch::x64, Arch::ppc64le, Arch::aarch64}) {
        SCOPED_TRACE(archName(arch));
        const std::vector<ProgramSpec> corpus = libcommonCorpus(arch, 2);
        const BinaryImage first = compileProgram(corpus[0]);
        const BinaryImage second = compileProgram(corpus[1]);

        AnalysisCache::global().clear();
        const RewriteResult uncached = rewriteBinary(
            second, fullOptions(RewriteMode::funcPtr, 4, false));
        ASSERT_TRUE(uncached.ok) << uncached.failReason;

        ASSERT_TRUE(rewriteBinary(
                        first, fullOptions(RewriteMode::funcPtr, 4, true))
                        .ok);
        const std::uint64_t cross0 =
            CacheCounters::global().crossHits.value();
        const RewriteResult warm = rewriteBinary(
            second, fullOptions(RewriteMode::funcPtr, 4, true));
        ASSERT_TRUE(warm.ok) << warm.failReason;
        EXPECT_GT(CacheCounters::global().crossHits.value(), cross0);
        EXPECT_EQ(warm.image.serialize(), uncached.image.serialize());
    }
    AnalysisCache::global().clear();
}

TEST(ParallelSuite, SpecWorkloadIdenticalAcrossThreads)
{
    // A bigger program than micro: first SPEC-like profile on the
    // fixed-length ISA with the most veneer/liveness pressure.
    const auto suite = specCpuSuite(Arch::aarch64, true);
    ASSERT_FALSE(suite.empty());
    const BinaryImage img = compileProgram(suite[0]);

    AnalysisCache::global().clear();
    const RewriteResult serial =
        rewriteBinary(img, fullOptions(RewriteMode::funcPtr, 1,
                                       false));
    ASSERT_TRUE(serial.ok) << serial.failReason;

    AnalysisCache::global().clear();
    const RewriteResult parallel =
        rewriteBinary(img, fullOptions(RewriteMode::funcPtr, 4,
                                       false));
    ASSERT_TRUE(parallel.ok) << parallel.failReason;
    EXPECT_EQ(serial.image.serialize(), parallel.image.serialize());
}

TEST(ParallelSuite, DefaultThreadCountIsHardware)
{
    // threads = 0 resolves to hardware concurrency and still matches
    // the sequential bytes.
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    AnalysisCache::global().clear();
    const RewriteResult serial =
        rewriteBinary(img, fullOptions(RewriteMode::jt, 1, false));
    ASSERT_TRUE(serial.ok) << serial.failReason;
    AnalysisCache::global().clear();
    const RewriteResult automatic =
        rewriteBinary(img, fullOptions(RewriteMode::jt, 0, false));
    ASSERT_TRUE(automatic.ok) << automatic.failReason;
    EXPECT_EQ(serial.image.serialize(), automatic.image.serialize());
}
