/**
 * @file
 * AllocGuard: heap allocations per function of the analysis and the
 * rewrite of chromium-small, and per hit of a warm analysis from a
 * cache file, counted by this binary's own global operator new, on
 * each ISA. The builder and the emitter keep their per-function
 * working state in flat tables and reused buffers, and a Function is
 * a few flat arrays however many blocks it has; a change that brings
 * back a node or a vector per block or per instruction shows up here
 * as a multiple of the recorded figure: each bound is 1.5x the count
 * measured when it was set.
 *
 * The counting operator new replaces the allocator's entry points,
 * so this binary stays out of sanitizer builds, which own them.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "analysis/cache.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) /
                                a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace icp;

namespace
{

/** Allocations made by @p fn. */
template <class Fn>
std::uint64_t
countAllocations(Fn &&fn)
{
    allocations.store(0);
    counting.store(true);
    fn();
    counting.store(false);
    return allocations.load();
}

/** Allocations per function measured when the bounds were set. */
struct Measured
{
    Arch arch;
    double buildCfgPerFunction;
    double rewritePerFunction;
    double warmBuildCfgPerHit;
};

/**
 * Prints a case as its ISA. gtest would otherwise print the struct's
 * raw bytes, padding included, so the listed test name would change
 * from one build to the next; the figures stay out of it so that
 * re-pinning them renames no test.
 */
void
PrintTo(const Measured &m, std::ostream *os)
{
    *os << archName(m.arch);
}

constexpr double slack = 1.5;

class AllocGuard : public ::testing::TestWithParam<Measured>
{
};

TEST_P(AllocGuard, ChromiumSmallPerFunction)
{
    const Measured measured = GetParam();
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(measured.arch, false));

    // Cold: the process-wide cache starts empty and is filled.
    AnalysisCache::global().clear();
    AnalysisOptions aopts;
    aopts.threads = 1;
    CfgModule cfg;
    const std::uint64_t analysis =
        countAllocations([&] { cfg = buildCfg(img, aopts); });
    const double funcs = cfg.totalFunctions();
    ASSERT_GT(funcs, 1000);

    RewriteOptions ropts;
    ropts.threads = 1;
    RewritePass pass;
    pass.cfg = &cfg;
    RewriteResult rw;
    const std::uint64_t rewrite = countAllocations(
        [&] { rw = rewriteBinary(img, ropts, pass); });
    ASSERT_TRUE(rw.ok) << rw.failReason;

    const double per_cfg = analysis / funcs;
    const double per_rewrite = rewrite / funcs;
    std::printf("%s: buildCfg %llu (%.1f per function), rewriteBinary "
                "%llu (%.1f per function), %u functions\n",
                archName(measured.arch),
                static_cast<unsigned long long>(analysis), per_cfg,
                static_cast<unsigned long long>(rewrite), per_rewrite,
                cfg.totalFunctions());
    EXPECT_LE(per_cfg, slack * measured.buildCfgPerFunction);
    EXPECT_LE(per_rewrite, slack * measured.rewritePerFunction);
}

TEST_P(AllocGuard, ChromiumSmallWarmHits)
{
    // A warm run: a cache file primed from chromium-small, loaded into
    // an empty process cache. Every function hits, and a hit decodes
    // its record into the Function's arrays, each sized once.
    const Measured measured = GetParam();
    const BinaryImage img =
        compileProgram(chromiumSmallProfile(measured.arch, false));
    const std::string path = ::testing::TempDir() + "icp_alloc_guard_" +
                             archName(measured.arch) + ".icpc";
    std::remove(path.c_str());
    AnalysisCache &cache = AnalysisCache::global();
    cache.clear();
    AnalysisOptions aopts;
    aopts.threads = 1;
    buildCfg(img, aopts);
    ASSERT_TRUE(cache.save(path));
    cache.clear();
    ASSERT_TRUE(cache.load(path, measured.arch).clean());

    CfgModule cfg;
    const std::uint64_t warm =
        countAllocations([&] { cfg = buildCfg(img, aopts); });
    std::remove(path.c_str());
    const std::uint64_t hits = cache.stats().hits();
    ASSERT_GT(hits, 1000u);
    EXPECT_EQ(hits, cfg.totalFunctions());
    EXPECT_EQ(cache.stats().misses(), 0u);

    const double per_hit = static_cast<double>(warm) / hits;
    std::printf("%s: warm buildCfg %llu (%.1f per hit), %llu hits\n",
                archName(measured.arch),
                static_cast<unsigned long long>(warm), per_hit,
                static_cast<unsigned long long>(hits));
    EXPECT_LE(per_hit, slack * measured.warmBuildCfgPerHit);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, AllocGuard,
    ::testing::Values(Measured{Arch::x64, 16.4, 29.3, 5.1},
                      Measured{Arch::ppc64le, 19.0, 30.0, 6.0},
                      Measured{Arch::aarch64, 19.9, 30.7, 6.1}),
    [](const ::testing::TestParamInfo<Measured> &info) {
        switch (info.param.arch) {
          case Arch::x64: return "x64";
          case Arch::ppc64le: return "ppc64le";
          case Arch::aarch64: return "aarch64";
        }
        return "unknown";
    });

} // namespace
