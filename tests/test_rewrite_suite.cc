/**
 * @file
 * The full evaluation matrix as a test suite: every SPEC-like
 * benchmark × every ISA × every rewriting mode runs the strong test
 * (clobbered originals + entry-counter verification against native
 * transfer counts). 171 distinct workload/mode combinations.
 */

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "harness/verify.hh"
#include "rewrite/rewriter.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

struct SweepParam
{
    Arch arch;
    unsigned benchmark;
    RewriteMode mode;
};

/**
 * gtest prints a parameter that has no PrintTo as its raw object
 * bytes, padding included, and ctest puts that text in each case's
 * name; uninitialized padding made some names change from run to
 * run. Print the same "N-byte object <..>" text from the fields
 * alone, with the padding as zeros.
 */
void
PrintTo(const SweepParam &p, std::ostream *os)
{
    unsigned char bytes[sizeof(SweepParam)] = {};
    std::memcpy(bytes + offsetof(SweepParam, arch), &p.arch,
                sizeof(p.arch));
    std::memcpy(bytes + offsetof(SweepParam, benchmark), &p.benchmark,
                sizeof(p.benchmark));
    std::memcpy(bytes + offsetof(SweepParam, mode), &p.mode,
                sizeof(p.mode));
    *os << sizeof(bytes) << "-byte object <";
    for (std::size_t i = 0; i < sizeof(bytes); ++i) {
        char hex[4];
        std::snprintf(hex, sizeof(hex), "%s%02X",
                      i == 0 ? "" : (i % 2 ? "-" : " "), bytes[i]);
        *os << hex;
    }
    *os << '>';
}

class SuiteSweep : public ::testing::TestWithParam<SweepParam>
{
};

std::string
sweepName(const ::testing::TestParamInfo<SweepParam> &info)
{
    std::string s;
    switch (info.param.arch) {
      case Arch::x64: s = "x64_"; break;
      case Arch::ppc64le: s = "ppc64le_"; break;
      case Arch::aarch64: s = "aarch64_"; break;
    }
    std::string name = specCpuNames()[info.param.benchmark];
    for (char &c : name) {
        if (c == '.')
            c = '_';
    }
    s += name + "_";
    switch (info.param.mode) {
      case RewriteMode::dir: s += "dir"; break;
      case RewriteMode::jt: s += "jt"; break;
      case RewriteMode::funcPtr: s += "funcptr"; break;
    }
    return s;
}

std::vector<SweepParam>
allParams()
{
    std::vector<SweepParam> params;
    for (Arch arch : all_arches) {
        for (unsigned b = 0; b < 19; ++b) {
            for (RewriteMode mode :
                 {RewriteMode::dir, RewriteMode::jt,
                  RewriteMode::funcPtr}) {
                params.push_back({arch, b, mode});
            }
        }
    }
    return params;
}

} // namespace

TEST_P(SuiteSweep, StrongTestPasses)
{
    const SweepParam param = GetParam();
    const auto suite = specCpuSuite(param.arch, false);
    const BinaryImage img = compileProgram(suite[param.benchmark]);

    RewriteOptions opts;
    opts.mode = param.mode;
    opts.clobberOriginal = true;
    opts.instrumentation.countFunctionEntries = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_GE(rw.stats.coverage(), 0.9);

    const VerifyOutcome outcome =
        verifyRewrite(img, rw, Machine::Config{});
    EXPECT_TRUE(outcome.pass) << outcome.reason;

    // The static soundness verifier is a property oracle over the
    // whole matrix: no combination may produce an error finding.
    const LintReport lint = lintRewrite(img, rw);
    EXPECT_EQ(lint.countAtLeast(Severity::error), 0u)
        << lint.renderText();

    // Mode invariants.
    if (param.mode == RewriteMode::dir) {
        EXPECT_EQ(rw.stats.clonedTables, 0u);
    }
    if (param.mode != RewriteMode::dir &&
        rw.stats.clonedTables > 0) {
        // Cloning removed jump-table-target CFL blocks.
        RewriteOptions dir_opts = opts;
        dir_opts.mode = RewriteMode::dir;
        const RewriteResult dir_rw = rewriteBinary(img, dir_opts);
        EXPECT_LE(rw.stats.cflBlocks, dir_rw.stats.cflBlocks);
    }
}

INSTANTIATE_TEST_SUITE_P(FullMatrix, SuiteSweep,
                         ::testing::ValuesIn(allParams()), sweepName);
