/**
 * @file
 * Integration tests of the core rewriter: all three modes on all
 * three ISAs under the strong test (clobbered original bytes +
 * counting instrumentation), partial instrumentation, placement
 * ablation, the Go-specific behaviours (dir==jt, func-ptr-mode
 * failure, RA-translated GC unwinding), and inputs whose relocated
 * branches cannot be encoded.
 */

#include <gtest/gtest.h>

#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "crafted_sbf.hh"
#include "harness/verify.hh"
#include "rewrite/rewriter.hh"

using namespace icp;

namespace
{

struct ModeArch
{
    Arch arch;
    bool pie;
    RewriteMode mode;
};

class RewritePerModeArch : public ::testing::TestWithParam<ModeArch>
{
};

std::string
modeArchName(const ::testing::TestParamInfo<ModeArch> &info)
{
    std::string s;
    switch (info.param.arch) {
      case Arch::x64: s = "x64"; break;
      case Arch::ppc64le: s = "ppc64le"; break;
      case Arch::aarch64: s = "aarch64"; break;
    }
    s += info.param.pie ? "_pie_" : "_nopie_";
    switch (info.param.mode) {
      case RewriteMode::dir: s += "dir"; break;
      case RewriteMode::jt: s += "jt"; break;
      case RewriteMode::funcPtr: s += "funcptr"; break;
    }
    return s;
}

RewriteOptions
strongTestOptions(RewriteMode mode)
{
    RewriteOptions opts;
    opts.mode = mode;
    opts.clobberOriginal = true;
    opts.instrumentation.countFunctionEntries = true;
    opts.instrumentation.countBlocks = true;
    return opts;
}

} // namespace

TEST_P(RewritePerModeArch, MicroStrongTestPasses)
{
    const auto param = GetParam();
    const BinaryImage img =
        compileProgram(microProfile(param.arch, param.pie));
    const RewriteResult rw =
        rewriteBinary(img, strongTestOptions(param.mode));
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(rw.stats.instrumentedFunctions, 6u);
    EXPECT_GT(rw.stats.trampolines, 0u);

    const VerifyOutcome outcome =
        verifyRewrite(img, rw, Machine::Config{});
    EXPECT_TRUE(outcome.pass) << outcome.reason;
    EXPECT_GT(outcome.rewritten.exceptionsThrown, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RewritePerModeArch,
    ::testing::Values(
        ModeArch{Arch::x64, false, RewriteMode::dir},
        ModeArch{Arch::x64, false, RewriteMode::jt},
        ModeArch{Arch::x64, false, RewriteMode::funcPtr},
        ModeArch{Arch::x64, true, RewriteMode::dir},
        ModeArch{Arch::x64, true, RewriteMode::jt},
        ModeArch{Arch::x64, true, RewriteMode::funcPtr},
        ModeArch{Arch::ppc64le, false, RewriteMode::dir},
        ModeArch{Arch::ppc64le, false, RewriteMode::jt},
        ModeArch{Arch::ppc64le, false, RewriteMode::funcPtr},
        ModeArch{Arch::aarch64, false, RewriteMode::dir},
        ModeArch{Arch::aarch64, false, RewriteMode::jt},
        ModeArch{Arch::aarch64, false, RewriteMode::funcPtr}),
    modeArchName);

TEST(Rewrite, SizeGrowsAndRaMapEmitted)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const RewriteResult rw =
        rewriteBinary(img, strongTestOptions(RewriteMode::jt));
    ASSERT_TRUE(rw.ok);
    EXPECT_GT(rw.stats.rewrittenLoadedSize,
              rw.stats.originalLoadedSize);
    EXPECT_GT(rw.stats.raMapEntries, 0u);
    EXPECT_NE(rw.image.findSection(SectionKind::raMap), nullptr);
    EXPECT_NE(rw.image.findSection(SectionKind::trapMap), nullptr);
    EXPECT_NE(rw.image.findSection(SectionKind::instr), nullptr);
    // .eh_frame bytes untouched.
    EXPECT_EQ(rw.image.findSection(SectionKind::ehFrame)->bytes,
              img.findSection(SectionKind::ehFrame)->bytes);
}

TEST(Rewrite, JtModeClonesTables)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const RewriteResult dir =
        rewriteBinary(img, strongTestOptions(RewriteMode::dir));
    const RewriteResult jt =
        rewriteBinary(img, strongTestOptions(RewriteMode::jt));
    ASSERT_TRUE(dir.ok && jt.ok);
    EXPECT_EQ(dir.stats.clonedTables, 0u);
    EXPECT_GT(jt.stats.clonedTables, 0u);
    // Fewer CFL blocks in jt mode: table targets dropped.
    EXPECT_LT(jt.stats.cflBlocks, dir.stats.cflBlocks);
}

TEST(Rewrite, PlacementAblationInstallsEverywhere)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    RewriteOptions naive = strongTestOptions(RewriteMode::jt);
    naive.trampolinePlacement = false;
    const RewriteResult naive_rw = rewriteBinary(img, naive);
    const RewriteResult smart_rw =
        rewriteBinary(img, strongTestOptions(RewriteMode::jt));
    ASSERT_TRUE(naive_rw.ok && smart_rw.ok);
    EXPECT_GT(naive_rw.stats.trampolines, smart_rw.stats.trampolines);

    const VerifyOutcome outcome =
        verifyRewrite(img, naive_rw, Machine::Config{});
    EXPECT_TRUE(outcome.pass) << outcome.reason;
}

TEST(Rewrite, PartialInstrumentation)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    RewriteOptions opts = strongTestOptions(RewriteMode::jt);
    opts.onlyFunctions = {"switcher", "worker", "taken"};
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok);
    EXPECT_EQ(rw.stats.instrumentedFunctions, 3u);

    const VerifyOutcome outcome =
        verifyRewrite(img, rw, Machine::Config{});
    EXPECT_TRUE(outcome.pass) << outcome.reason;
}

TEST(RewriteGo, DirEqualsJtAndFuncPtrFails)
{
    const BinaryImage img = compileProgram(dockerProfile());
    Machine::Config cfg;
    cfg.goGcEveryCalls = 64;

    const RewriteResult jt =
        rewriteBinary(img, strongTestOptions(RewriteMode::jt));
    ASSERT_TRUE(jt.ok);
    EXPECT_EQ(jt.stats.clonedTables, 0u); // Go: no jump tables
    const VerifyOutcome jt_ok = verifyRewrite(img, jt, cfg);
    EXPECT_TRUE(jt_ok.pass) << jt_ok.reason;
    EXPECT_GT(jt_ok.rewritten.gcWalks, 0u);

    // func-ptr mode: the .vtab pointers stay unrewritten while
    // entry trampolines are still present, but the pcdata start
    // pointers get rewritten, breaking findfunc — the strong test
    // must catch a failure, as the paper's Docker run did.
    const RewriteResult fp =
        rewriteBinary(img, strongTestOptions(RewriteMode::funcPtr));
    ASSERT_TRUE(fp.ok);
    const VerifyOutcome fp_out = verifyRewrite(img, fp, cfg);
    EXPECT_FALSE(fp_out.pass);
}

TEST(RewriteGo, PlusOnePointerHandledInJtMode)
{
    // The Listing-1 pattern must work in jt mode (entry trampolines
    // cover it) — the call lands at goexit+1 in original space,
    // which is NOT a trampoline... it must therefore be covered by
    // func-entry handling: the +1 target falls inside the entry
    // trampoline's block. The strong test validates the behaviour.
    const BinaryImage img = compileProgram(dockerProfile());
    const RewriteResult rw =
        rewriteBinary(img, strongTestOptions(RewriteMode::jt));
    ASSERT_TRUE(rw.ok);
    const VerifyOutcome outcome =
        verifyRewrite(img, rw, Machine::Config{});
    EXPECT_TRUE(outcome.pass) << outcome.reason;
}

TEST(RewriteReach, UnclonableTableFailsNamingIt)
{
    // A jump table whose cloned entries cannot be encoded against the
    // relocated code fails the rewrite naming the table, instead of
    // aborting in Engine::cloneBytes.
    for (SbfDefect defect : unclonable_sbf_defects) {
        SCOPED_TRACE(sbfDefectName(defect));
        std::vector<SbfIssue> issues;
        const auto img = BinaryImage::tryDeserialize(
            craftSbf(Arch::aarch64, defect), issues);
        ASSERT_TRUE(img.has_value());
        for (RewriteMode mode : {RewriteMode::jt, RewriteMode::funcPtr}) {
            RewriteOptions opts;
            opts.mode = mode;
            opts.useAnalysisCache = false;
            const RewriteResult rw = rewriteBinary(*img, opts);
            EXPECT_FALSE(rw.ok);
            EXPECT_NE(rw.failReason.find("cannot clone the jump table"),
                      std::string::npos)
                << rw.failReason;
        }
    }
}

TEST(RewriteReach, UnencodableBranchFailsNamingIt)
{
    // A branch from .instr back to original code beyond its encoding's
    // reach fails the rewrite with the branch named, instead of
    // aborting in the assembler. x86-64 reaches the far fall-through.
    for (Arch arch : all_arches) {
        for (SbfDefect defect : unencodable_sbf_defects) {
            SCOPED_TRACE(std::string(archName(arch)) + " " +
                         sbfDefectName(defect));
            std::vector<SbfIssue> issues;
            const auto img =
                BinaryImage::tryDeserialize(craftSbf(arch, defect), issues);
            ASSERT_TRUE(img.has_value());
            const bool fails = defect == SbfDefect::wrappedBranch ||
                               arch != Arch::x64;
            for (RewriteMode mode : {RewriteMode::jt, RewriteMode::funcPtr}) {
                RewriteOptions opts;
                opts.mode = mode;
                opts.useAnalysisCache = false;
                const RewriteResult rw = rewriteBinary(*img, opts);
                EXPECT_EQ(rw.ok, !fails) << rw.failReason;
                if (fails) {
                    EXPECT_NE(rw.failReason.find("beyond its reach"),
                              std::string::npos)
                        << rw.failReason;
                }
            }
        }
    }
}
