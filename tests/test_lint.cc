/**
 * @file
 * Tests for the static soundness verifier: the standard corpus must
 * lint clean for every ISA × mode × placement/multi-hop knob combo,
 * and each fault-injection defect must trip exactly the lint rule
 * the manifest records — the verifier's self test.
 */

#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

BinaryImage
compileMicro(Arch arch, bool pie = true)
{
    return compileProgram(microProfile(arch, pie));
}

/** Errors only; tramp-trap warnings are expected on tight configs. */
unsigned
errorCount(const LintReport &rep)
{
    return rep.countAtLeast(Severity::error);
}

} // namespace

// --- lint-clean matrix ----------------------------------------------------

struct CleanParam
{
    Arch arch;
    RewriteMode mode;
};

class LintClean : public ::testing::TestWithParam<CleanParam>
{
};

std::string
cleanName(const ::testing::TestParamInfo<CleanParam> &info)
{
    std::string s = std::string(archName(info.param.arch)) + "_" +
                    rewriteModeName(info.param.mode);
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

TEST_P(LintClean, StandardCorpusIsClean)
{
    const auto [arch, mode] = GetParam();
    const BinaryImage img = compileMicro(arch);
    for (const bool placement : {true, false}) {
        for (const bool multihop : {true, false}) {
            RewriteOptions opts;
            opts.mode = mode;
            opts.trampolinePlacement = placement;
            opts.multiHop = multihop;
            opts.instrumentation.countBlocks = true;
            const RewriteResult rw = rewriteBinary(img, opts);
            ASSERT_TRUE(rw.ok) << rw.failReason;
            ASSERT_TRUE(rw.manifest.populated);
            const LintReport rep = lintRewrite(img, rw);
            EXPECT_EQ(errorCount(rep), 0u)
                << "placement=" << placement
                << " multihop=" << multihop << "\n"
                << rep.renderText();
            EXPECT_GT(rep.checkedTrampolines, 0u);
        }
    }
}

TEST_P(LintClean, SpecWorkloadIsClean)
{
    const auto [arch, mode] = GetParam();
    const auto suite = specCpuSuite(arch, false);
    const BinaryImage img = compileProgram(suite[3]);
    RewriteOptions opts;
    opts.mode = mode;
    opts.clobberOriginal = true;
    opts.instrumentation.countFunctionEntries = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok) << rw.failReason;
    const LintReport rep = lintRewrite(img, rw);
    EXPECT_EQ(errorCount(rep), 0u) << rep.renderText();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LintClean,
    ::testing::Values(
        CleanParam{Arch::x64, RewriteMode::dir},
        CleanParam{Arch::x64, RewriteMode::jt},
        CleanParam{Arch::x64, RewriteMode::funcPtr},
        CleanParam{Arch::ppc64le, RewriteMode::dir},
        CleanParam{Arch::ppc64le, RewriteMode::jt},
        CleanParam{Arch::ppc64le, RewriteMode::funcPtr},
        CleanParam{Arch::aarch64, RewriteMode::dir},
        CleanParam{Arch::aarch64, RewriteMode::jt},
        CleanParam{Arch::aarch64, RewriteMode::funcPtr}),
    cleanName);

// --- fault injection: each defect trips exactly its rule ------------------

struct InjectParam
{
    Arch arch;
    InjectDefect defect;
};

class LintInjection : public ::testing::TestWithParam<InjectParam>
{
};

std::string
injectName(const ::testing::TestParamInfo<InjectParam> &info)
{
    std::string s = archName(info.param.arch);
    for (char &c : s)
        if (c == '-')
            c = '_';
    std::string d = injectDefectName(info.param.defect);
    for (char &c : d)
        if (c == '-')
            c = '_';
    return s + "_" + d;
}

TEST_P(LintInjection, DefectTripsExactlyItsRule)
{
    const auto [arch, defect] = GetParam();
    const BinaryImage img = compileMicro(arch);
    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.instrumentation.countBlocks = true;
    opts.injectDefect = defect;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok) << rw.failReason;

    if (rw.manifest.injectedRule.empty())
        GTEST_SKIP() << "defect " << injectDefectName(defect)
                     << " not applicable on " << archName(arch);

    const LintReport rep = lintRewrite(img, rw);
    if (defect == InjectDefect::depOverbroad) {
        // Overbroad read-sets are an efficiency smell, not a
        // soundness hole: the rule reports at warning severity and
        // must not be drowned out by (or promoted to) errors.
        EXPECT_EQ(errorCount(rep), 0u) << rep.renderText();
        bool fired = false;
        for (const Diagnostic &d : rep.findings)
            fired |= d.rule == rw.manifest.injectedRule &&
                     d.severity == Severity::warning;
        EXPECT_TRUE(fired)
            << "planted defect went undetected: "
            << rw.manifest.injectedRule << "\n"
            << rep.renderText();
    } else {
        EXPECT_GE(errorCount(rep), 1u)
            << "planted defect went undetected: "
            << rw.manifest.injectedRule;
        for (const Diagnostic &d : rep.findings) {
            if (d.severity < Severity::error)
                continue;
            EXPECT_EQ(d.rule, rw.manifest.injectedRule)
                << "defect " << injectDefectName(defect)
                << " tripped a different rule:\n"
                << rep.renderText();
        }
    }

    // The same config without injection is clean — the finding is
    // attributable to the planted defect alone.
    opts.injectDefect = InjectDefect::none;
    const RewriteResult clean_rw = rewriteBinary(img, opts);
    ASSERT_TRUE(clean_rw.ok);
    EXPECT_EQ(errorCount(lintRewrite(img, clean_rw)), 0u);
}

std::vector<InjectParam>
allInjections()
{
    std::vector<InjectParam> params;
    for (Arch arch : all_arches) {
        for (auto d = static_cast<unsigned>(InjectDefect::trampTarget);
             d <= static_cast<unsigned>(InjectDefect::depOverbroad);
             ++d)
            params.push_back({arch, static_cast<InjectDefect>(d)});
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(AllDefects, LintInjection,
                         ::testing::ValuesIn(allInjections()),
                         injectName);

// --- injection applicability ----------------------------------------------

TEST(LintInjectionCoverage, EveryDefectFiresOnSomeArch)
{
    // Each defect must be plantable on at least one ISA, so every
    // rule's detection path is genuinely exercised by the matrix.
    for (auto d = static_cast<unsigned>(InjectDefect::trampTarget);
         d <= static_cast<unsigned>(InjectDefect::depOverbroad);
         ++d) {
        const auto defect = static_cast<InjectDefect>(d);
        bool fired = false;
        for (Arch arch : all_arches) {
            RewriteOptions opts;
            opts.mode = RewriteMode::funcPtr;
            opts.instrumentation.countBlocks = true;
            opts.injectDefect = defect;
            const RewriteResult rw =
                rewriteBinary(compileMicro(arch), opts);
            ASSERT_TRUE(rw.ok);
            fired |= !rw.manifest.injectedRule.empty();
        }
        EXPECT_TRUE(fired) << "defect " << injectDefectName(defect)
                           << " never applicable";
    }
}

// --- addr-map-round-trip over the manifest maps ---------------------------

namespace
{

std::string
hexAddr(Addr a)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

/** A clean rewrite whose manifest maps each test corrupts. */
class LintAddrMaps : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RewriteOptions opts;
        opts.mode = RewriteMode::funcPtr;
        opts.instrumentation.countBlocks = true;
        rw_ = rewriteBinary(img_, opts);
        ASSERT_TRUE(rw_.ok) << rw_.failReason;
        ASSERT_EQ(errorCount(lintRewrite(img_, rw_)), 0u);
    }

    /**
     * Instruction-map indices that start no block: retargeting one
     * moves no trampoline chain's or clone entry's destination.
     */
    std::vector<std::size_t>
    midBlockInsns() const
    {
        std::vector<std::size_t> out;
        const RewriteManifest &m = rw_.manifest;
        for (std::size_t i = 0; i < m.insnMap.size(); ++i)
            if (!flatLookup(m.blockMap, m.insnMap[i].first))
                out.push_back(i);
        return out;
    }

    /**
     * Block-map indices that no cloned table names and no trampoline
     * targets: a block's relocated start (its counter, with
     * instrumentation) need not be an instruction-map target.
     */
    std::vector<std::size_t>
    unreferencedBlocks() const
    {
        const RewriteManifest &m = rw_.manifest;
        std::set<Addr> named;
        std::set<Addr> landings;
        for (const JumpTableClonePatch &c : m.clones) {
            named.insert(c.origTargets.begin(), c.origTargets.end());
            if (c.origBase)
                named.insert(*c.origBase);
        }
        for (const TrampolinePatch &p : m.trampolines)
            landings.insert(p.target);
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < m.blockMap.size(); ++i)
            if (!named.count(m.blockMap[i].first) &&
                !landings.count(m.blockMap[i].second))
                out.push_back(i);
        return out;
    }

    /** Lint the corrupted result; it must hold exactly one error. */
    Diagnostic
    onlyError() const
    {
        const LintReport rep = lintRewrite(img_, rw_);
        std::vector<Diagnostic> errors;
        for (const Diagnostic &d : rep.findings)
            if (d.severity >= Severity::error)
                errors.push_back(d);
        EXPECT_EQ(errors.size(), 1u) << rep.renderText();
        if (errors.empty())
            return {};
        EXPECT_EQ(errors[0].rule, "addr-map-round-trip");
        return errors[0];
    }

    const BinaryImage img_ = compileMicro(Arch::x64);
    RewriteResult rw_;
};

} // namespace

TEST_F(LintAddrMaps, RepeatedInsnTargetIsNotInjective)
{
    AddrPairs &map = rw_.manifest.insnMap;
    const std::vector<std::size_t> mid = midBlockInsns();
    ASSERT_GE(mid.size(), 5u);

    // Three repeats: the earliest in original-address order (b) is
    // reported; the other two's targets sort before and after it.
    const std::size_t n = mid.size();
    const std::size_t a = mid[n / 5];
    const std::size_t b = mid[2 * n / 5];
    const std::size_t c = mid[3 * n / 5];
    const std::size_t d = mid[4 * n / 5];
    map[b].second = map[a].second;
    map[d].second = map[c].second;
    map[mid.back()].second = map.front().second;

    const Diagnostic err = onlyError();
    EXPECT_EQ(err.origAddr, map[b].first);
    EXPECT_EQ(err.newAddr, map[a].second);
    EXPECT_EQ(err.message,
              "instruction map is not injective: " +
                  hexAddr(map[a].first) + " and " +
                  hexAddr(map[b].first) + " both map to " +
                  hexAddr(map[a].second));
}

TEST_F(LintAddrMaps, BlockTargetOutsideInstr)
{
    AddrPairs &map = rw_.manifest.blockMap;
    const std::vector<std::size_t> blocks = unreferencedBlocks();
    ASSERT_FALSE(blocks.empty());

    // The original address itself lies in .text, not .instr.
    const std::size_t k = blocks[blocks.size() / 2];
    map[k].second = map[k].first;

    const Diagnostic d = onlyError();
    EXPECT_EQ(d.origAddr, map[k].first);
    EXPECT_EQ(d.message, "block map sends " + hexAddr(map[k].first) +
                             " to " + hexAddr(map[k].first) +
                             ", outside .instr");
}

TEST_F(LintAddrMaps, EarlierOutsideEntryWinsOverLaterRepeat)
{
    AddrPairs &map = rw_.manifest.blockMap;
    const std::vector<std::size_t> blocks = unreferencedBlocks();
    ASSERT_GE(blocks.size(), 3u);

    const std::size_t outside = blocks[blocks.size() / 4];
    const std::size_t first = blocks[blocks.size() / 2];
    const std::size_t repeat = blocks.back();
    map[outside].second = map[outside].first;
    map[repeat].second = map[first].second;

    const Diagnostic d = onlyError();
    EXPECT_EQ(d.origAddr, map[outside].first);
    EXPECT_EQ(d.message, "block map sends " +
                             hexAddr(map[outside].first) + " to " +
                             hexAddr(map[outside].first) +
                             ", outside .instr");
}

/**
 * An addr-map-round-trip finding names the function that holds the
 * map key, but it comes from an image-global rule. relint(), which
 * repair's re-lint and the session's post-edit lint share, must
 * re-run that rule when it re-checks the function, not drop the
 * finding with the function's own ones; a function-rule finding of a
 * function it does not re-check is carried as it was.
 */
TEST_F(LintAddrMaps, RelintRerunsGlobalRulesAndCarriesTheRest)
{
    const LintReport clean = lintRewrite(img_, rw_);
    AddrPairs &map = rw_.manifest.blockMap;
    const std::vector<std::size_t> blocks = unreferencedBlocks();
    ASSERT_FALSE(blocks.empty());
    const std::size_t k = blocks[blocks.size() / 2];
    const Addr target = map[k].second;
    map[k].second = map[k].first;
    const Symbol *owner = img_.functionContaining(map[k].first);
    ASSERT_NE(owner, nullptr);

    LintReport planted = lintRewrite(img_, rw_);
    const Diagnostic err = onlyError();
    EXPECT_EQ(err.function, owner->name);
    EXPECT_TRUE(isFunctionRule("tramp-trap"));
    EXPECT_FALSE(isFunctionRule(err.rule));

    // A carried function-rule finding of another function (its
    // unknown addresses sort it last, as the merge expects).
    const Symbol *other = nullptr;
    for (const Symbol *sym : img_.functionSymbols())
        if (sym->addr != owner->addr)
            other = sym;
    ASSERT_NE(other, nullptr);
    Diagnostic kept;
    kept.rule = "tramp-trap";
    kept.severity = Severity::warning;
    kept.function = other->name;
    kept.funcEntry = other->addr;
    planted.findings.push_back(kept);

    // Re-checking the owner re-runs the map rule: still broken, the
    // error stays; the other function's finding is carried.
    const LintReport again = relint(img_, rw_, planted, {owner->addr});
    EXPECT_TRUE(again.findings == planted.findings) << again.renderText();
    ASSERT_TRUE(again.relintedFunctions.has_value());
    EXPECT_EQ(*again.relintedFunctions, 1u);

    // Mended, the re-check clears it; re-checking the other function
    // too drops its stale finding.
    map[k].second = target;
    const LintReport mended =
        relint(img_, rw_, planted, {owner->addr, other->addr});
    EXPECT_TRUE(mended.findings == clean.findings) << mended.renderText();
    // An empty set re-checks no function but every global rule.
    const LintReport globals = relint(img_, rw_, planted, {});
    EXPECT_EQ(globals.countAtLeast(Severity::error), 0u);
    EXPECT_EQ(globals.findings.size(), clean.findings.size() + 1);
    EXPECT_EQ(globals.checkedTrampolines, 0u);
}

// --- severity model and fail-on thresholds --------------------------------

TEST(LintSeverity, TrapTrampolinesAreWarningsNotErrors)
{
    // SRBI-style placement without multi-hop forces trap fallbacks
    // on x64: blocks shorter than the 5-byte near branch cannot
    // reach .instr with the 2-byte short form.
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.trampolinePlacement = false;
    opts.multiHop = false;
    opts.instrumentation.countBlocks = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok) << rw.failReason;
    if (rw.stats.trapTramps == 0)
        GTEST_SKIP() << "config produced no trap trampolines";

    const LintReport rep = lintRewrite(img, rw);
    EXPECT_EQ(rep.countAtLeast(Severity::error), 0u)
        << rep.renderText();
    EXPECT_GE(rep.countAtLeast(Severity::warning),
              rw.stats.trapTramps);
    EXPECT_FALSE(rep.failed(Severity::error));
    EXPECT_TRUE(rep.failed(Severity::warning));
    EXPECT_FALSE(rep.clean());
}

TEST(LintSeverity, ParseAndName)
{
    EXPECT_EQ(parseSeverity("error"), Severity::error);
    EXPECT_EQ(parseSeverity("warning"), Severity::warning);
    EXPECT_EQ(parseSeverity("info"), Severity::info);
    EXPECT_FALSE(parseSeverity("fatal").has_value());
    EXPECT_STREQ(severityName(Severity::warning), "warning");
}

// --- report plumbing ------------------------------------------------------

TEST(LintReportTest, ManifestOffYieldsSingleFinding)
{
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteOptions opts;
    opts.lint = false;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok);
    EXPECT_FALSE(rw.manifest.populated);
    const LintReport rep = lintRewrite(img, rw);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].rule, "lint-manifest");
}

TEST(LintReportTest, FailedRewriteYieldsLintInput)
{
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteOptions opts;
    // Reachability pruning under byte clobbering is rejected.
    opts.reachabilityPruning = true;
    opts.clobberOriginal = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_FALSE(rw.ok);
    const LintReport rep = lintRewrite(img, rw);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].rule, "lint-input");
}

TEST(LintReportTest, RendersTextAndJson)
{
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.injectDefect = InjectDefect::doublePatch;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok);
    const LintReport rep = lintRewrite(img, rw);
    ASSERT_FALSE(rep.clean());

    const std::string text = rep.renderText();
    EXPECT_NE(text.find("patch-overlap"), std::string::npos);
    EXPECT_NE(text.find("lint: FAIL"), std::string::npos);

    const std::string json = rep.renderJson();
    EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"patch-overlap\""),
              std::string::npos);
    EXPECT_NE(json.find("\"checked\""), std::string::npos);
}

TEST(LintReportTest, SbfIssuesConvertToDiagnostics)
{
    std::vector<SbfIssue> issues = {
        {"sbf-magic", 0, "container does not start with SBF1"},
        {"sbf-truncated", 17, "section payload runs past end"},
    };
    const auto diags = diagnosticsFromSbfIssues(issues);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "sbf-magic");
    EXPECT_EQ(diags[0].severity, Severity::error);
    EXPECT_NE(diags[1].message.find("offset 17"), std::string::npos);
}

TEST(LintReportTest, RuleRegistryCoversEmittedRules)
{
    std::set<std::string> registered;
    for (const LintRuleInfo &r : lintRules())
        registered.insert(r.id);
    // Every rule the fault injector can name is registered.
    for (auto d = static_cast<unsigned>(InjectDefect::trampTarget);
         d <= static_cast<unsigned>(InjectDefect::depOverbroad);
         ++d) {
        for (Arch arch : all_arches) {
            RewriteOptions opts;
            opts.mode = RewriteMode::funcPtr;
            opts.injectDefect = static_cast<InjectDefect>(d);
            const RewriteResult rw =
                rewriteBinary(compileMicro(arch), opts);
            if (!rw.manifest.injectedRule.empty()) {
                EXPECT_TRUE(
                    registered.count(rw.manifest.injectedRule))
                    << rw.manifest.injectedRule;
            }
        }
    }
}
