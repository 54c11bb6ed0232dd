/**
 * @file
 * Tests for the stateful RewriteSession API: the rewrite -> lint ->
 * repair loop must fix (or trap-demote) every function-local injected
 * defect within two repair iterations on all three ISAs, re-rewriting
 * only the defective function, re-linting without rebuilding the
 * original CFG, and producing a final image that is byte-identical
 * across thread counts — and identical to a defect-free rewrite.
 */

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/cache.hh"
#include "analysis/datadeps.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/session.hh"
#include "support/file_io.hh"
#include "support/stats.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

BinaryImage
compileMicro(Arch arch, bool pie = true)
{
    return compileProgram(microProfile(arch, pie));
}

unsigned
errorCount(const LintReport &rep)
{
    return rep.countAtLeast(Severity::error);
}

RewriteOptions
baseOptions(InjectDefect defect = InjectDefect::none)
{
    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.instrumentation.countBlocks = true;
    opts.injectDefect = defect;
    return opts;
}

std::string
sanitize(std::string s)
{
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

} // namespace

// --- basic lifecycle ------------------------------------------------------

TEST(RewriteSession, AnalyzeRewriteLintLifecycle)
{
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteSession session(img);

    const CfgModule &cfg = session.analyze();
    EXPECT_FALSE(cfg.functions.empty());
    EXPECT_FALSE(session.hasResult());

    const RewriteResult &rw = session.rewrite(baseOptions());
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_TRUE(session.hasResult());
    // A from-scratch rewrite emits everything and reuses nothing.
    EXPECT_EQ(rw.stats.relocReusedFunctions, 0u);
    EXPECT_EQ(rw.stats.relocEmittedFunctions,
              rw.stats.instrumentedFunctions);
    EXPECT_FALSE(rw.manifest.funcSpans.empty());

    const LintReport &rep = session.lint();
    EXPECT_EQ(errorCount(rep), 0u) << rep.renderText();
    // The session supplied its cached CFG; the verifier never
    // rebuilt the original analysis.
    EXPECT_FALSE(rep.rebuiltOriginalCfg);
}

TEST(RewriteSession, ThinWrapperMatchesSession)
{
    const BinaryImage img = compileMicro(Arch::aarch64);
    const RewriteResult via_free = rewriteBinary(img, baseOptions());
    RewriteSession session(img);
    const RewriteResult &via_session = session.rewrite(baseOptions());
    ASSERT_TRUE(via_free.ok);
    ASSERT_TRUE(via_session.ok);
    EXPECT_EQ(via_free.image.serialize(),
              via_session.image.serialize());
}

// --- repair convergence matrix: arch x function-local defect --------------

struct RepairParam
{
    Arch arch;
    InjectDefect defect;
};

class SessionRepair : public ::testing::TestWithParam<RepairParam>
{
};

std::string
repairName(const ::testing::TestParamInfo<RepairParam> &info)
{
    return sanitize(std::string(archName(info.param.arch)) + "_" +
                    injectDefectName(info.param.defect));
}

TEST_P(SessionRepair, ConvergesWithinTwoIterations)
{
    const auto [arch, defect] = GetParam();
    const BinaryImage img = compileMicro(arch);

    RewriteSession session(img);
    const RewriteResult &rw = session.rewrite(baseOptions(defect));
    ASSERT_TRUE(rw.ok) << rw.failReason;
    if (rw.manifest.injectedRule.empty())
        GTEST_SKIP() << "defect " << injectDefectName(defect)
                     << " not applicable on " << archName(arch);

    const LintReport &before = session.lint();
    ASSERT_GE(errorCount(before), 1u)
        << "planted defect went undetected";

    const auto outcome = session.repairToFixedPoint(2);
    EXPECT_TRUE(outcome.converged)
        << session.lastReport().renderText();
    EXPECT_EQ(errorCount(session.lastReport()), 0u)
        << session.lastReport().renderText();
    EXPECT_GE(outcome.iterations, 1u);
    EXPECT_LE(outcome.iterations, 2u);
    // One pass clears a transient defect; nothing gets demoted.
    EXPECT_TRUE(outcome.demotedFunctions.empty());

    const RewriteStats &stats = session.lastResult().stats;
    if (!outcome.fullRewriteFallback) {
        // Selective re-rewrite: only the defective functions were
        // re-emitted; everything else was spliced from the previous
        // pass's bytes.
        EXPECT_FALSE(outcome.repairedFunctions.empty());
        EXPECT_EQ(stats.relocEmittedFunctions,
                  outcome.repairedFunctions.size());
        EXPECT_GT(stats.relocReusedFunctions, 0u);
        // The incremental re-lint ran against the session's cached
        // CFG, never the verifier's lazy rebuild.
        EXPECT_FALSE(session.lastReport().rebuiltOriginalCfg);
    }

    // The repaired image is exactly what a defect-free rewrite
    // produces: splicing reused bytes loses nothing.
    RewriteSession clean(img);
    const RewriteResult &clean_rw = clean.rewrite(baseOptions());
    ASSERT_TRUE(clean_rw.ok);
    EXPECT_EQ(session.lastResult().image.serialize(),
              clean_rw.image.serialize())
        << "repaired image diverges from a clean rewrite";
}

std::vector<RepairParam>
functionLocalDefects()
{
    // raMapEntry and cloneBounds corrupt whole sections rather than a
    // function-local site; raMapEntry is covered by the fallback test
    // below.
    static const InjectDefect defects[] = {
        InjectDefect::trampTarget,    InjectDefect::trampRange,
        InjectDefect::trampChain,     InjectDefect::liveScratch,
        InjectDefect::tocScratch,     InjectDefect::staleCloneEntry,
        InjectDefect::doublePatch,    InjectDefect::dropFde,
        InjectDefect::funcPtrStale,
    };
    std::vector<RepairParam> params;
    for (Arch arch : all_arches)
        for (InjectDefect d : defects)
            params.push_back({arch, d});
    return params;
}

INSTANTIATE_TEST_SUITE_P(FunctionLocalDefects, SessionRepair,
                         ::testing::ValuesIn(functionLocalDefects()),
                         repairName);

// --- unattributable findings fall back to a full re-rewrite ---------------

TEST(SessionRepairFallback, RaMapDefectTriggersFullRewrite)
{
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteSession session(img);
    const RewriteResult &rw =
        session.rewrite(baseOptions(InjectDefect::raMapEntry));
    ASSERT_TRUE(rw.ok);
    if (rw.manifest.injectedRule.empty())
        GTEST_SKIP() << "raMapEntry not applicable";
    ASSERT_GE(errorCount(session.lint()), 1u);

    const auto outcome = session.repairToFixedPoint(2);
    EXPECT_TRUE(outcome.converged)
        << session.lastReport().renderText();
    EXPECT_TRUE(outcome.fullRewriteFallback);
    // The fallback pass re-emits everything.
    EXPECT_EQ(session.lastResult().stats.relocReusedFunctions, 0u);
}

TEST(SessionRepairCacheFile, RepairMapsTheCacheFileOnce)
{
    // The session merges its cache file once, before the CFG build;
    // a repair pass must not map the file again.
    const BinaryImage img = compileMicro(Arch::x64);
    const std::string path = "/tmp/icp_test_session_repair.icpc";
    std::remove(path.c_str());
    RewriteOptions opts = baseOptions();
    opts.cachePath = path;
    ASSERT_TRUE(rewriteBinary(img, opts).ok);
    std::vector<std::uint8_t> file;
    ASSERT_TRUE(readFile(path, file));

    const auto mapped = [] {
        return Metrics::global().counters().at("cache.bytes_mapped");
    };
    const std::uint64_t before = mapped();
    opts.injectDefect = InjectDefect::trampTarget;
    RewriteSession session(img);
    ASSERT_TRUE(session.rewrite(opts).ok);
    ASSERT_GE(errorCount(session.lint()), 1u);
    EXPECT_TRUE(session.repairToFixedPoint(2).converged);
    EXPECT_EQ(mapped() - before, file.size());
    std::remove(path.c_str());
}

// --- persistent defects: trap demotion contains the function --------------

class SessionDemotion : public ::testing::TestWithParam<RepairParam>
{
};

TEST_P(SessionDemotion, PersistentDefectIsTrapDemoted)
{
    const auto [arch, defect] = GetParam();
    const BinaryImage img = compileMicro(arch);

    // First find a victim function the defect applies to.
    RewriteSession session(img);
    const RewriteResult &probe = session.rewrite(baseOptions(defect));
    ASSERT_TRUE(probe.ok);
    if (probe.manifest.injectedRule.empty())
        GTEST_SKIP() << "defect " << injectDefectName(defect)
                     << " not applicable on " << archName(arch);
    std::string victim;
    for (const Diagnostic &d : session.lint().findings) {
        if (d.severity >= Severity::error && !d.function.empty()) {
            victim = d.function;
            break;
        }
    }
    ASSERT_FALSE(victim.empty());

    // Re-plant the defect restricted to the victim and keep it
    // planted across repairs: only trap demotion can converge.
    RewriteOptions opts = baseOptions(defect);
    opts.injectOnlyFunction = victim;
    const RewriteResult &rw = session.rewrite(opts);
    ASSERT_TRUE(rw.ok);
    if (rw.manifest.injectedRule.empty())
        GTEST_SKIP() << "defect not plantable when restricted to "
                     << victim;
    ASSERT_GE(errorCount(session.lint()), 1u);

    RewriteSession::RepairPolicy policy;
    policy.clearInjectedDefect = false;
    const auto outcome = session.repairToFixedPoint(2, policy);
    EXPECT_TRUE(outcome.converged)
        << session.lastReport().renderText();
    EXPECT_EQ(errorCount(session.lastReport()), 0u);
    EXPECT_EQ(outcome.iterations, 2u);
    ASSERT_EQ(outcome.demotedFunctions.size(), 1u);
    EXPECT_EQ(*outcome.demotedFunctions.begin(), victim);
    // The demoted function runs on always-sound trap trampolines.
    EXPECT_GT(session.lastResult().stats.trapTramps, 0u);
    EXPECT_EQ(session.options().forceTrapFunctions.count(victim), 1u);
}

std::vector<RepairParam>
persistentDefects()
{
    // Byte defects on direct trampolines: plantable on every ISA and
    // neutralized by trap demotion (traps are not direct branches).
    std::vector<RepairParam> params;
    for (Arch arch : all_arches) {
        params.push_back({arch, InjectDefect::trampTarget});
        params.push_back({arch, InjectDefect::trampChain});
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(PersistentDefects, SessionDemotion,
                         ::testing::ValuesIn(persistentDefects()),
                         repairName);

// --- determinism across thread counts -------------------------------------

TEST(SessionDeterminism, RepairedImageIdenticalAcrossThreads)
{
    for (Arch arch : all_arches) {
        const BinaryImage img = compileMicro(arch);
        std::vector<std::uint8_t> first;
        std::string first_report;
        for (const unsigned threads : {1u, 4u}) {
            RewriteOptions opts =
                baseOptions(InjectDefect::trampTarget);
            opts.threads = threads;
            RewriteSession session(img);
            const RewriteResult &rw = session.rewrite(opts);
            ASSERT_TRUE(rw.ok);
            if (rw.manifest.injectedRule.empty())
                break; // defect not applicable on this arch
            LintOptions lopts;
            lopts.threads = threads;
            session.lint(lopts);
            const auto outcome = session.repairToFixedPoint(2);
            ASSERT_TRUE(outcome.converged);
            const auto bytes = session.lastResult().image.serialize();
            const std::string report =
                session.lastReport().renderText();
            if (threads == 1) {
                first = bytes;
                first_report = report;
            } else {
                EXPECT_EQ(first, bytes)
                    << archName(arch)
                    << ": repaired image differs across threads";
                EXPECT_EQ(first_report, report) << archName(arch);
            }
        }
    }
}

// --- lint report diffing ---------------------------------------------------

namespace
{

Diagnostic
mkDiag(const char *rule, Severity sev, const std::string &func)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.function = func;
    d.message = "synthetic";
    return d;
}

} // namespace

TEST(LintDiffTest, RegressionsAndResolutionsPerFunction)
{
    LintReport before;
    before.findings.push_back(
        mkDiag("tramp-target", Severity::error, "f1"));
    before.findings.push_back(
        mkDiag("tramp-trap", Severity::warning, "f2"));

    LintReport after;
    after.findings.push_back(
        mkDiag("tramp-trap", Severity::warning, "f2"));
    after.findings.push_back(
        mkDiag("tramp-trap", Severity::warning, "f2"));
    after.findings.push_back(
        mkDiag("jt-clone-target", Severity::error, "f3"));

    const LintDiff diff = diffReports(before, after);
    EXPECT_EQ(diff.newErrors, 1u);   // f3's clone error
    EXPECT_EQ(diff.newWarnings, 1u); // f2's second trap warning
    EXPECT_EQ(diff.resolvedErrors, 1u); // f1's target error
    EXPECT_EQ(diff.resolvedWarnings, 0u);
    EXPECT_TRUE(diff.hasRegressions(Severity::error));

    // Per-function grouping covers every touched function.
    std::set<std::string> funcs;
    for (const auto &fd : diff.functions)
        funcs.insert(fd.function);
    EXPECT_EQ(funcs, (std::set<std::string>{"f1", "f2", "f3"}));

    const std::string text = diff.renderText();
    EXPECT_NE(text.find("lint-diff: 2 new"), std::string::npos)
        << text;
    const std::string json = diff.renderJson();
    EXPECT_NE(json.find("\"new_errors\": 1"), std::string::npos)
        << json;
}

TEST(LintDiffTest, IdenticalReportsDiffEmpty)
{
    LintReport rep;
    rep.findings.push_back(
        mkDiag("tramp-trap", Severity::warning, "f1"));
    const LintDiff diff = diffReports(rep, rep);
    EXPECT_TRUE(diff.functions.empty());
    EXPECT_FALSE(diff.hasRegressions(Severity::info));
    EXPECT_EQ(diff.newWarnings + diff.resolvedWarnings, 0u);
}

// --- loadInput: input-diff dirty seeding ----------------------------------

namespace
{

/**
 * Deterministically mutate one instruction immediate in place (same
 * encoded length) inside some function of @p img, returning the
 * victim's name. The micro profile is deterministic, so calling this
 * on two separately compiled copies yields identical images.
 */
std::string
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
                    enc.size() == in.length) {
                    EXPECT_TRUE(img.writeBytes(addr, enc));
                    return sym->name;
                }
            }
            off += in.length;
            addr += in.length;
        }
    }
    return "";
}

} // namespace

class SessionLoadInput : public ::testing::TestWithParam<Arch>
{
};

TEST_P(SessionLoadInput, UnchangedInputKeepsPreviousResult)
{
    const Arch arch = GetParam();
    AnalysisCache::global().clear();
    RewriteSession session(compileMicro(arch));
    const RewriteResult &first = session.rewrite(baseOptions());
    ASSERT_TRUE(first.ok) << first.failReason;
    const std::vector<std::uint8_t> bytes = first.image.serialize();

    // A byte-identical new build: nothing is dirty, the previous
    // result stands untouched.
    const auto out = session.loadInput(compileMicro(arch));
    EXPECT_TRUE(out.incremental);
    EXPECT_TRUE(out.dirtyFunctions.empty());
    EXPECT_GT(out.unchangedFunctions, 0u);
    ASSERT_TRUE(session.hasResult());
    EXPECT_EQ(session.lastResult().image.serialize(), bytes);
}

TEST_P(SessionLoadInput, OneFunctionEditReanalyzesOnlyThatFunction)
{
    const Arch arch = GetParam();
    AnalysisCache::global().clear();

    RewriteSession session(compileMicro(arch));
    const RewriteResult &first = session.rewrite(baseOptions());
    ASSERT_TRUE(first.ok) << first.failReason;
    const unsigned instrumented = first.stats.instrumentedFunctions;
    const std::size_t total =
        session.input().functionSymbols().size();

    BinaryImage edited = compileMicro(arch);
    const std::string victim = mutateOneImmediate(edited);
    ASSERT_FALSE(victim.empty())
        << "no in-place-mutable immediate found";

    const auto pre = AnalysisCache::global().stats();
    const auto out = session.loadInput(std::move(edited));
    const auto post = AnalysisCache::global().stats();

    EXPECT_TRUE(out.incremental);
    ASSERT_EQ(out.dirtyNames.size(), 1u);
    EXPECT_EQ(*out.dirtyNames.begin(), victim);
    EXPECT_EQ(out.unchangedFunctions,
              static_cast<unsigned>(total - 1));

    // Analysis-reuse: exactly the edited function's CFG was rebuilt;
    // every other function is the previous module's, shared without
    // a cache lookup.
    EXPECT_EQ(post.functionMisses - pre.functionMisses, 1u);
    EXPECT_EQ(post.functionHits - pre.functionHits, 0u);

    // An immediate flip keeps the function's shape: the pass
    // replayed the previous one, re-emitting one function and
    // keeping the rest verbatim.
    EXPECT_TRUE(out.replayed);
    const RewriteStats &stats = session.lastResult().stats;
    EXPECT_EQ(stats.relocEmittedFunctions, 1u);
    EXPECT_EQ(stats.relocReusedFunctions, instrumented - 1);

    // The incremental result is byte-identical to a cold rewrite of
    // the edited input.
    BinaryImage edited_again = compileMicro(arch);
    ASSERT_EQ(mutateOneImmediate(edited_again), victim);
    RewriteSession cold(std::move(edited_again));
    const RewriteResult &cold_rw = cold.rewrite(baseOptions());
    ASSERT_TRUE(cold_rw.ok);
    EXPECT_EQ(session.lastResult().image.serialize(),
              cold_rw.image.serialize());

    // And it still lints clean against the rebuilt CFG.
    EXPECT_EQ(errorCount(session.lint()), 0u)
        << session.lastReport().renderText();
}

TEST_P(SessionLoadInput, CleanFunctionsStayTheSameObjects)
{
    const Arch arch = GetParam();
    AnalysisCache::global().clear();

    // Two builds of one image share every Function with the cache.
    const BinaryImage img = compileMicro(arch);
    const CfgModule first = buildCfg(img);
    std::map<Addr, const Function *> built;
    for (const auto &[entry, fn] : first.functions)
        built[entry] = &fn;
    const CfgModule second = buildCfg(img);
    for (const auto &[entry, fn] : second.functions)
        EXPECT_EQ(&fn, built.at(entry)) << fn.name;

    // A one-function edit re-analyzes that function; every clean one
    // stays the very object the session held before.
    RewriteSession session(compileMicro(arch));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);
    std::map<Addr, const Function *> before;
    for (const auto &[entry, fn] : session.analyze().functions)
        before[entry] = &fn;
    BinaryImage edited = compileMicro(arch);
    ASSERT_FALSE(mutateOneImmediate(edited).empty());
    const auto out = session.loadInput(std::move(edited));
    ASSERT_TRUE(out.incremental);
    ASSERT_EQ(out.dirtyFunctions.size(), 1u);
    std::size_t shared = 0;
    for (const auto &[entry, fn] : session.analyze().functions) {
        if (out.dirtyFunctions.count(entry) == 0) {
            EXPECT_EQ(&fn, before.at(entry)) << fn.name;
            shared += &fn == before.at(entry) ? 1 : 0;
        }
    }
    EXPECT_EQ(shared, before.size() - 1);
}

TEST(SessionLoadInputTiming, OneFunctionEditTimesDiffAndValidate)
{
    AnalysisCache::global().clear();
    RewriteSession session(compileMicro(Arch::x64));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);
    BinaryImage edited = compileMicro(Arch::x64);
    ASSERT_FALSE(mutateOneImmediate(edited).empty());

    Metrics::global().reset();
    ASSERT_TRUE(session.loadInput(std::move(edited)).incremental);
    const std::string table = Metrics::global().table();
    EXPECT_NE(table.find("session.diff "), std::string::npos) << table;
    EXPECT_NE(table.find("deps.validate "), std::string::npos)
        << table;
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SessionLoadInput,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        return sanitize(archName(info.param));
    });

// --- loadInput: spliced address maps -------------------------------------

namespace
{

bool
strictlyAscending(const AddrPairs &map)
{
    for (std::size_t i = 1; i < map.size(); ++i)
        if (map[i - 1].first >= map[i].first)
            return false;
    return true;
}

} // namespace

class SessionSpliceMaps
    : public ::testing::TestWithParam<std::tuple<Arch, RewriteMode>>
{
};

TEST_P(SessionSpliceMaps, OneFunctionEditMatchesColdMaps)
{
    const auto [arch, mode] = GetParam();
    AnalysisCache::global().clear();
    RewriteOptions opts = baseOptions();
    opts.mode = mode;

    RewriteSession session(compileMicro(arch));
    ASSERT_TRUE(session.rewrite(opts).ok);
    BinaryImage edited = compileMicro(arch);
    const std::string victim = mutateOneImmediate(edited);
    ASSERT_FALSE(victim.empty());
    const auto out = session.loadInput(std::move(edited));
    ASSERT_TRUE(out.incremental);
    const RewriteResult &spliced = session.lastResult();
    ASSERT_TRUE(spliced.ok) << spliced.failReason;
    // The maps came through the carry path: most functions reused.
    EXPECT_GT(spliced.stats.relocReusedFunctions, 0u);

    BinaryImage edited_again = compileMicro(arch);
    ASSERT_EQ(mutateOneImmediate(edited_again), victim);
    RewriteSession cold(std::move(edited_again));
    const RewriteResult &cold_rw = cold.rewrite(opts);
    ASSERT_TRUE(cold_rw.ok) << cold_rw.failReason;

    EXPECT_TRUE(strictlyAscending(spliced.manifest.blockMap));
    EXPECT_TRUE(strictlyAscending(spliced.manifest.insnMap));
    EXPECT_TRUE(strictlyAscending(cold_rw.manifest.blockMap));
    EXPECT_TRUE(strictlyAscending(cold_rw.manifest.insnMap));
    EXPECT_EQ(spliced.manifest.blockMap, cold_rw.manifest.blockMap);
    EXPECT_EQ(spliced.manifest.insnMap, cold_rw.manifest.insnMap);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchsModes, SessionSpliceMaps,
    ::testing::Combine(::testing::Values(Arch::x64, Arch::ppc64le,
                                         Arch::aarch64),
                       ::testing::Values(RewriteMode::dir,
                                         RewriteMode::jt,
                                         RewriteMode::funcPtr)),
    [](const ::testing::TestParamInfo<std::tuple<Arch, RewriteMode>>
           &info) {
        return sanitize(std::string(archName(std::get<0>(info.param))) +
                        "_" + rewriteModeName(std::get<1>(info.param)));
    });

TEST(SessionLoadInputFallback, DifferentArchResetsSession)
{
    RewriteSession session(compileMicro(Arch::x64));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);

    const auto out = session.loadInput(compileMicro(Arch::aarch64));
    EXPECT_FALSE(out.incremental);
    EXPECT_FALSE(session.hasResult());

    // The session stays usable as if freshly constructed.
    const RewriteResult &rw = session.rewrite(baseOptions());
    EXPECT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(rw.stats.relocReusedFunctions, 0u);
}

TEST(SessionLoadInputFallback, DataSectionEditForcesFullRewrite)
{
    RewriteSession session(compileMicro(Arch::x64));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);

    // Flip one byte of a non-executable section: jump-table data
    // feeds analysis and cloning, so splicing would be unsound.
    BinaryImage edited = compileMicro(Arch::x64);
    bool flipped = false;
    for (Section &sec : edited.sections) {
        if (!sec.executable && !sec.bytes.empty()) {
            sec.bytes[0] ^= 0x01;
            flipped = true;
            break;
        }
    }
    ASSERT_TRUE(flipped);

    const auto out = session.loadInput(std::move(edited));
    EXPECT_FALSE(out.incremental);
    EXPECT_FALSE(session.hasResult());
}

TEST(SessionLoadInputFallback, CodeEditOutsideEveryFunctionResets)
{
    RewriteSession session(compileMicro(Arch::x64));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);

    // Flip a .text byte no function symbol covers (inter-function
    // padding): the change is attributable to no function.
    BinaryImage edited = compileMicro(Arch::x64);
    Section *text = edited.findSection(SectionKind::text);
    ASSERT_NE(text, nullptr);
    const auto funcs = edited.functionSymbols();
    Addr gap = 0;
    for (Addr a = text->addr; gap == 0 && a < text->end(); ++a) {
        bool covered = false;
        for (const Symbol *sym : funcs)
            covered = covered || (a >= sym->addr && a < sym->addr + sym->size);
        if (!covered)
            gap = a;
    }
    ASSERT_NE(gap, 0u) << "no padding byte in .text";
    text->bytes[static_cast<std::size_t>(gap - text->addr)] ^= 0x01;

    const auto out = session.loadInput(std::move(edited));
    EXPECT_FALSE(out.incremental);
    EXPECT_FALSE(session.hasResult());
}

// --- loadInput: data-edit invalidation -----------------------

namespace
{

/**
 * Pick a data byte nothing depends on: not in any function's recorded
 * read-set, not under a donated scratch range, a relocation site, or
 * a rewritten function-pointer cell. Scans .rodata backwards (the
 * rodataPadding tail lives there). Returns 0 when none exists.
 */
Addr
findUnreadDataByte(RewriteSession &session)
{
    const CfgModule &cfg = session.analyze();
    const RewriteManifest &manifest =
        session.lastResult().manifest;
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

void
flipImageByte(BinaryImage &img, Addr victim)
{
    for (Section &sec : img.sections) {
        if (!sec.contains(victim) || sec.bytes.empty())
            continue;
        const std::size_t off =
            static_cast<std::size_t>(victim - sec.addr);
        if (off < sec.bytes.size()) {
            sec.bytes[off] ^= 0x5a;
            return;
        }
    }
    FAIL() << "victim byte not backed by file bytes";
}

/**
 * A data edit no analysis reads: zero dirty functions, and the new
 * data bytes splice into the previous result byte-identical to a
 * cold rewrite of the edited input.
 */
void
checkUnreadDataEdit(const ProgramSpec &spec)
{
    AnalysisCache::global().clear();
    RewriteSession session(compileProgram(spec));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);

    const Addr victim = findUnreadDataByte(session);
    ASSERT_NE(victim, 0u) << "no unread data byte in the corpus";

    BinaryImage edited = compileProgram(spec);
    flipImageByte(edited, victim);

    const auto pre = AnalysisCache::global().stats();
    const auto out = session.loadInput(std::move(edited));
    const auto post = AnalysisCache::global().stats();

    // Zero readers, zero re-analysis, zero re-emission — the new
    // data bytes splice into the previous result wholesale.
    EXPECT_TRUE(out.incremental);
    EXPECT_TRUE(out.dirtyFunctions.empty());
    EXPECT_EQ(post.functionMisses - pre.functionMisses, 0u);

    // The splice reproduces a cold rewrite of the edited input byte
    // for byte.
    BinaryImage edited_again = compileProgram(spec);
    flipImageByte(edited_again, victim);
    RewriteSession cold(std::move(edited_again));
    const RewriteResult &cold_rw = cold.rewrite(baseOptions());
    ASSERT_TRUE(cold_rw.ok);
    EXPECT_EQ(session.lastResult().image.serialize(),
              cold_rw.image.serialize());

    EXPECT_EQ(errorCount(session.lint()), 0u)
        << session.lastReport().renderText();
}

/**
 * Redirect one entry of an out-of-code jump table onto another
 * (valid table bytes, different target): exactly the functions
 * whose read-sets overlap the entry go dirty, and the output stays
 * byte-identical to a cold rewrite. Skips when the input has no
 * such table (ppc64le embeds its tables in code).
 */
void
checkJumpTableEdit(const ProgramSpec &spec)
{
    AnalysisCache::global().clear();
    RewriteSession session(compileProgram(spec));
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);

    const CfgModule &cfg = session.analyze();
    const JumpTable *jt = nullptr;
    for (const FunctionSlot &slot : cfg.functions) {
        for (const JumpTable &t : slot.fn->jumpTables) {
            if (!t.embeddedInCode && t.targets.size() >= 2 &&
                t.targets[0] != t.targets[1]) {
                jt = &t;
                break;
            }
        }
        if (jt != nullptr)
            break;
    }
    if (jt == nullptr)
        GTEST_SKIP() << "no out-of-code jump table on "
                     << archName(spec.arch);
    const Addr site = jt->tableAddr;
    const unsigned width = jt->entrySize;

    // The expected dirty set, independent of loadInput's validate
    // test: every function whose read-set overlaps the edited entry
    // (computed before the edit invalidates the CFG).
    std::set<Addr> expected;
    for (const FunctionSlot &slot : cfg.functions)
        if (slot.fn->dataDeps.overlaps(site, site + width))
            expected.insert(slot.entry);
    ASSERT_FALSE(expected.empty())
        << "table bytes missing from every read-set";

    BinaryImage edited = compileProgram(spec);
    std::vector<std::uint8_t> donor;
    ASSERT_TRUE(edited.readBytes(site + width, width, donor));
    ASSERT_TRUE(edited.writeBytes(site, donor));

    const auto out = session.loadInput(std::move(edited));
    EXPECT_TRUE(out.incremental);
    EXPECT_EQ(out.dirtyFunctions, expected);

    // Byte-identity with a cold rewrite of the same edited input.
    BinaryImage edited_again = compileProgram(spec);
    ASSERT_TRUE(edited_again.writeBytes(site, donor));
    RewriteSession cold(std::move(edited_again));
    const RewriteResult &cold_rw = cold.rewrite(baseOptions());
    ASSERT_TRUE(cold_rw.ok);
    EXPECT_EQ(session.lastResult().image.serialize(),
              cold_rw.image.serialize());

    EXPECT_EQ(errorCount(session.lint()), 0u)
        << session.lastReport().renderText();
}

} // namespace

/** The data-edit checks on a PIE micro compile. */
class SessionDataDeps : public ::testing::TestWithParam<Arch>
{
};

TEST_P(SessionDataDeps, UnreadDataEditSplicesWithZeroDirty)
{
    // rodataPadding is a blob no analysis reads — the string-table
    // shape of the paper's data-edit workload.
    ProgramSpec spec = microProfile(GetParam(), /*pie=*/true);
    spec.rodataPadding = 512;
    checkUnreadDataEdit(spec);
}

TEST_P(SessionDataDeps, JumpTableEditDirtiesExactlyItsReaders)
{
    checkJumpTableEdit(microProfile(GetParam(), /*pie=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SessionDataDeps,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        return sanitize(archName(info.param));
    });

/** The same checks on a PIE chromium-small compile. */
class SessionDataDepsChromiumSmall : public ::testing::TestWithParam<Arch>
{
};

TEST_P(SessionDataDepsChromiumSmall, UnreadDataEditSplicesWithZeroDirty)
{
    checkUnreadDataEdit(chromiumSmallProfile(GetParam(), /*pie=*/true));
}

TEST_P(SessionDataDepsChromiumSmall, JumpTableEditDirtiesExactlyItsReaders)
{
    checkJumpTableEdit(chromiumSmallProfile(GetParam(), /*pie=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, SessionDataDepsChromiumSmall,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        return sanitize(archName(info.param));
    });

// --- lint report JSON round trip ------------------------------------------

TEST(LintReportJson, RenderParseRoundTripsForDiffing)
{
    const BinaryImage img = compileMicro(Arch::x64);
    RewriteSession session(img);
    ASSERT_TRUE(session.rewrite(baseOptions()).ok);
    const LintReport &report = session.lint();

    const auto parsed = parseLintReportJson(report.renderJson());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->findings.size(), report.findings.size());
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        EXPECT_EQ(parsed->findings[i].rule, report.findings[i].rule);
        EXPECT_EQ(parsed->findings[i].severity,
                  report.findings[i].severity);
        EXPECT_EQ(parsed->findings[i].function,
                  report.findings[i].function);
    }

    // The parsed report is diff-equivalent to the original.
    const LintDiff diff = diffReports(*parsed, report);
    EXPECT_FALSE(diff.hasRegressions(Severity::info));
    EXPECT_TRUE(diff.functions.empty());
}

TEST(LintReportJson, SyntheticFindingsSurviveRoundTrip)
{
    LintReport report;
    Diagnostic d;
    d.rule = "tramp-target";
    d.severity = Severity::error;
    d.function = "needs \"escaping\"\n";
    d.origAddr = 0x401000;
    d.message = "path\\with\\backslashes\tand tabs";
    report.findings.push_back(d);

    const auto parsed = parseLintReportJson(report.renderJson());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->findings.size(), 1u);
    EXPECT_EQ(parsed->findings[0].rule, "tramp-target");
    EXPECT_EQ(parsed->findings[0].function, d.function);
    EXPECT_EQ(parsed->findings[0].origAddr, 0x401000u);
    EXPECT_EQ(parsed->findings[0].message, d.message);
}

TEST(LintReportJson, RejectsNonReportText)
{
    EXPECT_FALSE(parseLintReportJson("").has_value());
    EXPECT_FALSE(parseLintReportJson("not json").has_value());
    EXPECT_FALSE(parseLintReportJson("[1, 2, 3]").has_value());
    EXPECT_FALSE(parseLintReportJson("{\"clean\": true}").has_value());
    EXPECT_FALSE(
        parseLintReportJson("{\"findings\": [{\"rule\": ")
            .has_value());
}
