/**
 * @file
 * Static soundness verifier ("icp lint") for rewritten SBF images.
 * Takes the original image and a RewriteResult (whose manifest
 * records what the rewriter intended to emit) and checks, without
 * executing anything, that the rewritten artifacts uphold the
 * invariants the paper's design depends on: trampoline chains land
 * on relocated instruction boundaries (§3), displacements respect
 * each ISA's reach (Table 2), scratch registers are genuinely dead
 * (§7), cloned jump tables stay in bounds and decode to relocated
 * block heads (§5), address maps round-trip (§6), unwind coverage
 * survives, and rewritten function-pointer cells load to their
 * relocated targets (§5.2). "Load" is the loader's rule evaluated on
 * the image bytes and relocation records (BinaryImage::loadedValue);
 * no process is simulated, so lint does not depend on the simulator.
 */

#ifndef ICP_VERIFY_LINT_HH
#define ICP_VERIFY_LINT_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "binfmt/image.hh"
#include "rewrite/options.hh"
#include "verify/diagnostics.hh"

namespace icp
{

/**
 * Whether the relocated targets of a manifest's block and instruction
 * maps strictly ascend. Proving it reads every pair of both maps (3M
 * on chromium); a replayed pass moves the maps over as they were, so
 * a session carries the proof from its last report.
 */
struct MapOrder
{
    bool blockTargetsAscend = false;
    bool insnTargetsAscend = false;

    bool bothAscend() const
    {
        return blockTargetsAscend && insnTargetsAscend;
    }

    bool operator==(const MapOrder &) const = default;
};

struct LintOptions
{
    /** Findings at or above this severity fail the lint. */
    Severity failOn = Severity::error;

    /**
     * Worker threads for the per-site rule checkers (trampoline
     * chains, clone entries): 0 = hardware
     * concurrency, 1 = serial. Findings are reported in the same
     * deterministic order for every value.
     */
    unsigned threads = 1;

    /** When non-empty, run only these rule ids (incremental lint). */
    std::set<std::string> onlyRules;

    /**
     * When set, the function-attributable rules check only sites
     * owned by these function entries; an empty set checks none, so
     * only the image-global rules run. The image-global rules
     * (patch-overlap, addr-map-round-trip, cache-file) ignore this
     * filter and always check the whole image. relint() sets it to
     * the functions a pass changed.
     */
    std::optional<std::set<Addr>> onlyFunctions;

    /**
     * Original-image CFG to use for the liveness-backed rules
     * instead of the verifier's lazy rebuild. Borrowed; must outlive
     * the lint call. RewriteSession passes its own analysis here so
     * repeat lints never re-disassemble the original image.
     */
    const CfgModule *originalCfg = nullptr;

    /**
     * The order of the linted result's maps, already proved (a
     * previous report's mapOrder over the same maps); unset, the lint
     * proves it.
     */
    std::optional<MapOrder> mapOrder;
};

struct LintReport
{
    /**
     * In one canonical order, the same for a full and a merged
     * report: by original address, then rewritten address, rule,
     * severity, function, message and function entry.
     */
    std::vector<Diagnostic> findings;

    // What this lint examined (for reporting; zero when skipped). In
    // a merged report (relint) they count the re-checked functions'
    // sites plus the image-global rules' whole-image work, not the
    // carried findings' sites: they are not a full lint's totals.
    std::uint64_t checkedTrampolines = 0;
    std::uint64_t checkedCloneEntries = 0;
    std::uint64_t checkedFuncPtrs = 0;
    std::uint64_t checkedRaPairs = 0;
    std::uint64_t checkedFdes = 0;
    std::uint64_t checkedDataDeps = 0; ///< audited read-set owners

    /**
     * True when the checker had to rebuild the original CFG itself
     * (LintOptions::originalCfg unset and a liveness-backed rule
     * ran). Incremental lint asserts this stays false.
     */
    bool rebuiltOriginalCfg = false;

    /** The maps' order the checker used; unset when it did not run. */
    std::optional<MapOrder> mapOrder;

    /**
     * Set on a merged report (relint): how many functions the
     * function-attributable rules re-checked; every other function's
     * findings were carried from the previous report. Nullopt for a
     * full lint.
     */
    std::optional<std::uint64_t> relintedFunctions;

    bool clean() const { return findings.empty(); }

    unsigned
    countAtLeast(Severity floor) const
    {
        return icp::countAtLeast(findings, floor);
    }

    /** True when the report should fail a --fail-on=@p floor run. */
    bool failed(Severity floor) const
    {
        return countAtLeast(floor) > 0;
    }

    /** Findings table plus a one-line summary and checked counts. */
    std::string renderText() const;

    /** Machine-readable report: summary, counts, findings array. */
    std::string renderJson() const;
};

/**
 * Verify @p rw (produced by rewriting @p original) against its
 * manifest. The rewrite must have run with RewriteOptions::lint so
 * the manifest is populated; otherwise a single "lint-manifest"
 * finding is returned.
 */
LintReport lintRewrite(const BinaryImage &original,
                       const RewriteResult &rw,
                       const LintOptions &opts = LintOptions{});

/**
 * The rules whose findings belong to one function's sites (the
 * trampoline, clone, unwind, read-set and pointer-cell rules), as
 * opposed to the image-global ones. A merged report carries only
 * their findings.
 */
bool isFunctionRule(const std::string &rule);

/**
 * Incremental lint after passes that changed only @p changed
 * (function entries) since @p previous was made: lintRewrite with
 * onlyFunctions set to @p changed (intersected with
 * opts.onlyFunctions when that is set), which re-runs every
 * image-global rule in full, merged with every finding of
 * @p previous that a function-attributable rule reported for a
 * function it did not re-check. @p previous must come from the same
 * onlyRules and onlyFunctions, over a result that differs from
 * @p rw only in the @p changed functions' sites (see
 * changedFunctions). When @p rw failed or has no manifest, the
 * fresh report is returned alone.
 */
LintReport relint(const BinaryImage &original, const RewriteResult &rw,
                  const LintReport &previous,
                  const std::set<Addr> &changed,
                  const LintOptions &opts = LintOptions{});

/**
 * The function entries whose manifest records a function-attributable
 * rule reads differ between two passes: their trampolines, cloned
 * tables, pointer cells (by pointee), relocated span, read-set or
 * instrumentation. A function whose records are equal and whose own
 * code did not change keeps its findings: its patch bytes and
 * relocated bytes are what the records determine.
 */
std::set<Addr> changedFunctions(const RewriteManifest &before,
                                const RewriteManifest &after);

/** Convert SBF container issues into lint diagnostics. */
std::vector<Diagnostic>
diagnosticsFromSbfIssues(const std::vector<SbfIssue> &issues);

/**
 * Convert on-disk AnalysisCache loading issues into warning-level
 * lint diagnostics. lintRewrite appends these automatically when the
 * rewrite was run with RewriteOptions::cachePath set.
 */
std::vector<Diagnostic>
diagnosticsFromCacheIssues(const std::vector<CacheFileIssue> &issues);

/**
 * Parse a report previously rendered with LintReport::renderJson()
 * (the "icp lint --json" output). Only the fields that participate
 * in diffReports matching — rule, severity, function — are required;
 * addresses and messages are carried when present. Returns nullopt
 * when the text is not such a report.
 */
std::optional<LintReport>
parseLintReportJson(const std::string &text);

/**
 * Per-function delta between two lint reports ("icp lint --diff"):
 * which findings are new in the second report (regressions) and
 * which disappeared (resolved). Findings match by (function, rule,
 * severity) with multiplicity — addresses differ between any two
 * binaries, so they do not participate in matching.
 */
struct LintDiff
{
    struct FuncDelta
    {
        std::string function; ///< empty = image-global findings
        std::vector<Diagnostic> regressions;
        std::vector<Diagnostic> resolved;
    };

    std::vector<FuncDelta> functions; ///< sorted by function name

    unsigned newErrors = 0;
    unsigned newWarnings = 0;
    unsigned newNotes = 0;
    unsigned resolvedErrors = 0;
    unsigned resolvedWarnings = 0;
    unsigned resolvedNotes = 0;

    bool
    hasRegressions(Severity floor) const
    {
        switch (floor) {
          case Severity::info:
            return newErrors + newWarnings + newNotes > 0;
          case Severity::warning:
            return newErrors + newWarnings > 0;
          case Severity::error:
            return newErrors > 0;
        }
        return false;
    }

    std::string renderText() const;
    std::string renderJson() const;
};

/** Compare two lint reports; @p before is the baseline. */
LintDiff diffReports(const LintReport &before,
                     const LintReport &after);

} // namespace icp

#endif // ICP_VERIFY_LINT_HH
