/**
 * @file
 * RewriteSession: the stateful rewrite -> lint -> repair API. The
 * paper's pitch is *incremental* patching (§3, §9): reuse analysis
 * and touch only what changed. A session owns the input image, the
 * per-function analysis artifacts (CFGs, jump tables, liveness —
 * seeded from and into the process-wide AnalysisCache), the last
 * RewriteResult, and the last LintReport, so lint findings can feed
 * back into a targeted re-rewrite instead of a full redo:
 *
 *   analyze() ──> rewrite(opts) ──> lint(rules) ──> repair(report)
 *                      ^                                  │
 *                      └──── selective re-rewrite ────────┘
 *
 * repair() maps each error-severity finding to its owning function,
 * re-emits only those functions (splicing every other function's
 * bytes from the previous pass), and demotes a function to trap
 * trampolines when a second targeted attempt still fails. After a
 * repair or an edit (loadInput), the next lint re-checks only the
 * functions the passes changed, against the session's cached CFG,
 * and carries the rest of the last report (relint). rewriteBinary()
 * remains as a thin one-shot wrapper.
 */

#ifndef ICP_REWRITE_SESSION_HH
#define ICP_REWRITE_SESSION_HH

#include <map>
#include <set>
#include <string>

#include "analysis/builder.hh"
#include "analysis/cfg.hh"
#include "rewrite/rewriter.hh"
#include "verify/lint.hh"

namespace icp
{

class RewriteSession
{
  public:
    /** Borrow @p input; it must outlive the session. */
    explicit RewriteSession(const BinaryImage &input)
        : input_(&input)
    {
    }

    /** Take ownership of @p input. */
    explicit RewriteSession(BinaryImage &&input)
        : owned_(std::move(input)), input_(&owned_)
    {
    }

    RewriteSession(const RewriteSession &) = delete;
    RewriteSession &operator=(const RewriteSession &) = delete;

    /** How repair() treats functions whose findings persist. */
    struct RepairPolicy
    {
        /**
         * Clear RewriteOptions::injectDefect before re-rewriting,
         * modeling a transient defect that one repair pass fixes.
         * Tests set this false (with injectOnlyFunction) to model a
         * persistent per-function defect that only trap demotion
         * can contain.
         */
        bool clearInjectedDefect = true;
    };

    struct RepairOutcome
    {
        unsigned iterations = 0;
        bool converged = false; ///< final report passes failOn

        /** Functions targeted for re-rewrite (by name). */
        std::set<std::string> repairedFunctions;

        /** Functions demoted to trap trampolines (by name). */
        std::set<std::string> demotedFunctions;

        /**
         * True when a finding could not be attributed to a function
         * (image-global rules) and the pass fell back to a full
         * re-rewrite and full re-lint.
         */
        bool fullRewriteFallback = false;
    };

    /**
     * Outcome of loadInput(): how much of the previous session state
     * survived the input swap.
     */
    struct LoadOutcome
    {
        /**
         * True when the new input was diffable against the old one
         * (same header, layout, symbols and relocations) and the
         * previous rewrite was reused selectively: only changed
         * functions were re-analyzed and re-emitted, everything else
         * was spliced from the previous pass's bytes.
         */
        bool incremental = false;

        /** Entries of functions whose code or read data changed. */
        std::set<Addr> dirtyFunctions;

        /** Names of those functions. */
        std::set<std::string> dirtyNames;

        /**
         * True when the re-rewrite replayed the previous pass (every
         * dirty function kept its shape; see RewritePass): only the
         * dirty spans were re-emitted and nothing else re-planned.
         */
        bool replayed = false;

        /** Function symbols that stayed clean. */
        unsigned unchangedFunctions = 0;
    };

    /**
     * Replace the session's input with @p newImage (a new build of
     * the same binary). A function is dirty when its code bytes
     * changed or its recorded read-set (Function::dataDeps) no
     * longer validates against the new image — the test a cache hit
     * passes. The CFG is rebuilt from the previous one: clean
     * functions are shared as they are, only the dirty ones are
     * analyzed. When every dirty function kept its shape, the pass
     * replays the previous result: it re-emits only the dirty
     * functions and carries everything else over (see RewritePass;
     * LoadOutcome::replayed). Otherwise the full pipeline re-runs,
     * re-emitting only the dirty functions and splicing every other
     * function's bytes from the previous result where the layout
     * allows.
     *
     * The session resets to a fresh state on the new input when the
     * images are not diffable: a different header (arch, PIE, base,
     * entry, TOC), section layout, symbol or relocation list;
     * changed executable bytes outside every function; a data edit
     * in a non-PIE image, outside .rodata/.data, or without a
     * manifest; or a data edit over a relocation slot, donated
     * scratch range or rewritten pointer cell.
     */
    LoadOutcome loadInput(BinaryImage newImage);

    /**
     * Build (or return the cached) original-image CFG under the
     * current options' analysis settings.
     */
    const CfgModule &analyze();

    /**
     * Rewrite the input under @p options, reusing the session's CFG
     * (rebuilt only when analysis-relevant options changed). The
     * returned reference lives until the next rewrite()/repair().
     */
    RewriteResult &rewrite(const RewriteOptions &options);

    /**
     * Lint the last rewrite against the session's cached CFG (the
     * verifier never rebuilds the original CFG through this path).
     * @p options' originalCfg field is overridden by the session.
     * When the last lint ran under the same onlyRules and
     * onlyFunctions and only loadInput's or repair's passes over the
     * previous result came since, the report is relint()'s merge:
     * the functions those passes changed are re-checked, the
     * image-global rules re-run, and every other finding is carried
     * (LintReport::relintedFunctions). Otherwise it is a full lint.
     */
    LintReport &lint(const LintOptions &options = LintOptions{});

    /**
     * One repair pass driven by @p report: re-rewrite the functions
     * owning its error findings (selectively when every finding is
     * attributable), then incrementally re-lint. A function's
     * second failed attempt demotes every trampoline in it to a
     * trap, the always-sound §4.3 fallback, at runtime cost.
     * Requires rewrite() and lint() to have run. Updates
     * lastResult()/lastReport().
     */
    RepairOutcome repair(const LintReport &report,
                         const RepairPolicy &policy);

    RepairOutcome
    repair(const LintReport &report)
    {
        return repair(report, RepairPolicy{});
    }

    /**
     * Loop lint -> repair until the report passes the configured
     * fail-on severity or @p max_iterations repair passes ran.
     */
    RepairOutcome repairToFixedPoint(unsigned max_iterations,
                                     const RepairPolicy &policy);

    RepairOutcome
    repairToFixedPoint(unsigned max_iterations = 2)
    {
        return repairToFixedPoint(max_iterations, RepairPolicy{});
    }

    const BinaryImage &input() const { return *input_; }
    bool hasResult() const { return hasResult_; }
    const RewriteResult &lastResult() const { return result_; }
    /** The last lint's report; after a later pass, until the next
     *  lint(), it describes the result it was made for. */
    const LintReport &lastReport() const { return report_; }

    /** Options as amended by repair (defect cleared, demotions). */
    const RewriteOptions &options() const { return opts_; }

  private:
    void ensureCfg(const CfgReuse &reuse = CfgReuse{});

    /** Merge opts_.cachePath into the AnalysisCache (no-op when
     *  unset); must run before ensureCfg() to seed the CFG build. */
    CacheLoadReport mergeDiskCache();

    /**
     * Rewrite under opts_ with @p pass and adopt the result. The
     * session owns the cache file: the pass gets no cachePath, the
     * result carries @p cache_load, and a successful pass saves the
     * file.
     */
    void runPass(const RewritePass &pass, CacheLoadReport cache_load);

    /** Forget the last report: the next lint runs in full. */
    void dropReport();

    /**
     * Lint the last result under lintOpts_: relint() merged with the
     * last report when there is one, else a full lintRewrite.
     */
    void lintResult();

    BinaryImage owned_;
    const BinaryImage *input_;

    RewriteOptions opts_;
    LintOptions lintOpts_;

    CfgModule cfg_;
    bool cfgBuilt_ = false;
    AnalysisOptions cfgOpts_; ///< options cfg_ was built under

    RewriteResult result_;
    bool hasResult_ = false;

    /**
     * The last lint report. It stays mergeable (hasReport_) across
     * passes over the previous result — loadInput's replay or
     * selective re-rewrite, repair's selective pass — and stale_
     * collects the functions those passes changed; it describes the
     * last result as it is only while reportCurrent_.
     */
    LintReport report_;
    bool hasReport_ = false;
    bool reportCurrent_ = false;
    std::set<Addr> stale_;

    /**
     * Every pass since report_ was made replayed the previous result,
     * which moves the address maps over as they were: the next lint
     * reuses report_.mapOrder instead of proving it again.
     */
    bool mapsKept_ = false;

    /** Failed targeted re-rewrites per function name. */
    std::map<std::string, unsigned> failCounts_;
};

} // namespace icp

#endif // ICP_REWRITE_SESSION_HH
