/**
 * @file
 * Options and result types of the incremental-CFG-patching rewriter.
 * The three modes of §3 (dir / jt / func-ptr) plus the knobs that
 * the baselines and ablation benchmarks toggle: trampoline placement
 * analysis, multi-hop trampolines, RA translation vs call emulation,
 * and the strong-test byte clobbering of §8.
 */

#ifndef ICP_REWRITE_OPTIONS_HH
#define ICP_REWRITE_OPTIONS_HH

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/builder.hh"
#include "analysis/cache_store.hh"
#include "binfmt/image.hh"
#include "rewrite/manifest.hh"

namespace icp
{

class FuncPtrIndex;

/** Binary rewriting modes (§3): which control flow is rewritten. */
enum class RewriteMode : std::uint8_t
{
    dir,     ///< direct control flow only
    jt,      ///< + jump tables (cloned)
    funcPtr, ///< + function-pointer definitions
};

const char *rewriteModeName(RewriteMode mode);

/** Layout permutations for the BOLT comparison (§8.3). */
enum class OrderPolicy : std::uint8_t
{
    original,
    reversed,
};

/**
 * Fault-injection selector for the static verifier's self test:
 * each value plants exactly one defect in an emitted artifact, and
 * the manifest records the single lint rule that must flag it.
 */
enum class InjectDefect : std::uint8_t
{
    none = 0,
    trampTarget,    ///< retarget a trampoline into unmapped space
    trampRange,     ///< encode a branch beyond the ISA's reach
    trampChain,     ///< make a trampoline chain loop on itself
    liveScratch,    ///< long form using a live scratch register
    tocScratch,     ///< ppc long form clobbering the TOC register
    staleCloneEntry,///< skip one cloned jump-table entry fixup
    cloneBounds,    ///< shrink .newrodata under a clone's extent
    doublePatch,    ///< record two overlapping trampoline patches
    raMapEntry,     ///< corrupt one .ra_map pair
    dropFde,        ///< drop the FDE covering a relocated function
    funcPtrStale,   ///< restore a rewritten pointer cell
    depMissing,     ///< drop one recorded data read-set range
    depStale,       ///< flip one recorded read-set range hash
    depOverbroad,   ///< append a large bogus (but clean-hash) range
};

const char *injectDefectName(InjectDefect defect);

/** Parse an --inject argument; nullopt on unknown names. */
std::optional<InjectDefect> parseInjectDefect(const std::string &name);

/** What snippets the instrumenter inserts. */
struct InstrumentationSpec
{
    /** CallRt counter at the top of every relocated basic block. */
    bool countBlocks = false;

    /** CallRt counter at function entry blocks only. */
    bool countFunctionEntries = false;

    /**
     * Selective instrumentation (the Dyninst "instrumentation
     * point" model, §8): when non-empty, countBlocks applies only
     * to these block start addresses.
     */
    std::set<Addr> onlyBlocks;

    bool
    empty() const
    {
        return !countBlocks && !countFunctionEntries;
    }

    bool
    instrumentsBlock(Addr block) const
    {
        return countBlocks &&
               (onlyBlocks.empty() || onlyBlocks.count(block));
    }
};

/** Per-shard work accounting for the sharded rewrite. */
struct ShardCounters
{
    /** The shard's function-entry range [lo, hi). */
    Addr lo = 0;
    Addr hi = 0;

    unsigned functions = 0; ///< functions analyzed in the shard
    unsigned instrumented = 0;
    std::uint64_t blocks = 0; ///< basic blocks across the shard
    std::uint64_t insns = 0;  ///< decoded instructions

    bool operator==(const ShardCounters &) const = default;
};

struct RewriteOptions
{
    RewriteMode mode = RewriteMode::funcPtr;

    /**
     * §4: install trampolines only at CFL blocks and extend them
     * into trampoline superblocks. When off, every block gets a
     * trampoline in place (SRBI-style placement).
     */
    bool trampolinePlacement = true;

    /**
     * §7: when a block is too small for a sufficient-range
     * trampoline, chain a short branch through scratch space
     * (padding bytes, scratch blocks, retired dynamic-linking
     * sections) instead of trapping.
     */
    bool multiHop = true;

    /**
     * §6: runtime RA translation (emit .ra_map; the preloaded
     * runtime library translates during unwinding). When off, calls
     * are emulated (original return address materialized; call
     * fall-through blocks become CFL blocks).
     */
    bool raTranslation = true;

    /**
     * §8's strong test: overwrite every instrumented-function byte
     * that is not a trampoline (or embedded table data) with an
     * illegal opcode, so any missed control flow faults immediately.
     */
    bool clobberOriginal = false;

    InstrumentationSpec instrumentation;

    /**
     * The §4.2 extension: skip trampolines at CFL blocks from which
     * no instrumented block is reachable in the CFG. Sound only
     * without byte clobbering (skipped paths execute original
     * code), so it is rejected when combined with clobberOriginal.
     */
    bool reachabilityPruning = false;

    AnalysisOptions analysis;

    /** Partial instrumentation: restrict to these names (§9). */
    std::set<std::string> onlyFunctions;

    /**
     * Demote every trampoline in these functions to a trap
     * trampoline. RewriteSession::repair adds a function here when a
     * targeted re-rewrite failed to clear its lint findings twice:
     * traps are the always-sound fallback (§4.3), at runtime cost.
     */
    std::set<std::string> forceTrapFunctions;

    /**
     * Restrict fault injection (injectDefect) to sites inside this
     * function. Used by the repair-convergence tests to model a
     * persistent per-function defect. Does not apply to the
     * section-level defects (raMapEntry, cloneBounds), which corrupt
     * a section rather than a function-local site.
     */
    std::string injectOnlyFunction;

    /** Layout permutations (BOLT comparison). */
    OrderPolicy functionOrder = OrderPolicy::original;
    OrderPolicy blockOrder = OrderPolicy::original;

    /**
     * Worker threads for the per-function analysis and relocation
     * pipeline: 0 = hardware concurrency, 1 = fully sequential.
     * Results are bit-identical for every value.
     */
    unsigned threads = 0;

    /**
     * Consult the process-wide AnalysisCache so repeated rewrites of
     * an unchanged binary reuse per-function CFGs, jump tables, and
     * liveness instead of recomputing them.
     */
    bool useAnalysisCache = true;

    /**
     * On-disk AnalysisCache file (CLI --cache-file). When non-empty
     * (and useAnalysisCache is on), the rewrite merges the file into
     * the process-wide cache before analysis and saves the cache
     * back on success, making warm-cache reuse a cross-invocation
     * property. Corrupt or mismatched files degrade to a cold run
     * with structured cache-* issues on RewriteResult::cacheLoad.
     */
    std::string cachePath;

    /**
     * Size cap for cachePath (CLI --cache-max-bytes; 0 = unbounded).
     * When a save leaves the file larger than this, it is compacted
     * in place keeping newest-generation entries first — the
     * automatic variant of `icp cache compact`.
     */
    std::uint64_t cacheMaxBytes = 0;

    /**
     * Record the RewriteManifest on the result so the static
     * soundness verifier (lintRewrite in src/verify/) can check the
     * rewritten image against what the rewriter intended to emit.
     */
    bool lint = true;

    /** Plant one defect for the verifier's self test (tests only). */
    InjectDefect injectDefect = InjectDefect::none;

    /**
     * Address ranges of a sharded, streaming rewrite
     * (rewriteBinarySharded; 0 = classic rewriteBinary). Both run
     * one rewrite pipeline over a list of ranges — the classic
     * rewrite is one range — so output bytes are identical for
     * every value. With one range (shards <= 1) the CFG stays
     * resident and the analysis cache works as in a classic run.
     * With N > 1 the function space is split into N contiguous
     * ranges; each of the three passes builds one range's CFG in
     * memory and frees it, so peak memory is O(range), not
     * O(binary). Such a run never uses the analysis cache (its
     * in-memory copy keeps every function) and rejects a cachePath;
     * useAnalysisCache makes no difference to it. Sharded runs also
     * reject lint manifests, fault injection, session reuse/repair,
     * and reversed layout orders.
     */
    unsigned shards = 0;
};

/**
 * One rewrite flag. `icp rewrite` and the other commands parse
 * through rewriteFlags(), `icp client` forwards each flag as a wire
 * field, and the daemon applies that field through the same setter.
 */
struct RewriteFlag
{
    const char *name; ///< as `icp rewrite` spells it: "--count-blocks"
    bool takesValue;  ///< `--flag V` or `--flag=V`; else a switch

    /** Apply @p value (null for a switch); false when malformed. */
    bool (*set)(RewriteOptions &opts, const char *value);

    /** The wire field: the name without its leading dashes, inner
     *  dashes as underscores (`--count-blocks` -> `count_blocks`). */
    std::string field() const;
};

/** Every rewrite flag, once. */
const std::vector<RewriteFlag> &rewriteFlags();

/** Options before any flag: the library defaults in jt mode, the
 *  default of every `icp` command and of the daemon's sessions. */
RewriteOptions flagDefaultOptions();

/**
 * A numeric flag value: decimal digits only (no sign, space or
 * suffix) and within [min, max]. Anything else sets *bad and
 * returns 0.
 */
std::uint64_t numberArg(const char *text, std::uint64_t min,
                        std::uint64_t max, bool *bad);

struct RewriteStats
{
    unsigned totalFunctions = 0;
    unsigned instrumentableFunctions = 0;
    unsigned instrumentedFunctions = 0;

    std::uint64_t cflBlocks = 0;
    std::uint64_t totalBlocks = 0;
    std::uint64_t trampolines = 0;
    std::uint64_t directTramps = 0;  ///< single-branch form
    std::uint64_t longTramps = 0;    ///< multi-instruction form
    std::uint64_t multiHopTramps = 0;
    std::uint64_t trapTramps = 0;
    std::uint64_t raMapEntries = 0;
    std::uint64_t clonedTables = 0;
    std::uint64_t rewrittenFuncPtrs = 0;

    /**
     * Selective re-rewrite accounting: how many instrumented
     * functions the engine re-emitted this pass vs. spliced verbatim
     * from a previous pass's bytes (RewriteSession::repair).
     * A from-scratch rewrite emits every function and reuses none.
     */
    unsigned relocEmittedFunctions = 0;
    unsigned relocReusedFunctions = 0;

    /** Per-shard work counters (sharded rewrites only). */
    std::vector<ShardCounters> shards;

    std::uint64_t originalLoadedSize = 0;
    std::uint64_t rewrittenLoadedSize = 0;

    double
    sizeIncrease() const
    {
        return originalLoadedSize == 0
            ? 0.0
            : static_cast<double>(rewrittenLoadedSize) /
                  static_cast<double>(originalLoadedSize) - 1.0;
    }

    double
    coverage() const
    {
        return totalFunctions == 0
            ? 0.0
            : static_cast<double>(instrumentedFunctions) /
                  static_cast<double>(totalFunctions);
    }

    bool operator==(const RewriteStats &) const = default;
};

struct RewriteResult
{
    bool ok = false;
    std::string failReason;

    /** The pass replayed RewritePass::previous instead of running
     *  the pipeline (see RewritePass). */
    bool replayed = false;

    BinaryImage image;
    RewriteStats stats;

    /** Counter-id maps for verification (block/entry -> CallRt id). */
    std::map<Addr, std::uint32_t> blockCounters;
    std::map<Addr, std::uint32_t> entryCounters;

    /** What was emitted where; input to the static verifier. */
    RewriteManifest manifest;

    /**
     * The function-pointer scan's module-level index (function
     * ranges and pointer cells). A replay of this result scans its
     * dirty functions against it: a RewritePass input has the same
     * symbols, relocations and non-PIE data words.
     */
    std::shared_ptr<const FuncPtrIndex> funcPtrIndex;

    /**
     * Outcome of loading RewriteOptions::cachePath (default-empty
     * when no cache file was configured). Lint folds its issues into
     * the report as cache-* warnings.
     */
    CacheLoadReport cacheLoad;
};

} // namespace icp

#endif // ICP_REWRITE_OPTIONS_HH
