/**
 * @file
 * CFG construction by recursive control-flow traversal from function
 * symbols, with iterative jump-table resolution, landing-pad leaders
 * from .eh_frame, and the gap-decoding indirect-tail-call heuristic
 * of §5.1.
 */

#ifndef ICP_ANALYSIS_BUILDER_HH
#define ICP_ANALYSIS_BUILDER_HH

#include "analysis/cfg.hh"
#include "analysis/jump_table.hh"
#include "support/stats.hh"

namespace icp
{

struct AnalysisOptions
{
    /**
     * Our gap-decoding heuristic: unresolved indirect jumps in a
     * function whose address range has no non-nop gaps are treated
     * as indirect tail calls instead of failing the function.
     * Dyninst-10.2 / SRBI lacks it.
     */
    bool tailCallHeuristic = true;

    JumpTableFailurePlan inject;

    /**
     * Worker threads for per-function CFG construction. 0 means one
     * per hardware thread; 1 builds serially on the caller. Results
     * are identical for any value (functions are independent).
     */
    unsigned threads = 1;

    /**
     * Consult/populate the process-wide AnalysisCache so repeat
     * rewrites of an unchanged image skip re-analysis. Not part of
     * the cache key; hits are bit-identical to fresh results.
     */
    bool useCache = true;

    /**
     * Restrict construction to function symbols whose entry lies in
     * [rangeLo, rangeHi). Per-function analysis never looks at other
     * functions, so a range-restricted build returns bit-identical
     * Function objects (same cache keys — the range is deliberately
     * not folded into the cache seed). Used by the sharded rewriter
     * to bound one slice's memory.
     */
    Addr rangeLo = 0;
    Addr rangeHi = ~static_cast<Addr>(0);
};

/**
 * Handles to buildCfg's data read-set counters in Metrics::global():
 * ranges and bytes recorded for freshly analyzed functions, and the
 * outcomes of re-hashing a cache hit's read-set (a rejected hit means
 * a data byte the function reads changed, so the hit degraded to a
 * conservative miss).
 */
struct DepsCounters
{
    static const DepsCounters &global();

    Counter rangesRecorded;
    Counter bytesRecorded;
    Counter hitsValidated;
    Counter hitsRejected;
};

/**
 * A module to build from: the CFG of an earlier build of the same
 * binary (same function symbols) and the entries whose functions
 * changed since (RewriteSession::loadInput's dirty set).
 */
struct CfgReuse
{
    const CfgModule *module = nullptr;
    const std::set<Addr> *dirty = nullptr;
};

/**
 * Build the module CFG for every function symbol in @p image. With
 * @p reuse, every function outside its dirty set is @p reuse's own
 * slot, shared as it is: no cache key, lookup or read-set check
 * (the caller has just validated it). Only the dirty functions go
 * through the analysis cache and the builder.
 */
CfgModule buildCfg(const BinaryImage &image,
                   const AnalysisOptions &opts = AnalysisOptions{},
                   const CfgReuse &reuse = CfgReuse{});

/**
 * Decode the instruction at @p addr of a function ending at @p end
 * the way buildCfg does: from at most maxInstrLen bytes of @p image,
 * never reading past @p end. An analysis-cache hit rebuilds a
 * record's instructions through this, so they equal the builder's.
 */
bool decodeInstructionAt(const BinaryImage &image, Addr addr, Addr end,
                         Instruction &in);

} // namespace icp

#endif // ICP_ANALYSIS_BUILDER_HH
