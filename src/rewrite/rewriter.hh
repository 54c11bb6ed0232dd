/**
 * @file
 * Incremental CFG patching (§3): the top-level rewriter. Analyzes
 * the input binary, relocates instrumentable functions into .instr,
 * computes CFL blocks, runs trampoline placement analysis, installs
 * Table-2 trampolines (with multi-hop chaining and trap fallback),
 * clones jump tables, rewrites function pointers, emits the .ra_map
 * and .trap_map sections, moves the dynamic-linking sections and
 * reuses the retired ones as scratch space, and optionally clobbers
 * the original bytes for the strong correctness test of §8.
 */

#ifndef ICP_REWRITE_REWRITER_HH
#define ICP_REWRITE_REWRITER_HH

#include <vector>

#include "analysis/cfg.hh"
#include "rewrite/options.hh"

namespace icp
{

/**
 * Cross-pass context for an incremental re-rewrite. All pointers are
 * borrowed and must outlive the rewriteBinary call. With @c cfg set,
 * the rewriter skips its own CFG construction.
 *
 * With @c previous set too, the pass is a re-rewrite of the input
 * @c previous was made from, changed only in @c dirtyFunctions
 * (entries) and in data bytes no clean function reads. When every
 * dirty function keeps its shape — its pointer definitions, blocks,
 * jump tables, CFL blocks, trampoline requests and emitted block,
 * instruction and return-address offsets are those of the previous
 * pass — the pass replays @c previous: it moves that result's image,
 * manifest and counters out of it, brings the input's bytes up to
 * date, and re-emits only the dirty spans (RewriteResult::replayed).
 * The shape of a dirty function is judged against @c previousCfg,
 * the CFG the previous pass ran on (null: @c cfg, when the input is
 * the same). Otherwise, and always under clobbering, fault injection
 * or a trap demotion of a dirty function, the full pipeline runs,
 * and the relocation engine re-emits only the dirty functions and
 * splices every other function's bytes from @c previous, falling
 * back to a full emission when the layout cannot be reproduced.
 * RewriteSession owns the lifecycle; plain callers use the
 * two-argument overload.
 */
struct RewritePass
{
    const CfgModule *cfg = nullptr;
    RewriteResult *previous = nullptr;
    const CfgModule *previousCfg = nullptr;
    std::set<Addr> dirtyFunctions;
};

/** Rewrite @p input under @p options. Never throws; check result.ok. */
RewriteResult rewriteBinary(const BinaryImage &input,
                            const RewriteOptions &options);

/** Incremental form: reuse analysis and prior output via @p pass. */
RewriteResult rewriteBinary(const BinaryImage &input,
                            const RewriteOptions &options,
                            const RewritePass &pass);

class SbfSink;

/** One range of a sharded rewrite: functions with entry in [lo, hi). */
struct ShardRange
{
    Addr lo = 0;
    Addr hi = 0;
};

/**
 * Partition the image's functions into at most @p shards contiguous
 * address ranges with near-equal function counts. The ranges tile
 * the whole address space (first starts at 0, last ends at ~0), so
 * every function belongs to exactly one range. Returns fewer ranges
 * when the image has fewer functions than requested shards.
 */
std::vector<ShardRange> planShards(const BinaryImage &image,
                                   unsigned shards);

/**
 * Sharded, streaming rewrite (RewriteOptions::shards): the same
 * pipeline as rewriteBinary over planShards(shards) address ranges
 * instead of one. With several ranges the rewriter holds one
 * range's CFG at a time, analyzing it in memory in each pass without
 * the analysis cache (options.cachePath must be empty), and the
 * rewritten image is appended to @p sink in section/address order
 * instead of being materialized, so peak memory is O(largest range)
 * rather than O(binary). The byte stream written to @p sink is identical to
 * rewriteBinary(...).image.serialize() for the same input and
 * options. result.image is left empty; stats, counter maps and
 * per-shard counters are filled. Never throws; check result.ok.
 */
RewriteResult rewriteBinarySharded(const BinaryImage &input,
                                   const RewriteOptions &options,
                                   SbfSink &sink);

} // namespace icp

#endif // ICP_REWRITE_REWRITER_HH
