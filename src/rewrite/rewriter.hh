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
 * the rewriter skips its own CFG construction; with @c previous set,
 * the relocation engine re-emits only @c dirtyFunctions (entries)
 * and splices every other function's bytes from the previous pass,
 * falling back to a full emission when the layout cannot be
 * reproduced. RewriteSession owns the lifecycle; plain callers use
 * the two-argument overload.
 */
struct RewritePass
{
    const CfgModule *cfg = nullptr;
    const RewriteResult *previous = nullptr;
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
