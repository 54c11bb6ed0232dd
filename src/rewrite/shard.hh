/**
 * @file
 * Shard planning and worker-process management for the sharded
 * rewrite (`RewriteOptions::shards`). The rewriter partitions
 * the function space into contiguous address ranges; with more than
 * one, a worker process per range runs the analysis pipeline over
 * its slice and appends the results to a shared analysis-cache file
 * (the store's flock'd merge-on-save converges concurrent writers),
 * which the rewriter then consumes one range at a time so its peak
 * memory is bounded by one range's CFG rather than the whole
 * binary's.
 */

#ifndef ICP_REWRITE_SHARD_HH
#define ICP_REWRITE_SHARD_HH

#include <string>
#include <vector>

#include "binfmt/image.hh"
#include "rewrite/options.hh"

namespace icp
{

/** One shard: functions with entry in [lo, hi). */
struct ShardRange
{
    Addr lo = 0;
    Addr hi = 0;
};

/**
 * Partition the image's functions into at most @p shards contiguous
 * address ranges with near-equal function counts. The ranges tile
 * the whole address space (first starts at 0, last ends at ~0), so
 * every function belongs to exactly one shard. Returns fewer ranges
 * when the image has fewer functions than requested shards.
 */
std::vector<ShardRange> planShards(const BinaryImage &image,
                                   unsigned shards);

/**
 * Fork one worker process per shard (sequentially — workers exist to
 * bound memory, not for speedup on this host) to analyze its range
 * and append the results to the cache file at @p cache_path. Each
 * worker: clears the inherited in-memory cache, merges the file,
 * builds the shard's CFG (range-restricted, cache-backed), computes
 * liveness for the functions the rewrite will instrument, and
 * delta-saves back under the store's advisory lock.
 *
 * A worker that exits abnormally (crash, kill) is retried once; a
 * second failure marks the shard degraded and the coordinator simply
 * re-analyzes that range itself — correctness is never affected,
 * only warm-cache reuse. Per-shard attempts, degradation, and the
 * worker's peak RSS (wait4 ru_maxrss) are recorded in @p counters,
 * which must be sized to @p ranges.
 *
 * Test hooks (multi-process torn-tail coverage):
 *  - ICP_TEST_KILL_SHARD=<k>: worker k, on its first attempt only,
 *    appends a torn partial segment to the cache file and SIGKILLs
 *    itself mid-"save".
 *  - ICP_TEST_KILL_SHARD_ALWAYS=<k>: same, on every attempt — forces
 *    the degraded path.
 */
void runShardWorkers(const BinaryImage &image,
                     const RewriteOptions &opts,
                     const std::vector<ShardRange> &ranges,
                     const std::string &cache_path,
                     std::vector<ShardCounters> &counters);

} // namespace icp

#endif // ICP_REWRITE_SHARD_HH
