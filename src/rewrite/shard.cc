#include "rewrite/shard.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/builder.hh"
#include "analysis/cache.hh"
#include "analysis/cache_store.hh"
#include "analysis/liveness.hh"
#include "support/logging.hh"

namespace icp
{

std::vector<ShardRange>
planShards(const BinaryImage &image, unsigned shards)
{
    const auto syms = image.functionSymbols();
    const unsigned n = std::max(
        1u, std::min<unsigned>(
                shards, static_cast<unsigned>(syms.size())));

    // Boundaries at equal function-count splits; ranges tile the
    // whole address space so membership is a pure range test.
    std::vector<ShardRange> ranges;
    Addr lo = 0;
    for (unsigned k = 0; k < n; ++k) {
        ShardRange r;
        r.lo = lo;
        if (k + 1 == n) {
            r.hi = ~static_cast<Addr>(0);
        } else {
            const std::size_t split = syms.size() * (k + 1) / n;
            r.hi = syms[split]->addr;
        }
        lo = r.hi;
        ranges.push_back(r);
    }
    return ranges;
}

namespace
{

/**
 * The worker body: warm the cache shard for one range. Runs in a
 * forked child; must not touch the coordinator's state and exits
 * via _exit (no atexit/stdio teardown of the parent's handles).
 */
int
shardWorkerBody(const BinaryImage &image, const RewriteOptions &opts,
                const ShardRange &range,
                const std::string &cache_path)
{
    // The child inherits the parent's in-memory cache; drop it so
    // this worker's memory is bounded by its own shard.
    AnalysisCache::global().clear();
    AnalysisCache::global().load(cache_path, image.arch);

    AnalysisOptions analysis = opts.analysis;
    analysis.threads = 1;
    analysis.useCache = true;
    analysis.rangeLo = range.lo;
    analysis.rangeHi = range.hi;
    const CfgModule cfg = buildCfg(image, analysis);

    // Liveness for the functions the coordinator will instrument
    // (trampoline scratch-register selection on the fixed ISAs).
    const ArchInfo &arch = image.archInfo();
    if (arch.fixedLength) {
        for (const auto &[entry, func] : cfg.functions) {
            (void)entry;
            if (!func.instrumentable() || func.cacheKey == 0)
                continue;
            if (!opts.onlyFunctions.empty() &&
                !opts.onlyFunctions.count(func.name))
                continue;
            if (AnalysisCache::global().findLiveness(func.cacheKey,
                                                     func.entry))
                continue;
            AnalysisCache::global().storeLiveness(
                func.cacheKey, image.arch, func.entry,
                computeLiveness(func, arch));
        }
    }
    return AnalysisCache::global().save(cache_path) ? 0 : 1;
}

/**
 * Concurrency-test hook: when ICP_TEST_SHARD_BARRIER=<dir>:<count>
 * is set, the worker drops a start file into <dir> and waits (up to
 * ~10 s) until all <count> start files exist before doing any work.
 * Only a coordinator that launches every worker before reaping any
 * can pass the barrier; a serialized launch-reap loop would park its
 * single live worker in the timeout. Returns false on timeout.
 */
bool
maybeBarrierForTest(unsigned shard)
{
    const char *spec = std::getenv("ICP_TEST_SHARD_BARRIER");
    if (!spec)
        return true;
    const std::string s(spec);
    const std::size_t colon = s.rfind(':');
    if (colon == std::string::npos)
        return true;
    const std::string dir = s.substr(0, colon);
    const unsigned count =
        static_cast<unsigned>(std::atoi(s.c_str() + colon + 1));
    char path[512];
    std::snprintf(path, sizeof(path), "%s/shard-%u.started",
                  dir.c_str(), shard);
    if (std::FILE *f = std::fopen(path, "wb"))
        std::fclose(f);
    for (int spin = 0; spin < 10000; ++spin) {
        unsigned present = 0;
        for (unsigned k = 0; k < count; ++k) {
            std::snprintf(path, sizeof(path), "%s/shard-%u.started",
                          dir.c_str(), k);
            if (::access(path, F_OK) == 0)
                ++present;
        }
        if (present == count)
            return true;
        ::usleep(1000);
    }
    return false;
}

/**
 * Crash-test hook: simulate a worker killed mid-save by appending a
 * torn partial segment to the cache file (what an interrupted
 * appender leaves behind) and SIGKILLing ourselves.
 */
void
maybeKillForTest(unsigned shard, unsigned attempt,
                 const std::string &cache_path)
{
    const char *once = std::getenv("ICP_TEST_KILL_SHARD");
    const char *always = std::getenv("ICP_TEST_KILL_SHARD_ALWAYS");
    const char *sel = always ? always : once;
    if (!sel || static_cast<unsigned>(std::atoi(sel)) != shard)
        return;
    if (!always && attempt != 0)
        return;
    if (std::FILE *f = std::fopen(cache_path.c_str(), "ab")) {
        // A plausible-looking segment header cut off mid-payload.
        const std::uint8_t torn[] = {'I', 'C', 'P', 'S', 0xff, 0x13,
                                     0x37, 0x00, 0xde, 0xad};
        std::fwrite(torn, 1, sizeof(torn), f);
        std::fclose(f);
    }
    ::raise(SIGKILL);
}

} // namespace

void
runShardWorkers(const BinaryImage &image, const RewriteOptions &opts,
                const std::vector<ShardRange> &ranges,
                const std::string &cache_path,
                std::vector<ShardCounters> &counters)
{
    icp_assert(counters.size() == ranges.size(),
               "counters not sized to shard plan");

    // Fork one worker per shard (and, on failure, one sequential
    // retry). The attempt spawns the child and returns its pid (or
    // -1 under fork pressure); the reap waits for it and harvests
    // peak RSS. Shards write disjoint key sets and the cache save
    // serializes on the file's flock, so concurrent workers merge
    // segments instead of clobbering.
    auto launch = [&](std::size_t k, unsigned attempt) -> pid_t {
        ++counters[k].workerAttempts;
        const pid_t pid = ::fork();
        if (pid == 0) {
            maybeKillForTest(static_cast<unsigned>(k), attempt,
                             cache_path);
            if (!maybeBarrierForTest(static_cast<unsigned>(k)))
                ::_exit(3);
            ::_exit(shardWorkerBody(image, opts, ranges[k],
                                    cache_path));
        }
        return pid; // < 0: fork pressure — degrade, never fail
    };
    auto reap = [&](std::size_t k, pid_t pid) -> bool {
        if (pid < 0)
            return false;
        int status = 0;
        struct rusage ru;
        std::memset(&ru, 0, sizeof(ru));
        if (::wait4(pid, &status, 0, &ru) != pid)
            return false;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return false;
#if defined(__APPLE__)
        counters[k].workerPeakRssBytes =
            static_cast<std::uint64_t>(ru.ru_maxrss);
#else
        counters[k].workerPeakRssBytes =
            static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
        return true;
    };

    // Phase 1: launch every shard's worker, then reap them all in
    // launch order — the analysis overlaps across cores instead of
    // serializing on each child's exit.
    std::vector<pid_t> pids(ranges.size(), -1);
    for (std::size_t k = 0; k < ranges.size(); ++k)
        pids[k] = launch(k, 0);
    std::vector<bool> ok(ranges.size(), false);
    for (std::size_t k = 0; k < ranges.size(); ++k)
        ok[k] = reap(k, pids[k]);

    // Phase 2: one sequential retry per failed shard (a crashed
    // worker may have left a torn cache tail; retrying serially
    // keeps the repair-then-append window simple to reason about).
    for (std::size_t k = 0; k < ranges.size(); ++k) {
        if (!ok[k])
            ok[k] = reap(k, launch(k, 1));
        // Degraded: the coordinator re-analyzes this range itself
        // when it gets there; the torn tail the crash may have left
        // is dropped by the store's load-time validation.
        counters[k].degraded = !ok[k];
    }
}

} // namespace icp
