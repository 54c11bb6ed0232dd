/**
 * @file
 * Small statistics helpers used by the experiment harness: min, max,
 * mean, and percentile over sample vectors, plus percent formatting,
 * and the per-stage pipeline timers the CLI's --timing flag and the
 * scaling benchmark report.
 */

#ifndef ICP_SUPPORT_STATS_HH
#define ICP_SUPPORT_STATS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace icp
{

/** Accumulates double samples and reports summary statistics. */
class SampleStats
{
  public:
    void add(double v);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double min() const;
    double max() const;
    double mean() const;
    /** p in [0, 100]; linear interpolation between order statistics. */
    double percentile(double p) const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

/**
 * Fixed-size latency record for long-running processes: counts in
 * log-spaced buckets (8 per octave, ~9% wide) from 1 us to ~270 s,
 * so its memory and the cost of a percentile query stay constant
 * however many samples arrive. A percentile reports the geometric
 * midpoint of the bucket holding its rank — within one bucket of the
 * exact value — capped at the exact maximum.
 */
class LatencyHistogram
{
  public:
    static constexpr unsigned per_octave = 8;
    static constexpr std::size_t bucket_count = 1 + 28 * per_octave;
    /** Upper bound of bucket 0, in milliseconds. */
    static constexpr double min_ms = 0.001;

    void add(double ms);

    std::uint64_t count() const { return count_; }
    double max() const { return max_; }

    /** p in [0, 100] by nearest rank; 0 when empty. */
    double percentile(double p) const;

    /** Bucket of a latency (0 = at or below min_ms). */
    static std::size_t bucketOf(double ms);

    const std::array<std::uint64_t, bucket_count> &
    buckets() const
    {
        return counts_;
    }

  private:
    std::array<std::uint64_t, bucket_count> counts_{};
    std::uint64_t count_ = 0;
    double max_ = 0.0;
};

/** Pipeline stages with dedicated wall-clock accumulators. */
enum class Stage : unsigned
{
    disasm,     ///< instruction decoding during CFG traversal
    cfg,        ///< block formation, edges, gap classification
    jumpTable,  ///< backward-slicing jump-table analysis
    liveness,   ///< register liveness fixpoints
    funcPtr,    ///< function-pointer analysis + rewriting
    relocate,   ///< per-function relocation/codegen + fixup
    trampoline, ///< trampoline placement + installation
    output,     ///< section assembly / maps / clobbering
    lint,       ///< static soundness verification
    lintChains, ///< lint: trampoline-chain walking
    lintClones, ///< lint: jump-table clone re-solving
    lintPtrs,   ///< lint: loaded function-pointer cells
    cacheLoad,  ///< on-disk AnalysisCache deserialization
    cacheSave,  ///< on-disk AnalysisCache serialization
    cacheRebase,///< rematerializing cross-binary hits at a new entry
    depsCompute,///< data read-set recording (computeDataDeps)
    depsValidate,///< data read-set re-hash on cache hits
    serve,      ///< serve daemon request handling
    count_      ///< number of stages (not a stage)
};

const char *stageName(Stage stage);

/**
 * Process-wide per-stage time accumulators. Workers on any thread
 * add to the same atomic counters, so under parallel execution a
 * stage's total is summed CPU time across threads (it can exceed
 * wall time); with one thread it is plain wall time. Reset between
 * runs to scope a measurement.
 */
class StageTimers
{
  public:
    static StageTimers &global();

    void add(Stage stage, std::uint64_t nanos);
    std::uint64_t nanos(Stage stage) const;
    void reset();

    /** Human-readable two-column table (for --timing). */
    std::string table() const;

    /** One flat JSON object: {"disasm_ms": 1.23, ...}. */
    std::string json() const;

  private:
    std::array<std::atomic<std::uint64_t>,
               static_cast<unsigned>(Stage::count_)>
        nanos_{};
};

/**
 * Process-wide counters for the on-disk analysis cache's hot-path
 * behavior: bytes mapped by load(), bytes appended by save(), and
 * entries deserialized lazily on first lookup. Reset together with
 * StageTimers (same measurement scope); reported by table()/json().
 */
class CacheCounters
{
  public:
    static CacheCounters &global();

    std::atomic<std::uint64_t> bytesMapped{0};
    std::atomic<std::uint64_t> bytesAppended{0};
    std::atomic<std::uint64_t> entriesLazy{0};

    /**
     * Hits whose stored entry was analyzed at a different entry
     * address (another binary, or the same library linked elsewhere)
     * and was rebased to the requested entry on lookup.
     */
    std::atomic<std::uint64_t> crossHits{0};

    void reset();
};

/**
 * Process-wide counters for the data read-set layer: ranges and
 * bytes recorded by computeDataDeps during CFG construction, and the
 * hit-validation outcomes (a rejected hit means a data byte the
 * function reads changed, so the hit degraded to a conservative
 * miss). Reset together with StageTimers; reported by table()/json().
 */
class DepsCounters
{
  public:
    static DepsCounters &global();

    std::atomic<std::uint64_t> rangesRecorded{0};
    std::atomic<std::uint64_t> bytesRecorded{0};
    std::atomic<std::uint64_t> hitsValidated{0};
    std::atomic<std::uint64_t> hitsRejected{0};

    void reset();
};

/**
 * Process-wide counters for the `icp serve` daemon: request volume,
 * structured error replies, warm-session hits vs misses, LRU
 * evictions, request timeouts, and malformed frames. Reset together
 * with StageTimers; reported by table()/json().
 */
class ServeCounters
{
  public:
    static ServeCounters &global();

    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> sessionHits{0};
    std::atomic<std::uint64_t> sessionMisses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> badFrames{0};

    /** Connections refused with `error=busy` (pending queue full). */
    std::atomic<std::uint64_t> rejected{0};

    void reset();
};

/**
 * Peak resident set size of this process in bytes (getrusage
 * ru_maxrss). Monotonic over the process lifetime: it cannot be
 * reset, so bound a measurement by running it in a fresh process.
 * Returns 0 where the platform offers no equivalent.
 */
std::uint64_t peakRssBytes();

/** RAII accumulator: adds the scope's duration to one stage. */
class StageTimer
{
  public:
    explicit StageTimer(Stage stage)
        : stage_(stage), start_(std::chrono::steady_clock::now())
    {
    }

    ~StageTimer()
    {
        const auto end = std::chrono::steady_clock::now();
        StageTimers::global().add(
            stage_,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - start_)
                    .count()));
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    Stage stage_;
    std::chrono::steady_clock::time_point start_;
};

/** Render v (e.g. 0.0123) as a percent string "1.23%". */
std::string formatPercent(double v, int decimals = 2);

/** Relative difference (b - a) / a. */
double relativeDelta(double a, double b);

} // namespace icp

#endif // ICP_SUPPORT_STATS_HH
