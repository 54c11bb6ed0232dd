/**
 * @file
 * Small statistics helpers used by the experiment harness: min, max,
 * mean, and percentile over sample vectors, plus percent formatting,
 * and the metrics registry the CLI's --timing flag, the serve
 * daemon's stats and the scaling benchmark report.
 */

#ifndef ICP_SUPPORT_STATS_HH
#define ICP_SUPPORT_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

/** One registered timer or counter (see Metrics). */
struct MetricEntry
{
    const std::string name;
    const bool timer;
    std::atomic<std::uint64_t> value{0};
    std::atomic<bool> touched{false};
};

/** A counter in a Metrics registry: a copyable handle to its cell. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1) const
    {
        entry_->value.fetch_add(n, std::memory_order_relaxed);
        if (!entry_->touched.load(std::memory_order_relaxed))
            entry_->touched.store(true, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return entry_->value.load(std::memory_order_relaxed);
    }

    operator std::uint64_t() const { return value(); }

  protected:
    friend class Metrics;
    explicit Counter(MetricEntry &entry) : entry_(&entry) {}
    MetricEntry *entry_;
};

/** A timer: a counter of self nanoseconds, fed by ScopedTimer. */
class Timer : public Counter
{
    friend class Metrics;
    using Counter::Counter;
};

/**
 * One set of named timers and counters. Each metric is registered
 * once, by name, and used through the handle registration returns;
 * any thread may add. table() and json() list the entries touched
 * since reset(), by name; when a timer is among them, then `wall`
 * (time since reset()), `(unattributed)` = wall − the timers' sum,
 * and `peak-rss`. Timers
 * hold self time (see ScopedTimer), so on one thread they never
 * overlap; with worker threads they sum the workers' time and
 * `(unattributed)` can go negative. A timer's JSON key is its name
 * plus `_ms`; a counter's is its name with `.` written as `_`.
 */
class Metrics
{
  public:
    Metrics();

    /** The process-wide registry of the analysis/rewrite pipeline. */
    static Metrics &global();

    /** Register the timer (or counter) @p name, or find it again. */
    Timer timer(const char *name) { return Timer(entry(name, true)); }
    Counter counter(const char *name) { return Counter(entry(name, false)); }

    /** Zero and untouch every entry; restart the wall clock. */
    void reset();

    /** Every counter, touched or not, by name. */
    std::map<std::string, std::uint64_t> counters() const;

    /** Two-column text table (for --timing). */
    std::string table() const;

    /** The same rows as one flat JSON object. */
    std::string json() const;

  private:
    struct Row
    {
        std::string name, key, value;
        const char *unit;
    };

    MetricEntry &entry(const char *name, bool timer);
    std::vector<Row> rows() const;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<MetricEntry>> entries_;
    std::int64_t startNs_;
};

/**
 * Peak resident set size of this process in bytes (getrusage
 * ru_maxrss). Monotonic over the process lifetime: it cannot be
 * reset, so bound a measurement by running it in a fresh process.
 * Returns 0 where the platform offers no equivalent.
 */
std::uint64_t peakRssBytes();

/**
 * RAII span: charges the scope's duration to one timer. A span
 * opened inside another on the same thread is charged to its own
 * timer only; the enclosing timer keeps the rest (its self time).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer timer);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Counter timer_;
    ScopedTimer *parent_;
    std::int64_t startNs_;
    std::int64_t childNs_ = 0;
};

/** Render v (e.g. 0.0123) as a percent string "1.23%". */
std::string formatPercent(double v, int decimals = 2);

} // namespace icp

#endif // ICP_SUPPORT_STATS_HH
