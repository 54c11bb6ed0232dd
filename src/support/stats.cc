#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "logging.hh"

namespace icp
{

void
SampleStats::add(double v)
{
    samples_.push_back(v);
}

double
SampleStats::min() const
{
    icp_assert(!samples_.empty(), "SampleStats::min on empty set");
    return *std::min_element(samples_.begin(), samples_.end());
}

double
SampleStats::max() const
{
    icp_assert(!samples_.empty(), "SampleStats::max on empty set");
    return *std::max_element(samples_.begin(), samples_.end());
}

double
SampleStats::mean() const
{
    icp_assert(!samples_.empty(), "SampleStats::mean on empty set");
    double total = 0;
    for (double v : samples_)
        total += v;
    return total / static_cast<double>(samples_.size());
}

double
SampleStats::percentile(double p) const
{
    icp_assert(!samples_.empty(), "SampleStats::percentile on empty set");
    icp_assert(p >= 0 && p <= 100, "percentile out of range");
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::size_t
LatencyHistogram::bucketOf(double ms)
{
    if (!(ms > min_ms))
        return 0;
    const double octaves = std::log2(ms / min_ms);
    return std::min<std::size_t>(
        bucket_count - 1,
        1 + static_cast<std::size_t>(octaves * per_octave));
}

void
LatencyHistogram::add(double ms)
{
    ++counts_[bucketOf(ms)];
    ++count_;
    max_ = std::max(max_, ms);
}

double
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    std::size_t b = 0;
    for (; b + 1 < bucket_count; ++b) {
        seen += counts_[b];
        if (seen >= rank)
            break;
    }
    const double mid =
        b == 0 ? min_ms
               : min_ms * std::exp2((static_cast<double>(b) - 0.5) /
                                    per_octave);
    return std::min(mid, max_);
}

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
formatMs(double ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
    return buf;
}

/** The innermost open ScopedTimer on this thread. */
thread_local ScopedTimer *open_timer = nullptr;

} // namespace

Metrics::Metrics() : startNs_(nowNs()) {}

Metrics &
Metrics::global()
{
    // Never destroyed: worker threads may still close spans at exit.
    static Metrics *metrics = new Metrics;
    return *metrics;
}

MetricEntry &
Metrics::entry(const char *name, bool timer)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &e : entries_) {
        if (e->name == name) {
            icp_assert(e->timer == timer,
                       "metric %s is both a timer and a counter", name);
            return *e;
        }
    }
    entries_.push_back(
        std::unique_ptr<MetricEntry>(new MetricEntry{name, timer}));
    return *entries_.back();
}

void
Metrics::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &e : entries_) {
        e->value.store(0, std::memory_order_relaxed);
        e->touched.store(false, std::memory_order_relaxed);
    }
    startNs_ = nowNs();
}

std::map<std::string, std::uint64_t>
Metrics::counters() const
{
    std::map<std::string, std::uint64_t> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &e : entries_) {
        if (!e->timer)
            out[e->name] = e->value.load(std::memory_order_relaxed);
    }
    return out;
}

std::vector<Metrics::Row>
Metrics::rows() const
{
    std::vector<Row> rows;
    bool timed = false;
    std::int64_t self_ns = 0, wall_ns = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &e : entries_) {
            if (!e->touched.load(std::memory_order_relaxed))
                continue;
            const std::uint64_t v =
                e->value.load(std::memory_order_relaxed);
            std::string key = e->name;
            if (e->timer) {
                timed = true;
                self_ns += static_cast<std::int64_t>(v);
                rows.push_back({e->name, key + "_ms",
                                formatMs(static_cast<double>(v)), "ms"});
            } else {
                std::replace(key.begin(), key.end(), '.', '_');
                rows.push_back({e->name, key, std::to_string(v), ""});
            }
        }
        wall_ns = nowNs() - startNs_;
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.name < b.name; });
    if (!timed)
        return rows;
    rows.push_back({"wall", "wall_ms",
                    formatMs(static_cast<double>(wall_ns)), "ms"});
    rows.push_back({"(unattributed)", "unattributed_ms",
                    formatMs(static_cast<double>(wall_ns - self_ns)),
                    "ms"});
    rows.push_back({"peak-rss", "peak_rss_bytes",
                    std::to_string(peakRssBytes()), "bytes"});
    return rows;
}

std::string
Metrics::table() const
{
    std::string out;
    char line[160];
    for (const Row &r : rows()) {
        std::snprintf(line, sizeof(line), "  %-20s %12s%s%s\n",
                      r.name.c_str(), r.value.c_str(),
                      *r.unit ? " " : "", r.unit);
        out += line;
    }
    return out;
}

std::string
Metrics::json() const
{
    std::string out;
    for (const Row &r : rows())
        out += (out.empty() ? "\"" : ", \"") + r.key + "\": " + r.value;
    return "{" + out + "}";
}

ScopedTimer::ScopedTimer(Timer timer)
    : timer_(timer), parent_(open_timer), startNs_(nowNs())
{
    open_timer = this;
}

ScopedTimer::~ScopedTimer()
{
    const std::int64_t elapsed = nowNs() - startNs_;
    timer_.add(static_cast<std::uint64_t>(elapsed - childNs_));
    if (parent_)
        parent_->childNs_ += elapsed;
    open_timer = parent_;
}

std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss); // already bytes
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024; // KiB
#endif
#else
    return 0;
#endif
}

std::string
formatPercent(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, v * 100.0);
    return buf;
}

} // namespace icp
