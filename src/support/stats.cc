#include "stats.hh"

#include <algorithm>
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

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::disasm: return "disasm";
      case Stage::cfg: return "cfg";
      case Stage::jumpTable: return "jump-table";
      case Stage::liveness: return "liveness";
      case Stage::funcPtr: return "func-ptr";
      case Stage::relocate: return "relocation";
      case Stage::trampoline: return "trampoline";
      case Stage::output: return "output";
      case Stage::lint: return "lint";
      case Stage::lintChains: return "lint.chains";
      case Stage::lintClones: return "lint.clones";
      case Stage::lintPtrs: return "lint.ptrs";
      case Stage::cacheLoad: return "cache.load";
      case Stage::cacheSave: return "cache.save";
      case Stage::cacheRebase: return "cache.rebase";
      case Stage::depsCompute: return "deps.compute";
      case Stage::depsValidate: return "deps.validate";
      case Stage::serve: return "serve.req";
      case Stage::count_: break;
    }
    return "?";
}

StageTimers &
StageTimers::global()
{
    static StageTimers timers;
    return timers;
}

void
StageTimers::add(Stage stage, std::uint64_t nanos)
{
    nanos_[static_cast<unsigned>(stage)].fetch_add(
        nanos, std::memory_order_relaxed);
}

std::uint64_t
StageTimers::nanos(Stage stage) const
{
    return nanos_[static_cast<unsigned>(stage)].load(
        std::memory_order_relaxed);
}

void
StageTimers::reset()
{
    for (auto &n : nanos_)
        n.store(0, std::memory_order_relaxed);
    CacheCounters::global().reset();
    DepsCounters::global().reset();
    ServeCounters::global().reset();
}

CacheCounters &
CacheCounters::global()
{
    static CacheCounters counters;
    return counters;
}

void
CacheCounters::reset()
{
    bytesMapped.store(0, std::memory_order_relaxed);
    bytesAppended.store(0, std::memory_order_relaxed);
    entriesLazy.store(0, std::memory_order_relaxed);
    crossHits.store(0, std::memory_order_relaxed);
}

DepsCounters &
DepsCounters::global()
{
    static DepsCounters counters;
    return counters;
}

void
DepsCounters::reset()
{
    rangesRecorded.store(0, std::memory_order_relaxed);
    bytesRecorded.store(0, std::memory_order_relaxed);
    hitsValidated.store(0, std::memory_order_relaxed);
    hitsRejected.store(0, std::memory_order_relaxed);
}

ServeCounters &
ServeCounters::global()
{
    static ServeCounters counters;
    return counters;
}

void
ServeCounters::reset()
{
    requests.store(0, std::memory_order_relaxed);
    errors.store(0, std::memory_order_relaxed);
    sessionHits.store(0, std::memory_order_relaxed);
    sessionMisses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    timeouts.store(0, std::memory_order_relaxed);
    badFrames.store(0, std::memory_order_relaxed);
    rejected.store(0, std::memory_order_relaxed);
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
StageTimers::table() const
{
    std::string out;
    char line[160];
    for (unsigned s = 0; s < static_cast<unsigned>(Stage::count_);
         ++s) {
        const auto stage = static_cast<Stage>(s);
        std::snprintf(line, sizeof(line), "  %-12s %10.3f ms\n",
                      stageName(stage),
                      static_cast<double>(nanos(stage)) / 1e6);
        out += line;
    }
    const CacheCounters &cc = CacheCounters::global();
    std::snprintf(line, sizeof(line),
                  "  %-12s %10llu bytes mapped, %llu appended, "
                  "%llu lazy entries, %llu cross hits\n",
                  "cache.io",
                  static_cast<unsigned long long>(
                      cc.bytesMapped.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(cc.bytesAppended.load(
                      std::memory_order_relaxed)),
                  static_cast<unsigned long long>(cc.entriesLazy.load(
                      std::memory_order_relaxed)),
                  static_cast<unsigned long long>(cc.crossHits.load(
                      std::memory_order_relaxed)));
    out += line;
    const DepsCounters &dc = DepsCounters::global();
    std::snprintf(
        line, sizeof(line),
        "  %-12s %10llu ranges (%llu bytes), %llu hits ok, "
        "%llu rejected\n",
        "deps.io",
        static_cast<unsigned long long>(
            dc.rangesRecorded.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            dc.bytesRecorded.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            dc.hitsValidated.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            dc.hitsRejected.load(std::memory_order_relaxed)));
    out += line;
    const ServeCounters &vc = ServeCounters::global();
    std::snprintf(
        line, sizeof(line),
        "  %-12s %10llu requests (%llu errors), %llu hits, "
        "%llu misses, %llu evicted\n",
        "serve.io",
        static_cast<unsigned long long>(
            vc.requests.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.errors.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.sessionHits.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.sessionMisses.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.evictions.load(std::memory_order_relaxed)));
    out += line;
    std::snprintf(line, sizeof(line), "  %-12s %10llu bytes\n",
                  "peak-rss",
                  static_cast<unsigned long long>(peakRssBytes()));
    out += line;
    return out;
}

std::string
StageTimers::json() const
{
    std::string out = "{";
    char item[96];
    for (unsigned s = 0; s < static_cast<unsigned>(Stage::count_);
         ++s) {
        const auto stage = static_cast<Stage>(s);
        std::snprintf(item, sizeof(item), "%s\"%s_ms\": %.3f",
                      s == 0 ? "" : ", ", stageName(stage),
                      static_cast<double>(nanos(stage)) / 1e6);
        out += item;
    }
    const CacheCounters &cc = CacheCounters::global();
    char counters[256];
    std::snprintf(
        counters, sizeof(counters),
        ", \"cache_bytes_mapped\": %llu, \"cache_bytes_appended\": "
        "%llu, \"cache_entries_lazy\": %llu, "
        "\"cache_cross_hits\": %llu",
        static_cast<unsigned long long>(
            cc.bytesMapped.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            cc.bytesAppended.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            cc.entriesLazy.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            cc.crossHits.load(std::memory_order_relaxed)));
    out += counters;
    const DepsCounters &dc = DepsCounters::global();
    char deps[192];
    std::snprintf(
        deps, sizeof(deps),
        ", \"deps_ranges_recorded\": %llu, \"deps_bytes_recorded\": "
        "%llu, \"deps_hits_validated\": %llu, "
        "\"deps_hits_rejected\": %llu",
        static_cast<unsigned long long>(
            dc.rangesRecorded.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            dc.bytesRecorded.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            dc.hitsValidated.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            dc.hitsRejected.load(std::memory_order_relaxed)));
    out += deps;
    const ServeCounters &vc = ServeCounters::global();
    char serve[384];
    std::snprintf(
        serve, sizeof(serve),
        ", \"serve_requests\": %llu, \"serve_errors\": %llu, "
        "\"serve_session_hits\": %llu, \"serve_session_misses\": "
        "%llu, \"serve_evictions\": %llu, \"serve_timeouts\": %llu, "
        "\"serve_bad_frames\": %llu, \"serve_rejected\": %llu",
        static_cast<unsigned long long>(
            vc.requests.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.errors.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.sessionHits.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.sessionMisses.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.evictions.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.timeouts.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.badFrames.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vc.rejected.load(std::memory_order_relaxed)));
    out += serve;
    std::snprintf(counters, sizeof(counters),
                  ", \"peak_rss_bytes\": %llu",
                  static_cast<unsigned long long>(peakRssBytes()));
    out += counters;
    out += "}";
    return out;
}

std::string
formatPercent(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, v * 100.0);
    return buf;
}

double
relativeDelta(double a, double b)
{
    icp_assert(a != 0, "relativeDelta: zero base");
    return (b - a) / a;
}

} // namespace icp
