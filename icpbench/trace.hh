/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * opened around calls into the rewriter's public functions, one root
 * span per benchmark op; each span carries the op id, its parent and
 * a layer name (the src/ module the call belongs to). Nothing is
 * written until the run ends: writeChromeTrace() emits Chrome
 * trace-event JSON (viewable offline in Perfetto or chrome://tracing)
 * and breakdown() splits every op into per-layer self times.
 *
 * A disabled tracer records nothing and reads no clock, so untraced
 * passes run the same code with the span calls reduced to a branch.
 */

#ifndef ICPBENCH_TRACE_HH
#define ICPBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace icpbench
{

struct SpanRecord
{
    std::uint32_t op = 0;
    std::int32_t parent = -1; ///< index of the parent span, -1 for a root
    const char *layer = "";
    const char *name = "";
    double startUs = 0.0; ///< microseconds since the tracer's epoch
    double endUs = 0.0;
};

/** One root span's duration and its per-layer self times. */
struct OpBreakdown
{
    double durMs = 0.0;
    /** Self time per layer; the root's own share is under "op". */
    std::map<std::string, double> selfMs;
    /** Self time per span name (one layer may own several calls). */
    std::map<std::string, double> selfByName;
    /** Duration of the first span per layer (for "serve" round trips). */
    std::map<std::string, double> firstDurMs;
};

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *layer, const char *name);
    void close(int id);

    /** Open the root span of a new op; -1 when disabled. */
    int openOp(const char *name);

    /** Self-time split of every root span recorded so far. */
    std::vector<OpBreakdown> breakdown() const;

    /** Write all spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double nowUs() const;

    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    std::uint32_t nextOp_ = 0;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/** RAII span: a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, const char *layer, const char *name)
        : tracer_(tracer), id_(tracer.open(layer, name))
    {
    }

    ~Span() { tracer_.close(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace icpbench

#endif // ICPBENCH_TRACE_HH
