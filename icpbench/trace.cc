#include "trace.hh"

#include <cstdio>
#include <fstream>

namespace icpbench
{

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch_)
        .count();
}

int
Tracer::open(const char *layer, const char *name)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.op = nextOp_ == 0 ? 0 : nextOp_ - 1;
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.layer = layer;
    rec.name = name;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(rec);
    stack_.push_back(id);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    spans_.back().startUs = nowUs();
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    const double end = nowUs();
    spans_[static_cast<std::size_t>(id)].endUs = end;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

int
Tracer::openOp(const char *name)
{
    if (!enabled_)
        return -1;
    ++nextOp_;
    stack_.clear();
    return open("op", name);
}

std::vector<OpBreakdown>
Tracer::breakdown() const
{
    // Children always follow their parent in spans_, so one pass
    // subtracting each span's duration from its parent's self time
    // leaves every span's self time.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endUs - spans_[i].startUs;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            self[static_cast<std::size_t>(spans_[i].parent)] -=
                spans_[i].endUs - spans_[i].startUs;

    std::vector<OpBreakdown> ops;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        if (s.parent < 0) {
            OpBreakdown b;
            b.durMs = (s.endUs - s.startUs) / 1000.0;
            ops.push_back(std::move(b));
        }
        if (ops.empty())
            continue;
        OpBreakdown &b = ops.back();
        b.selfMs[s.layer] += self[i] / 1000.0;
        b.selfByName[s.name] += self[i] / 1000.0;
        b.firstDurMs.emplace(s.layer, (s.endUs - s.startUs) / 1000.0);
    }
    return ops;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                      "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                      "\"pid\": 1, \"tid\": 1, \"args\": {\"op\": %u, "
                      "\"id\": %zu, \"parent\": %d}}",
                      i ? "," : "", s.name, s.layer, s.startUs,
                      s.endUs - s.startUs, s.op, i, s.parent);
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace icpbench
