#include "spans.hh"

#include "util/logging.hh"
#include "obs/trace_event.hh"

namespace perfbench {

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::size_t
SpanRecorder::open(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    span.start = now();
    spans_.push_back(std::move(span));
    childSeconds_.push_back(0);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t id)
{
    panic_if(open_.empty() || open_.back() != id,
                  "span closed out of order: ", spans_[id].name);
    open_.pop_back();
    Span &span = spans_[id];
    span.end = now();
    if (span.parent >= 0)
        childSeconds_[static_cast<std::size_t>(span.parent)] +=
            span.duration();
}

void
SpanRecorder::count(std::size_t id, const std::string &key, double value)
{
    spans_[id].counts.emplace_back(key, value);
}

double
SpanRecorder::selfSeconds(std::size_t id) const
{
    return spans_[id].duration() - childSeconds_[id];
}

std::map<std::string, double>
SpanRecorder::selfByName() const
{
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] += selfSeconds(i);
    return self;
}

std::map<std::string, double>
SpanRecorder::totalByName() const
{
    std::map<std::string, double> total;
    for (const Span &span : spans_)
        total[span.name] += span.duration();
    return total;
}

void
SpanRecorder::writeTraceEvents(const std::string &path) const
{
    std::vector<ibp::obs::TraceEvent> events;
    events.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        ibp::obs::TraceEvent event;
        event.phase = 'X';
        event.name = span.name;
        event.category = "perfbench";
        event.timestampMicros = span.start * 1e6;
        event.durationMicros = span.duration() * 1e6;
        event.numberArgs = span.counts;
        event.numberArgs.emplace_back("id", static_cast<double>(i));
        event.numberArgs.emplace_back("parent",
                                      static_cast<double>(span.parent));
        event.numberArgs.emplace_back("self_us", selfSeconds(i) * 1e6);
        events.push_back(std::move(event));
    }
    ibp::obs::writeTraceEventsFile(path, events);
}

} // namespace perfbench
