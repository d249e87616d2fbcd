/**
 * @file
 * In-memory span and count recorder for the traced run.
 *
 * A span is one call into a layer: its name (the per-layer metric it
 * feeds, e.g. "pred.ITTAGE.replay"), start and end on the steady
 * clock, and the span that was open when it began (its parent).
 * Counts (records, predictions, misses, bytes) ride on the span that
 * did the work.  Nothing is written until the run ends; then the
 * spans go out as Chrome trace-event JSON and are summarised as self
 * times: a span's duration minus the part its children cover.
 */

#ifndef PERFBENCH_SPANS_HH_
#define PERFBENCH_SPANS_HH_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the recorder's origin
        double end = 0;
        long parent = -1; ///< index into spans(), -1 for a root
        std::vector<std::pair<std::string, double>> counts;

        double duration() const { return end - start; }
    };

    SpanRecorder() : origin_(Clock::now()) {}

    /** Open a span as a child of the innermost open one. */
    std::size_t open(std::string name);

    /** Close the innermost open span, which must be @p id. */
    void close(std::size_t id);

    /** Attach a count to span @p id. */
    void count(std::size_t id, const std::string &key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of span @p id: duration minus its children's. */
    double selfSeconds(std::size_t id) const;

    /** Summed self time per span name. */
    std::map<std::string, double> selfByName() const;

    /** Summed duration per span name. */
    std::map<std::string, double> totalByName() const;

    /** Write every span as Chrome trace-event JSON (Perfetto-loadable). */
    void writeTraceEvents(const std::string &path) const;

  private:
    double now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::vector<double> childSeconds_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, std::string name)
        : recorder_(recorder), id_(recorder.open(std::move(name)))
    {}
    ~ScopedSpan() { recorder_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    count(const std::string &key, double value)
    {
        recorder_.count(id_, key, value);
    }

    std::size_t id() const { return id_; }

  private:
    SpanRecorder &recorder_;
    std::size_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH_
