/**
 * @file
 * The traced run: one workload broken into calls on the layers'
 * public functions, made by the benchmark itself in the order the
 * runner makes them, with a span around each call.
 *
 * Each row (a suite profile, or one fuzz candidate of the fuzzer's
 * own candidate list) is walked in two phases.  The runner phase
 * repeats what the workload's runner does for that row (generate,
 * construct, replay, and on fuzz the checkpoint check); its summed
 * duration set against the same work untraced is the tracing
 * overhead.  The diagnostics phase adds the passes the per-layer
 * split needs: pack and decode, characterize(), the observe-only and
 * predict+observe passes, saveState()/loadState() of every trained
 * predictor, a cold replay of the full 23-name lineup, a
 * timeline-on/off replay, and the run report.
 */

#ifndef PERFBENCH_TRACED_HH_
#define PERFBENCH_TRACED_HH_

#include <map>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

/** The traced run's results. */
struct TracedResult
{
    /** Per-layer metric name -> value (units in perLayerUnits()). */
    std::map<std::string, double> metrics;
    /** Checkable items the walk produced (cells, or per-candidate
     *  miss rates and per-row candidate lists on fuzz). */
    Items items;
    /** What @c items must equal when the walk brings its own
     *  reference (fuzz); empty when the run's reference applies. */
    Items expected;
    /** Human-readable self-time summary. */
    std::vector<std::string> summary;
};

/** Every per-layer metric name with its unit, in report order. */
std::vector<std::pair<std::string, std::string>> perLayerUnits();

/**
 * Walk @p spec's workload with spans and reduce the spans to the
 * per-layer metrics.  @p untraced_wall is the wall time of one
 * untraced pass in the same process.  @p trace_path receives the
 * Chrome trace-event JSON of every span.
 */
TracedResult runTraced(const WorkloadSpec &spec, const Setup &setup,
                       std::uint64_t seed, double untraced_wall,
                       const std::string &trace_path);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH_
