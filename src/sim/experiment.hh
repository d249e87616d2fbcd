/**
 * @file
 * Suite runner and table rendering: the machinery behind every
 * Figure/Table-regenerating bench binary.
 *
 * A suite run generates each benchmark profile's trace once and plays
 * it through a list of factory-built predictors, producing the
 * benchmark x predictor misprediction matrix the paper plots.
 *
 * One scheduler runs every suite.  It enumerates tasks — one per
 * (benchmark row, predictor column) cell, or one per row when
 * SuiteOptions::onePass is set — skipping cells a resumed progress
 * file already holds.  With one worker the tasks run inline on the
 * caller's thread; otherwise on a fixed-size ThreadPool.  Either way
 * each row's trace is generated once, shared read-only by the row's
 * tasks (each through its own cursor into a factory-fresh predictor
 * and ReplaySession), and released after the row's last task; outputs
 * merge in submission order.  No simulation state is shared, so the
 * matrix is bit-identical for every thread count and task kind
 * (enforced by tests/test_parallel_suite.cc,
 * tests/test_one_pass_suite.cc and the golden fixtures in
 * tests/golden/).
 */

#ifndef IBP_SIM_EXPERIMENT_HH_
#define IBP_SIM_EXPERIMENT_HH_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/trace_buffer.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "workload/profiles.hh"
#include "sim/engine.hh"
#include "sim/factory.hh"
#include "sim/metrics.hh"

namespace ibp::sim {

/** Suite-run options. */
struct SuiteOptions
{
    double traceScale = 1.0; ///< multiplies each profile's record count
    /**
     * Worker threads for the suite matrix: 1 (default) runs every task
     * inline on the caller's thread, 0 uses hardware concurrency, any
     * other value that many pool workers.  The resulting matrix is
     * bit-identical for every setting.
     */
    unsigned threads = 1;
    FactoryOptions factory;
    EngineConfig engine;

    /**
     * Progress-file path for checkpoint/resume (see sim/checkpoint.hh).
     * When non-empty, the runner records every completed cell there
     * (written atomically after each cell) and, with resume, skips the
     * cells a previous interrupted run already finished.  The file
     * carries a fingerprint of the exact matrix configuration; a
     * mismatch or a corrupt file downgrades to a warn() and a fresh
     * run.  Empty (the default) disables checkpointing entirely.
     */
    std::string checkpointPath;

    /**
     * Mid-cell checkpoint cadence in replayed records (0 = cell
     * granularity).  Every @c checkpointEvery records the in-flight
     * cell's full simulation state is snapshotted into the progress
     * file, so even a single long cell resumes mid-replay instead of
     * restarting.  Snapshots are taken by cell tasks run inline
     * (threads resolving to 1); a snapshot found on resume is
     * restored by the cell's task at any thread count, while a
     * one-pass row task replays that cell from the start.
     */
    std::uint64_t checkpointEvery = 0;

    /** Resume from checkpointPath if it exists and matches. */
    bool resume = false;

    /**
     * One-pass-many-predictors replay: schedule one task per row
     * instead of one per cell.  A row task reads the row's trace once
     * and feeds every remaining predictor column from the shared
     * records (in chunks, so the stream stays cache-resident), instead
     * of re-reading the trace once per cell.  Results are bit-identical
     * to cell tasks — the replay loop carries no cross-chunk state
     * beyond each session's RAS/metrics/predictor — and invariant to
     * thread count.  Checkpointing works at row granularity: a
     * finished row's cells enter the progress file together, and a
     * resumed run skips every completed cell.
     */
    bool onePass = false;
};

/** Wall-clock accounting for one suite run (or an aggregate of runs). */
struct SuiteTiming
{
    double wallSeconds = 0;
    /**
     * Summed thread-CPU time of every task, each row's one trace
     * generation included — what the same work would have cost on
     * one thread.  When the tasks run inline this equals wallSeconds.
     */
    double serialEquivalentSeconds = 0;
    /** Time spent generating (not replaying) traces, once per row. */
    double traceGenSeconds = 0;
    unsigned threadsUsed = 1;

    double
    speedup() const
    {
        return wallSeconds > 0 ? serialEquivalentSeconds / wallSeconds
                               : 1.0;
    }
};

/** One (benchmark, predictor) cell of the result matrix. */
struct CellResult
{
    double missPercent = 0;
    double noPredictionPercent = 0;
    std::uint64_t predictions = 0;
    double wallSeconds = 0; ///< this cell's replay wall time
    /** Thread-CPU time of this cell's replay alone; trace generation
     *  is counted once per row, in SuiteTiming::traceGenSeconds. */
    double cpuSeconds = 0;
};

/** The full matrix. */
struct SuiteResult
{
    std::vector<std::string> predictorNames; ///< columns
    std::vector<std::string> rowNames;       ///< benchmark runs
    std::vector<std::vector<CellResult>> cells; ///< [row][col]

    /**
     * One merged probe registry per predictor column, aggregated over
     * the benchmark rows.  Empty registries in probes-off builds still
     * carry the counter names (values zero).
     */
    std::map<std::string, obs::ProbeRegistry> probes;

    /**
     * Per-cell deterministic timelines, [row name][predictor name].
     * Populated only when SuiteOptions::engine.timeline is enabled;
     * bit-identical across thread counts, execution paths and
     * checkpoint/resume, like the matrix itself.
     */
    std::map<std::string, std::map<std::string, obs::Timeline>>
        timelines;

    /** Column arithmetic means (the paper's "average" bars). */
    std::vector<double> averages() const;

    /** Cell lookup by names; fatal() if absent. */
    const CellResult &cell(const std::string &row,
                           const std::string &col) const;
};

/** Generate a profile's trace (honouring the scale factor). */
trace::TraceBuffer generateTrace(const workload::BenchmarkProfile &,
                                 double trace_scale = 1.0);

/** Run one profile x one predictor; returns the full metrics. */
RunMetrics runOne(const workload::BenchmarkProfile &profile,
                  const std::string &predictor_name,
                  const SuiteOptions &options = {});

/**
 * Run the full matrix with the suite scheduler (see the file comment):
 * cell or row tasks, inline when SuiteOptions::threads resolves to one
 * worker, otherwise on a ThreadPool.  @p timing, when non-null,
 * receives wall-clock accounting for the run.
 */
SuiteResult runSuite(const std::vector<workload::BenchmarkProfile> &,
                     const std::vector<std::string> &predictor_names,
                     const SuiteOptions &options = {},
                     SuiteTiming *timing = nullptr);

/** Mean and spread of suite averages over re-seeded workloads. */
struct SeedSweepResult
{
    std::vector<std::string> predictorNames;
    std::vector<double> mean;   ///< suite-average miss% per predictor
    std::vector<double> stddev;
    /** Per-seed suite averages, [seed][predictor]. */
    std::vector<std::vector<double>> perSeed;
};

/**
 * Re-run the whole suite @p num_seeds times with perturbed workload
 * seeds (the profiles' structure is identical; only the RNG streams
 * change) and report the mean and standard deviation of each
 * predictor's suite average.  Used to show the Figure-6 ordering is a
 * property of the workload statistics, not of one lucky seed.
 */
SeedSweepResult
runSeedSweep(const std::vector<workload::BenchmarkProfile> &,
             const std::vector<std::string> &predictor_names,
             const SuiteOptions &options, unsigned num_seeds,
             SuiteTiming *timing = nullptr);

/**
 * Render the matrix as a fixed-width ASCII table with averages.  With
 * @p timing, append a wall-clock / speedup footer line.
 */
void printSuiteTable(std::ostream &out, const SuiteResult &result,
                     const SuiteTiming *timing = nullptr);

/** Just the wall-clock / speedup footer line (the table's footer). */
void printSuiteTimingFooter(std::ostream &out,
                            const SuiteTiming &timing);

/**
 * The paper's published per-predictor suite averages (Figure 6 / 7 /
 * Section 5 text), for paper-vs-measured reporting.  Returns a
 * negative value when the paper gives no number for @p predictor.
 */
double paperAverageFor(const std::string &predictor);

/**
 * Flatten a suite run into the versioned obs::RunReport shape
 * (matrix cells, per-predictor probe registries, timelines, timing,
 * build metadata).  @p tool names the
 * emitting driver ("bench_fig6", ...).
 */
obs::RunReport buildRunReport(const std::string &tool,
                              const SuiteOptions &options,
                              const SuiteResult &result,
                              const SuiteTiming &timing);

/** RunReport for a seed sweep (fills the sweep section instead). */
obs::RunReport buildSweepReport(const std::string &tool,
                                const SuiteOptions &options,
                                const SeedSweepResult &sweep,
                                const SuiteTiming &timing);

} // namespace ibp::sim

#endif // IBP_SIM_EXPERIMENT_HH_
