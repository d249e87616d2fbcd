#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>
#include <future>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "obs/cputime.hh"
#include "obs/trace_event.hh"
#include "workload/program.hh"
#include "sim/checkpoint.hh"

namespace ibp::sim {

std::vector<double>
SuiteResult::averages() const
{
    std::vector<double> avg(predictorNames.size(), 0.0);
    if (cells.empty())
        return avg;
    for (const auto &row : cells)
        for (std::size_t c = 0; c < row.size(); ++c)
            avg[c] += row[c].missPercent;
    for (auto &a : avg)
        a /= static_cast<double>(cells.size());
    return avg;
}

const CellResult &
SuiteResult::cell(const std::string &row, const std::string &col) const
{
    for (std::size_t r = 0; r < rowNames.size(); ++r) {
        if (rowNames[r] != row)
            continue;
        for (std::size_t c = 0; c < predictorNames.size(); ++c)
            if (predictorNames[c] == col)
                return cells[r][c];
    }
    fatal("no suite cell (", row, ", ", col, ")");
}

trace::TraceBuffer
generateTrace(const workload::BenchmarkProfile &profile,
              double trace_scale)
{
    fatal_if(trace_scale <= 0, "trace scale must be positive");
    workload::Program program = workload::synthesize(profile.program);
    const auto records = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(profile.records) * trace_scale));
    return program.collect(records);
}

RunMetrics
runOne(const workload::BenchmarkProfile &profile,
       const std::string &predictor_name, const SuiteOptions &options)
{
    trace::TraceBuffer buffer =
        generateTrace(profile, options.traceScale);
    auto predictor = makePredictor(predictor_name, options.factory);
    Engine engine(options.engine);
    return engine.run(buffer, *predictor);
}

namespace {

/** Seconds elapsed since a wallSeconds() reading. */
double
secondsSince(double start)
{
    return obs::wallSeconds() - start;
}

CellResult
cellFromMetrics(const RunMetrics &metrics)
{
    CellResult cell;
    cell.missPercent = metrics.missPercent();
    cell.noPredictionPercent = metrics.noPrediction.percent();
    cell.predictions = metrics.mtIndirect;
    return cell;
}

/**
 * Load an existing progress file if resuming.  A missing file is a
 * normal first run (quiet); a corrupt file or one written by a
 * different suite configuration is downgraded to a warn() and a fresh
 * run — a stale checkpoint must never change what gets computed.
 */
void
loadSuiteProgressFor(const SuiteOptions &options,
                     SuiteProgress &progress)
{
    if (!options.resume)
        return;
    std::vector<std::uint8_t> bytes;
    if (!readCheckpointFile(options.checkpointPath, bytes).ok())
        return; // nothing to resume from
    SuiteProgress loaded;
    if (util::Status status = decodeSuiteProgress(bytes, loaded);
        !status.ok()) {
        warn("ignoring checkpoint ", options.checkpointPath, ": ",
             status.message());
        return;
    }
    if (loaded.fingerprint != progress.fingerprint) {
        warn("checkpoint ", options.checkpointPath,
             " was written by a different suite configuration; "
             "starting fresh");
        return;
    }
    progress = std::move(loaded);
}

/** Persist the progress file; failures warn but never stop the run. */
void
writeSuiteProgress(const SuiteOptions &options,
                   const SuiteProgress &progress)
{
    if (util::Status status = writeCheckpointFile(
            options.checkpointPath, encodeSuiteProgress(progress));
        !status.ok())
        warn("checkpoint write failed: ", status.message());
}

/**
 * Records per one-pass chunk.  Small enough that a chunk (96 KiB of
 * 24-byte records) stays cache-resident while every predictor column
 * consumes it; any size produces the same matrix (span-size
 * invariance of the replay loop).
 */
constexpr std::size_t kOnePassChunk = 4096;

/**
 * One benchmark row's trace, shared by the row's tasks: the first task
 * to acquire() generates it (concurrent ones wait on the same
 * generation), each task replays it through its own ReplaySource
 * cursor, and the last task's release() frees it.  With tasks run
 * inline a row's trace therefore lives from the row's first task to
 * its last, and a row with no tasks never generates one.
 */
class RowTrace
{
  public:
    RowTrace(const workload::BenchmarkProfile &profile,
             double trace_scale, std::size_t tasks)
        : profile_(&profile), traceScale_(trace_scale), pending_(tasks)
    {
    }

    /** The row's records, valid until this task calls release(). */
    const trace::TraceBuffer &
    acquire()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!records_) {
            obs::ScopedTraceSpan span("tracegen " + profile_->fullName(),
                                      "tracegen");
            const double start = obs::wallSeconds();
            records_ = std::make_unique<const trace::TraceBuffer>(
                generateTrace(*profile_, traceScale_));
            genSeconds_ = secondsSince(start);
        }
        return *records_;
    }

    /** One task is done with the trace; the last one frees it. */
    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            records_.reset();
    }

    /** Time the one generation took (0 if it never ran). */
    double
    genSeconds() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return genSeconds_;
    }

  private:
    const workload::BenchmarkProfile *profile_;
    double traceScale_;
    mutable std::mutex mutex_;
    // ibp-lint: guarded_by(mutex_)
    std::unique_ptr<const trace::TraceBuffer> records_;
    std::size_t pending_;  // ibp-lint: guarded_by(mutex_)
    double genSeconds_ = 0; // ibp-lint: guarded_by(mutex_)
};

/** A unit of scheduled work: one cell, or a one-pass row's columns. */
struct SuiteTask
{
    std::size_t row = 0;
    std::vector<std::size_t> cols;
};

/** One finished cell, as a task hands it to the merge. */
struct CellOutput
{
    std::size_t col = 0;
    CellResult cell;
    obs::ProbeRegistry probes;
    obs::Timeline timeline;
};

/** Everything one task produced. */
struct TaskOutput
{
    std::vector<CellOutput> cells;
    double cpuSeconds = 0; ///< the whole task, trace generation included
};

/**
 * The suite scheduler behind runSuite(): enumerates the tasks, runs
 * them inline or on a pool, and merges their outputs (and the
 * progress file) in submission order.
 */
class SuiteScheduler
{
  public:
    SuiteScheduler(const std::vector<workload::BenchmarkProfile> &profiles,
                   const std::vector<std::string> &predictor_names,
                   const SuiteOptions &options)
        : profiles_(profiles), names_(predictor_names),
          options_(options),
          checkpointing_(!options.checkpointPath.empty()),
          traces_(profiles.size())
    {
        result_.predictorNames = predictor_names;
        for (const auto &profile : profiles)
            result_.rowNames.push_back(profile.fullName());
        result_.cells.assign(profiles.size(),
                             std::vector<CellResult>(names_.size()));
        if (checkpointing_) {
            progress_.fingerprint =
                suiteFingerprint(profiles, predictor_names, options);
            loadSuiteProgressFor(options, progress_);
            // The snapshot is consumed by its cell's task; the file
            // carries a partial again only once a new one is taken.
            resume_ = std::move(progress_.partial);
            progress_.partial = PartialCell{};
        }
        enumerateTasks();
    }

    SuiteResult
    run(SuiteTiming *timing)
    {
        const unsigned threads =
            util::ThreadPool::resolveThreads(options_.threads);
        const double wall_start = obs::wallSeconds();
        double serial_equivalent = 0;
        unsigned threads_used = 1;
        if (threads <= 1) {
            for (const SuiteTask &task : tasks_)
                merge(task, runTask(task, true));
        } else {
            util::ThreadPool pool(threads);
            threads_used = pool.threadCount();
            std::vector<std::future<TaskOutput>> futures;
            futures.reserve(tasks_.size());
            for (const SuiteTask &task : tasks_)
                futures.push_back(pool.submit(
                    [this, &task] { return runTask(task, false); }));
            for (std::size_t i = 0; i < tasks_.size(); ++i) {
                TaskOutput output = futures[i].get();
                serial_equivalent += output.cpuSeconds;
                merge(tasks_[i], std::move(output));
            }
        }
        if (timing) {
            timing->wallSeconds = secondsSince(wall_start);
            timing->serialEquivalentSeconds =
                threads_used <= 1 ? timing->wallSeconds
                                  : serial_equivalent;
            timing->traceGenSeconds = 0;
            for (const auto &trace : traces_)
                if (trace)
                    timing->traceGenSeconds += trace->genSeconds();
            timing->threadsUsed = threads_used;
        }
        return std::move(result_);
    }

  private:
    /**
     * Place every cell the progress file already holds and queue a
     * task for the rest: one per cell, or one per row (its remaining
     * columns) in one-pass mode.  A fully resumed row needs no trace.
     */
    void
    enumerateTasks()
    {
        for (std::size_t r = 0; r < profiles_.size(); ++r) {
            std::vector<std::size_t> todo;
            for (std::size_t c = 0; c < names_.size(); ++c) {
                const CompletedCell *done =
                    checkpointing_
                        ? progress_.find(result_.rowNames[r], names_[c])
                        : nullptr;
                if (done)
                    place(r, c, done->cell, done->probes, done->timeline);
                else
                    todo.push_back(c);
            }
            if (todo.empty())
                continue;
            if (options_.onePass) {
                tasks_.push_back(SuiteTask{r, todo});
            } else {
                for (std::size_t c : todo)
                    tasks_.push_back(SuiteTask{r, {c}});
            }
            traces_[r] = std::make_unique<RowTrace>(
                profiles_[r], options_.traceScale,
                options_.onePass ? 1 : todo.size());
        }
    }

    TaskOutput
    runTask(const SuiteTask &task, bool inline_run)
    {
        const double cpu_start = obs::threadCpuSeconds();
        TaskOutput output;
        RowTrace &trace = *traces_[task.row];
        const trace::TraceBuffer &records = trace.acquire();
        if (options_.onePass)
            output.cells = runRow(task, records);
        else
            output.cells.push_back(
                runCell(task.row, task.cols.front(), records, inline_run));
        trace.release();
        output.cpuSeconds = obs::threadCpuSeconds() - cpu_start;
        return output;
    }

    /**
     * A cell task: one predictor over the row's trace, resuming from
     * the progress file's mid-cell snapshot when it names this cell.
     * Inline, with checkpointEvery set, it snapshots itself into the
     * progress file every checkpointEvery records.
     */
    CellOutput
    runCell(std::size_t r, std::size_t c, const trace::TraceBuffer &records,
            bool inline_run)
    {
        const std::string &row_name = result_.rowNames[r];
        const std::string &name = names_[c];
        obs::ScopedTraceSpan cell_span(row_name + " / " + name, "cell");
        auto predictor = makePredictor(name, options_.factory);
        ReplaySession session(options_.engine);
        trace::ReplaySource source(records);
        const double wall_start = obs::wallSeconds();
        const double cpu_start = obs::threadCpuSeconds();

        if (resume_.valid && resume_.row == row_name &&
            resume_.col == name &&
            !(restorePartialCell(resume_, *predictor, session) &&
              source.seek(resume_.cursor))) {
            warn("mid-cell checkpoint for (", row_name, ", ", name,
                 ") is unusable; replaying the cell from the start");
            predictor = makePredictor(name, options_.factory);
            session = ReplaySession(options_.engine);
            source.rewind();
        }

        const std::uint64_t every = options_.checkpointEvery;
        if (inline_run && checkpointing_ && every > 0) {
            while (session.run(source, *predictor, every) == every) {
                progress_.partial = capturePartialCell(
                    row_name, name, source.cursor(), *predictor, session);
                writeSuiteProgress(options_, progress_);
            }
        } else {
            session.run(source, *predictor);
        }

        CellOutput output;
        output.col = c;
        session.snapshotProbes(output.probes, *predictor);
        output.cell = cellFromMetrics(session.metrics());
        output.cell.cpuSeconds = obs::threadCpuSeconds() - cpu_start;
        output.cell.wallSeconds = secondsSince(wall_start);
        output.timeline = session.takeTimeline();
        return output;
    }

    /**
     * A one-pass row task: every remaining column's session is fed the
     * same chunk of the row's trace in turn, so the records are read
     * once per row.  Each cell is timed over its own feeds.
     */
    std::vector<CellOutput>
    runRow(const SuiteTask &task, const trace::TraceBuffer &records)
    {
        obs::ScopedTraceSpan row_span(
            result_.rowNames[task.row] + " / one-pass row", "cell");
        struct Column
        {
            std::unique_ptr<pred::IndirectPredictor> predictor;
            ReplaySession session;
            double wallSeconds = 0;
            double cpuSeconds = 0;
        };
        std::vector<Column> columns;
        columns.reserve(task.cols.size());
        for (std::size_t c : task.cols)
            columns.push_back(
                Column{makePredictor(names_[c], options_.factory),
                       ReplaySession(options_.engine)});

        trace::ReplaySource source(records);
        const trace::BranchRecord *span = nullptr;
        std::size_t n = 0;
        while ((n = source.nextSpan(span)) != 0) {
            for (std::size_t off = 0; off < n; off += kOnePassChunk) {
                const std::size_t len = std::min(kOnePassChunk, n - off);
                for (Column &column : columns) {
                    const double wall_start = obs::wallSeconds();
                    const double cpu_start = obs::threadCpuSeconds();
                    column.session.feed(span + off, len,
                                        *column.predictor);
                    column.cpuSeconds +=
                        obs::threadCpuSeconds() - cpu_start;
                    column.wallSeconds += secondsSince(wall_start);
                }
            }
        }

        std::vector<CellOutput> outputs(columns.size());
        for (std::size_t i = 0; i < columns.size(); ++i) {
            Column &column = columns[i];
            CellOutput &output = outputs[i];
            column.session.finishTimeline(*column.predictor);
            output.col = task.cols[i];
            column.session.snapshotProbes(output.probes,
                                          *column.predictor);
            output.cell = cellFromMetrics(column.session.metrics());
            output.cell.wallSeconds = column.wallSeconds;
            output.cell.cpuSeconds = column.cpuSeconds;
            output.timeline = column.session.takeTimeline();
        }
        return outputs;
    }

    /** Enter one finished cell into the result. */
    void
    place(std::size_t r, std::size_t c, const CellResult &cell,
          const obs::ProbeRegistry &probes, const obs::Timeline &timeline)
    {
        result_.cells[r][c] = cell;
        result_.probes[names_[c]].merge(probes);
        if (timeline.interval() > 0)
            result_.timelines[result_.rowNames[r]][names_[c]] = timeline;
    }

    /**
     * Merge a task's cells (the one merge path, in submission order),
     * then record them in the progress file.  Probe registries merge
     * by summation, so the result does not depend on which cells were
     * resumed.
     */
    void
    merge(const SuiteTask &task, TaskOutput output)
    {
        for (CellOutput &out : output.cells) {
            place(task.row, out.col, out.cell, out.probes, out.timeline);
            if (!checkpointing_)
                continue;
            CompletedCell done;
            done.row = result_.rowNames[task.row];
            done.col = names_[out.col];
            done.cell = out.cell;
            done.probes = std::move(out.probes);
            done.timeline = std::move(out.timeline);
            progress_.cells.push_back(std::move(done));
        }
        if (checkpointing_) {
            progress_.partial = PartialCell{};
            writeSuiteProgress(options_, progress_);
        }
    }

    const std::vector<workload::BenchmarkProfile> &profiles_;
    const std::vector<std::string> &names_;
    const SuiteOptions &options_;
    const bool checkpointing_;
    SuiteResult result_;
    SuiteProgress progress_;
    PartialCell resume_; ///< mid-cell snapshot to restore (read-only)
    std::vector<SuiteTask> tasks_;
    std::vector<std::unique_ptr<RowTrace>> traces_; ///< null: no tasks
};

} // namespace

SuiteResult
runSuite(const std::vector<workload::BenchmarkProfile> &profiles,
         const std::vector<std::string> &predictor_names,
         const SuiteOptions &options, SuiteTiming *timing)
{
    return SuiteScheduler(profiles, predictor_names, options).run(timing);
}

SeedSweepResult
runSeedSweep(const std::vector<workload::BenchmarkProfile> &profiles,
             const std::vector<std::string> &predictor_names,
             const SuiteOptions &options, unsigned num_seeds,
             SuiteTiming *timing)
{
    fatal_if(num_seeds == 0, "seed sweep needs at least one seed");
    SeedSweepResult sweep;
    sweep.predictorNames = predictor_names;
    if (timing)
        *timing = SuiteTiming{};

    for (unsigned s = 0; s < num_seeds; ++s) {
        std::vector<workload::BenchmarkProfile> reseeded = profiles;
        for (auto &profile : reseeded)
            profile.program.seed ^=
                0x9e3779b97f4a7c15ULL * (s + 1) >> 7;
        SuiteTiming seed_timing;
        const SuiteResult result = runSuite(
            reseeded, predictor_names, options, &seed_timing);
        sweep.perSeed.push_back(result.averages());
        if (timing) {
            timing->wallSeconds += seed_timing.wallSeconds;
            timing->serialEquivalentSeconds +=
                seed_timing.serialEquivalentSeconds;
            timing->traceGenSeconds += seed_timing.traceGenSeconds;
            timing->threadsUsed = seed_timing.threadsUsed;
        }
    }

    const auto cols = predictor_names.size();
    sweep.mean.assign(cols, 0.0);
    sweep.stddev.assign(cols, 0.0);
    for (const auto &row : sweep.perSeed)
        for (std::size_t c = 0; c < cols; ++c)
            sweep.mean[c] += row[c];
    for (auto &m : sweep.mean)
        m /= static_cast<double>(num_seeds);
    if (num_seeds > 1) {
        for (const auto &row : sweep.perSeed)
            for (std::size_t c = 0; c < cols; ++c) {
                const double d = row[c] - sweep.mean[c];
                sweep.stddev[c] += d * d;
            }
        for (auto &sd : sweep.stddev)
            sd = std::sqrt(sd / static_cast<double>(num_seeds - 1));
    }
    return sweep;
}

void
printSuiteTable(std::ostream &out, const SuiteResult &result,
                const SuiteTiming *timing)
{
    constexpr int kLabelWidth = 12;
    constexpr int kCellWidth = 10;

    out << std::left << std::setw(kLabelWidth) << "benchmark"
        << std::right;
    for (const auto &name : result.predictorNames)
        out << std::setw(kCellWidth)
            << (name.size() > std::size_t(kCellWidth - 1)
                    ? name.substr(0, kCellWidth - 1)
                    : name);
    out << '\n';

    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        out << std::left << std::setw(kLabelWidth) << result.rowNames[r]
            << std::right << std::fixed << std::setprecision(2);
        for (const auto &cell : result.cells[r])
            out << std::setw(kCellWidth) << cell.missPercent;
        out << '\n';
    }

    out << std::left << std::setw(kLabelWidth) << "average"
        << std::right << std::fixed << std::setprecision(2);
    for (double avg : result.averages())
        out << std::setw(kCellWidth) << avg;
    out << '\n';

    if (timing)
        printSuiteTimingFooter(out, *timing);
}

void
printSuiteTimingFooter(std::ostream &out, const SuiteTiming &timing)
{
    out << std::fixed << std::setprecision(2);
    if (timing.threadsUsed <= 1) {
        out << "wall-clock  " << timing.wallSeconds
            << " s (serial path)\n";
        return;
    }
    out << "wall-clock  " << timing.wallSeconds << " s on "
        << timing.threadsUsed << " threads (serial-equivalent "
        << timing.serialEquivalentSeconds << " s, speedup "
        << std::setprecision(1) << timing.speedup() << "x)\n";
}

namespace {

/** The metadata shared by every report shape. */
obs::RunReport
reportSkeleton(const std::string &tool, const SuiteOptions &options,
               const SuiteTiming &timing)
{
    obs::RunReport report;
    report.tool = tool;
    report.build = obs::BuildInfo::current();
    report.traceScale = options.traceScale;
    report.threads = options.threads;
    report.wallSeconds = timing.wallSeconds;
    report.serialEquivalentSeconds = timing.serialEquivalentSeconds;
    report.traceGenSeconds = timing.traceGenSeconds;
    report.threadsUsed = timing.threadsUsed;
    return report;
}

} // namespace

obs::RunReport
buildRunReport(const std::string &tool, const SuiteOptions &options,
               const SuiteResult &result, const SuiteTiming &timing)
{
    obs::RunReport report = reportSkeleton(tool, options, timing);
    report.hasSuite = true;
    report.predictors = result.predictorNames;
    report.rows = result.rowNames;
    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < result.predictorNames.size();
             ++c) {
            const CellResult &src = result.cells[r][c];
            obs::ReportCell cell;
            cell.row = result.rowNames[r];
            cell.predictor = result.predictorNames[c];
            cell.missPercent = src.missPercent;
            cell.noPredictionPercent = src.noPredictionPercent;
            cell.predictions = src.predictions;
            cell.wallSeconds = src.wallSeconds;
            cell.cpuSeconds = src.cpuSeconds;
            report.cells.push_back(std::move(cell));
        }
    }
    for (const auto &[name, registry] : result.probes)
        report.probes[name].merge(registry);
    // Timelines in suite order (row-major), not map order, so the
    // report section is deterministic and path-independent.
    for (const auto &row : result.rowNames) {
        const auto row_it = result.timelines.find(row);
        if (row_it == result.timelines.end())
            continue;
        for (const auto &predictor : result.predictorNames) {
            const auto cell_it = row_it->second.find(predictor);
            if (cell_it == row_it->second.end())
                continue;
            obs::ReportTimeline entry;
            entry.row = row;
            entry.predictor = predictor;
            entry.timeline = cell_it->second;
            entry.segmentation =
                obs::segmentTimeline(entry.timeline);
            report.timelines.push_back(std::move(entry));
        }
    }
    return report;
}

obs::RunReport
buildSweepReport(const std::string &tool, const SuiteOptions &options,
                 const SeedSweepResult &sweep,
                 const SuiteTiming &timing)
{
    obs::RunReport report = reportSkeleton(tool, options, timing);
    report.hasSweep = true;
    for (std::size_t c = 0; c < sweep.predictorNames.size(); ++c) {
        obs::ReportSweepColumn column;
        column.predictor = sweep.predictorNames[c];
        column.mean = sweep.mean[c];
        column.stddev = sweep.stddev[c];
        report.sweep.push_back(std::move(column));
    }
    report.scalars["seeds"] =
        static_cast<double>(sweep.perSeed.size());
    return report;
}

double
paperAverageFor(const std::string &predictor)
{
    // Suite averages the paper states explicitly (Section 5): PPM-hyb
    // 9.47%, Cascade 11.48%, TC-PIB 13.0%.  The remaining predictors'
    // averages are only plotted, not printed, so no number is
    // reproduced for them.
    if (predictor == "PPM-hyb")
        return 9.47;
    if (predictor == "Cascade")
        return 11.48;
    if (predictor == "TC-PIB")
        return 13.0;
    return -1.0;
}

} // namespace ibp::sim
