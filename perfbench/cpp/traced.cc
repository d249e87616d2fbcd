#include "traced.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "util/random.hh"
#include "util/serde.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_stats.hh"
#include "obs/cputime.hh"
#include "obs/report.hh"
#include "workload/adversarial.hh"
#include "workload/program.hh"
#include "sim/differential.hh"
#include "sim/engine.hh"
#include "sim/factory.hh"
#include "spans.hh"

namespace perfbench {

namespace {

namespace wl = ibp::workload;
namespace sim = ibp::sim;
namespace tr = ibp::trace;
using PredictorPtr = std::unique_ptr<ibp::pred::IndirectPredictor>;

/** Records of the cold 23-name lineup replay (one fuzz candidate). */
constexpr std::uint64_t kColdRecords = kFuzzRecords;
/** Timeline window of the sampling-on replay. */
constexpr std::uint64_t kTimelineInterval = 100'000;
/**
 * runFuzz()'s wave size and corpus cap: a wave's candidates mutate the
 * corpus as it stood when the wave began.  The walk regenerates the
 * fuzzer's candidate list with them, and checks the list against the
 * fuzzer's own report, so a change in the fuzzer shows as failed
 * operations rather than as a silently different walk.
 */
constexpr std::size_t kFuzzWave = 8;
constexpr std::size_t kFuzzMaxCorpus = 256;

/** A matrix cell, filled from a replay the way the suite runner does. */
sim::CellResult
cellOf(const sim::RunMetrics &metrics)
{
    sim::CellResult cell;
    cell.missPercent = metrics.missPercent();
    cell.noPredictionPercent = metrics.noPrediction.percent();
    cell.predictions = metrics.mtIndirect;
    return cell;
}

/** Canonical text of a lineup's miss percentages, in lineup order. */
std::string
missText(const std::vector<double> &miss_percent)
{
    std::string text;
    char value[32];
    for (const double miss : miss_percent) {
        std::snprintf(value, sizeof(value), "%s%.17g",
                      text.empty() ? "" : " ", miss);
        text += value;
    }
    return text;
}

/** One candidate the fuzzer evaluates: its profile, global index, and
 *  the predictor its checkpoint check replays. */
struct Candidate
{
    wl::BenchmarkProfile profile;
    std::uint64_t index = 0;
    std::string checkpointName;
};

/**
 * The candidates runFuzz(@p options) evaluates, in order: the seed
 * corpus first, then mutations drawn with the fuzzer's per-index split
 * RNGs from the corpus as it stood at the start of each wave, keeping
 * only the candidates whose coverage signature is new.
 */
std::vector<Candidate>
fuzzCandidates(const sim::FuzzOptions &options,
               const std::vector<std::string> &names)
{
    std::vector<wl::BenchmarkProfile> corpus = wl::adversarialSeeds();
    for (wl::BenchmarkProfile &seed : corpus)
        seed.records = options.records;
    const std::size_t num_seeds = corpus.size();
    std::set<std::uint64_t> seen;
    std::vector<Candidate> candidates;
    std::uint64_t index = 0;
    while (index < options.budget) {
        const std::size_t snapshot = corpus.size();
        const std::uint64_t wave_end =
            std::min<std::uint64_t>(index + kFuzzWave, options.budget);
        std::vector<wl::BenchmarkProfile> novel;
        for (; index < wave_end; ++index) {
            std::uint64_t split =
                options.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
            ibp::util::Rng rng(ibp::util::splitMix64(split));
            Candidate candidate;
            candidate.profile =
                index < num_seeds
                    ? corpus[static_cast<std::size_t>(index)]
                    : wl::mutateProfile(corpus[rng.below(snapshot)], rng);
            candidate.profile.records = options.records;
            candidate.profile.benchmark = "fuzz";
            candidate.profile.input = std::to_string(index);
            candidate.index = index;
            candidate.checkpointName =
                names[static_cast<std::size_t>(index) % names.size()];
            if (!seen.insert(wl::coverageSignature(
                                 candidate.profile.program))
                     .second)
                continue;
            novel.push_back(candidate.profile);
            candidates.push_back(std::move(candidate));
        }
        for (wl::BenchmarkProfile &profile : novel)
            if (corpus.size() < kFuzzMaxCorpus)
                corpus.push_back(std::move(profile));
    }
    return candidates;
}

/** Item name of one walked fuzz candidate. */
std::string
candidateItem(const sim::FuzzOptions &options, const Candidate &candidate)
{
    return fuzzItemName(options) + " candidate " +
           std::to_string(candidate.index);
}

/** Accumulators the span totals alone cannot give. */
struct Counts
{
    double collectRecords = 0;
    double decodeRecords = 0;
    double packedBytes = 0;
    double unpackedBytes = 0;
    double rows = 0;
    double coldLineups = 0;
    double serdeCalls = 0;
    double serdeBytes = 0;
    std::map<std::string, double> predRecords;
    std::map<std::string, double> predMissSum;
    std::vector<double> runnerRowSeconds;
};

class Walk
{
  public:
    explicit Walk(const WorkloadSpec &spec)
        : spec_(spec), lineup_(sim::figure6Predictors()),
          allNames_(sim::allPredictors())
    {
        result_.predictorNames = lineup_;
    }

    /**
     * Walk one row: the runner phase, then the diagnostics phase.  On
     * fuzz, @p candidate names the checkpoint-checked predictor and
     * @p item receives the row's miss percentages.
     */
    void row(const wl::BenchmarkProfile &profile,
             const Candidate *candidate, const std::string &item);

    /** Build and serialize the run report over the walked rows. */
    void report(double wall_so_far);

    SpanRecorder recorder;
    Counts counts;
    Items items;

  private:
    tr::TraceBuffer generate(const wl::BenchmarkProfile &profile);
    std::vector<tr::BranchRecord> packAndDecode(const tr::TraceBuffer &);
    PredictorPtr construct(const std::string &name);
    sim::RunMetrics replayEngine(const std::string &name,
                                 const std::vector<tr::BranchRecord> &,
                                 ibp::pred::IndirectPredictor &);
    void observeAndPredict(const std::string &name,
                           const std::vector<tr::BranchRecord> &,
                           ibp::pred::IndirectPredictor &trained);
    void serde(const std::string &name,
               const ibp::pred::IndirectPredictor &trained);
    std::vector<double>
    coldLineup(const std::vector<tr::BranchRecord> &records);
    void timelineOnOff(const std::vector<tr::BranchRecord> &records);
    void characterize(tr::TraceBuffer &trace);
    void recordCell(const std::string &name,
                    const sim::RunMetrics &metrics,
                    std::vector<sim::CellResult> &cells);

    const WorkloadSpec &spec_;
    std::vector<std::string> lineup_;
    std::vector<std::string> allNames_;
    sim::SuiteResult result_;
    bool timelineDone_ = false;
};

tr::TraceBuffer
Walk::generate(const wl::BenchmarkProfile &profile)
{
    std::optional<ScopedSpan> synth(std::in_place, recorder,
                                    "workload.synthesize");
    wl::Program program = wl::synthesize(profile.program);
    synth.reset();
    ScopedSpan collect(recorder, "workload.collect");
    const double scale =
        spec_.kind == WorkloadKind::Fig6Serial ? kFig6Scale : 1.0;
    tr::TraceBuffer trace = program.collect(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(profile.records) * scale)));
    collect.count("records", static_cast<double>(trace.size()));
    counts.collectRecords += static_cast<double>(trace.size());
    return trace;
}

std::vector<tr::BranchRecord>
Walk::packAndDecode(const tr::TraceBuffer &trace)
{
    std::optional<ScopedSpan> pack(std::in_place, recorder, "trace.pack");
    const tr::PackedTraceBuffer packed(trace);
    pack->count("bytes", static_cast<double>(packed.storageBytes()));
    pack.reset();
    counts.packedBytes += static_cast<double>(packed.storageBytes());
    counts.unpackedBytes += static_cast<double>(
        trace.size() * sizeof(tr::BranchRecord));

    ScopedSpan decode(recorder, "trace.decode");
    std::vector<tr::BranchRecord> decoded;
    decoded.reserve(packed.size());
    tr::PackedReplaySource source(packed);
    const tr::BranchRecord *span = nullptr;
    while (const std::size_t n = source.nextSpan(span))
        decoded.insert(decoded.end(), span, span + n);
    decode.count("records", static_cast<double>(decoded.size()));
    counts.decodeRecords += static_cast<double>(decoded.size());
    return decoded;
}

PredictorPtr
Walk::construct(const std::string &name)
{
    ScopedSpan span(recorder, "pred." + name + ".construct");
    return sim::makePredictor(name);
}

sim::RunMetrics
Walk::replayEngine(const std::string &name,
                   const std::vector<tr::BranchRecord> &records,
                   ibp::pred::IndirectPredictor &predictor)
{
    ScopedSpan span(recorder, "pred." + name + ".replay");
    tr::ReplaySource source(records);
    sim::Engine engine;
    const sim::RunMetrics metrics = engine.run(source, predictor);
    span.count("records", static_cast<double>(metrics.branches));
    span.count("predictions", static_cast<double>(metrics.mtIndirect));
    span.count("misses",
               static_cast<double>(metrics.indirectMisses.events()));
    return metrics;
}

void
Walk::recordCell(const std::string &name, const sim::RunMetrics &metrics,
                 std::vector<sim::CellResult> &cells)
{
    counts.predRecords[name] += static_cast<double>(metrics.branches);
    counts.predMissSum[name] += metrics.missPercent();
    cells.push_back(cellOf(metrics));
}

void
Walk::observeAndPredict(const std::string &name,
                        const std::vector<tr::BranchRecord> &records,
                        ibp::pred::IndirectPredictor &trained)
{
    // Observe-only pass on a fresh predictor.  Like the engine, it
    // skips predictors whose observe() is a no-op.
    {
        PredictorPtr fresh = sim::makePredictor(name);
        ScopedSpan span(recorder, "pred." + name + ".observe");
        if (fresh->wantsObserve())
            for (const tr::BranchRecord &record : records)
                fresh->observe(record);
    }
    // Lookup pass on the trained predictor: predict() every predicted
    // record (repeated predict() is idempotent), observe() every one.
    ScopedSpan span(recorder, "pred." + name + ".predict_observe");
    const bool observes = trained.wantsObserve();
    std::uint64_t hits = 0;
    for (const tr::BranchRecord &record : records) {
        if (record.isPredictedIndirect())
            hits += trained.predict(record.pc).hit(record.target);
        if (observes)
            trained.observe(record);
    }
    span.count("hits", static_cast<double>(hits));
}

void
Walk::serde(const std::string &name,
            const ibp::pred::IndirectPredictor &trained)
{
    ibp::util::StateWriter writer;
    {
        ScopedSpan span(recorder, "util.serde.save");
        trained.saveState(writer);
        span.count("bytes", static_cast<double>(writer.size()));
    }
    PredictorPtr restored = sim::makePredictor(name);
    ScopedSpan span(recorder, "util.serde.load");
    ibp::util::StateReader reader(writer.bytes());
    restored->loadState(reader);
    fatal_if(!reader.ok(), "checkpoint of ", name,
                  " did not load back");
    counts.serdeCalls += 1;
    counts.serdeBytes += static_cast<double>(writer.size());
}

std::vector<double>
Walk::coldLineup(const std::vector<tr::BranchRecord> &records)
{
    const std::vector<tr::BranchRecord> cold(
        records.begin(),
        records.begin() + static_cast<std::ptrdiff_t>(
                              std::min<std::size_t>(records.size(),
                                                    kColdRecords)));
    std::vector<PredictorPtr> predictors;
    {
        ScopedSpan span(recorder, "pred.lineup23.construct");
        for (const std::string &name : allNames_)
            predictors.push_back(sim::makePredictor(name));
    }
    std::vector<double> miss_percent;
    ScopedSpan span(recorder, "pred.lineup23.cold_replay");
    for (PredictorPtr &predictor : predictors) {
        tr::ReplaySource source(cold);
        sim::Engine engine;
        miss_percent.push_back(engine.run(source, *predictor).missPercent());
    }
    counts.coldLineups += 1;
    return miss_percent;
}

void
Walk::timelineOnOff(const std::vector<tr::BranchRecord> &records)
{
    sim::EngineConfig on;
    on.timeline.interval = kTimelineInterval;
    for (const std::string &name : lineup_) {
        for (const bool sampling : {false, true}) {
            PredictorPtr predictor = sim::makePredictor(name);
            ScopedSpan span(recorder, sampling ? "obs.timeline_on"
                                               : "obs.timeline_off");
            tr::ReplaySource source(records);
            sim::Engine engine(sampling ? on : sim::EngineConfig{});
            ibp::obs::Timeline timeline;
            engine.run(source, *predictor, nullptr, &timeline);
        }
    }
}

void
Walk::characterize(tr::TraceBuffer &trace)
{
    ScopedSpan span(recorder, "trace.characterize");
    const tr::TraceStats stats = tr::characterize(trace);
    span.count("mt_indirect", static_cast<double>(stats.mtIndirect));
}

void
Walk::row(const wl::BenchmarkProfile &profile, const Candidate *candidate,
          const std::string &item)
{
    ScopedSpan row_span(recorder, "sim.row");
    std::vector<PredictorPtr> trained;
    std::vector<sim::CellResult> cells;

    std::optional<ScopedSpan> runner(std::in_place, recorder,
                                     "sim.runner");
    tr::TraceBuffer trace = generate(profile);
    if (!candidate) {
        // Per-cell serial runner: the 24-byte trace replayed in place.
        for (const std::string &name : lineup_) {
            trained.push_back(construct(name));
            recordCell(name,
                       replayEngine(name, trace.records(), *trained.back()),
                       cells);
        }
    } else {
        // evaluateProfile(): all 23 predictors, cold, on the candidate,
        // then the checkpoint check of one of them.
        items[item] = missText(coldLineup(trace.records()));
        ScopedSpan check(recorder, "sim.checkpoint_check");
        const sim::ReplayCheck result =
            sim::checkReplayDivergence(trace, candidate->checkpointName);
        check.count("diverged", result.diverged ? 1 : 0);
    }
    const std::size_t runner_id = runner->id();
    runner.reset();
    counts.runnerRowSeconds.push_back(
        recorder.spans()[runner_id].duration());
    counts.rows += 1;

    ScopedSpan diagnostics(recorder, "sim.diagnostics");
    const std::vector<tr::BranchRecord> decoded = packAndDecode(trace);
    characterize(trace);
    if (trained.empty()) {
        for (const std::string &name : lineup_) {
            trained.push_back(construct(name));
            recordCell(name, replayEngine(name, decoded, *trained.back()),
                       cells);
        }
    }
    for (std::size_t c = 0; c < lineup_.size(); ++c) {
        observeAndPredict(lineup_[c], decoded, *trained[c]);
        serde(lineup_[c], *trained[c]);
    }
    if (!candidate)
        coldLineup(decoded);
    if (!timelineDone_) {
        timelineOnOff(decoded);
        timelineDone_ = true;
    }
    result_.rowNames.push_back(profile.fullName());
    result_.cells.push_back(std::move(cells));
}

void
Walk::report(double wall_so_far)
{
    if (spec_.kind == WorkloadKind::Fig6Serial)
        for (const auto &[key, text] : matrixItems(result_))
            items[key] = text;
    ScopedSpan span(recorder, "obs.report_build");
    sim::SuiteTiming timing;
    timing.wallSeconds = wall_so_far;
    timing.serialEquivalentSeconds = wall_so_far;
    const ibp::obs::RunReport report = sim::buildRunReport(
        "perfbench", serialSuiteOptions(), result_, timing);
    std::ostringstream out;
    ibp::obs::writeReport(out, report);
    span.count("bytes", static_cast<double>(out.str().size()));
}

/** Sorted, comma-joined finding keys. */
std::string
keyList(const std::set<std::string> &keys)
{
    std::string text;
    for (const std::string &key : keys)
        text += (text.empty() ? "" : ",") + key;
    return text;
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0 ? numerator / denominator : 0;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
perLayerUnits()
{
    std::vector<std::pair<std::string, std::string>> units = {
        {"workload.synthesize_s", "s"},
        {"workload.collect_s", "s"},
        {"workload.collect_records_per_s", "1/s"},
        {"trace.pack_s", "s"},
        {"trace.decode_s", "s"},
        {"trace.decode_records_per_s", "1/s"},
        {"trace.packed_mb", "MB"},
        {"trace.unpacked_mb", "MB"},
        {"trace.characterize_s", "s"},
    };
    for (const std::string &name : sim::figure6Predictors()) {
        const std::string p = "pred." + name + ".";
        units.insert(units.end(), {{p + "replay_s", "s"},
                                   {p + "records_per_s", "1/s"},
                                   {p + "observe_s", "s"},
                                   {p + "predict_s", "s"},
                                   {p + "update_s", "s"},
                                   {p + "construct_us", "us"},
                                   {p + "miss_pct", "%"}});
    }
    units.insert(units.end(),
                 {{"pred.lineup23.construct_us", "us"},
                  {"pred.lineup23.cold_replay_ms", "ms"},
                  {"sim.overhead_s", "s"},
                  {"sim.row_max_s", "s"},
                  {"sim.row_mean_s", "s"},
                  {"sim.fuzz.evaluated", "count"},
                  {"sim.fuzz.shrink_evals", "count"},
                  {"sim.fuzz.eval_ms", "ms"},
                  {"sim.traced_wall_s", "s"},
                  {"sim.untraced_wall_s", "s"},
                  {"sim.trace_overhead_pct", "%"},
                  {"util.serde.save_us", "us"},
                  {"util.serde.load_us", "us"},
                  {"util.serde.bytes", "bytes"},
                  {"obs.report_build_s", "s"},
                  {"obs.report_bytes", "bytes"},
                  {"obs.timeline_overhead_pct", "%"}});
    return units;
}

TracedResult
runTraced(const WorkloadSpec &spec, const Setup &setup,
          std::uint64_t seed, double untraced_wall,
          const std::string &trace_path)
{
    TracedResult out;
    const bool fuzz = spec.kind == WorkloadKind::FuzzCold;
    const std::vector<std::string> all_names = sim::allPredictors();

    // The fuzzer runs whole, outside the spans, for its counters: every
    // fuzz row on fuzz-cold, the first one elsewhere.  A minimizing
    // run of the first row counts the shrink re-evaluations that the
    // timed rows leave out.
    const std::size_t fuzz_rows = fuzz ? kFuzzRows : 1;
    std::vector<sim::FuzzReport> reports;
    double fuzz_seconds = 0, fuzz_evaluated = 0;
    for (std::size_t row = 0; row < fuzz_rows; ++row) {
        const double start = ibp::obs::wallSeconds();
        reports.push_back(sim::runFuzz(fuzzOptions(seed, row)));
        fuzz_seconds += ibp::obs::wallSeconds() - start;
        fuzz_evaluated += static_cast<double>(reports.back().evaluated);
    }
    sim::FuzzOptions minimizing = fuzzOptions(seed, 0);
    minimizing.minimize = true;
    const double shrink_evals =
        static_cast<double>(sim::runFuzz(minimizing).shrinkEvals);

    // The rows to walk.  On fuzz-cold they are the fuzzer's own
    // candidates; each is first run untraced through evaluateProfile()
    // (the per-row cost the runner phase is set against), and the
    // candidate lists and lineup replays are checked against the
    // fuzzer's report and runLineup().
    double untraced_serial = untraced_wall;
    double untraced_rows = static_cast<double>(setup.profiles.size());
    std::vector<std::pair<std::size_t, Candidate>> candidates;
    if (fuzz) {
        untraced_serial = 0;
        for (std::size_t row = 0; row < kFuzzRows; ++row) {
            const sim::FuzzOptions options = fuzzOptions(seed, row);
            std::set<std::string> walk_keys, report_keys;
            std::uint64_t walked = 0;
            for (Candidate &candidate :
                 fuzzCandidates(options, all_names)) {
                const double start = ibp::obs::wallSeconds();
                const std::vector<sim::FuzzFinding> found =
                    sim::evaluateProfile(candidate.profile, options,
                                         {candidate.checkpointName});
                untraced_serial += ibp::obs::wallSeconds() - start;
                for (const sim::FuzzFinding &finding : found)
                    walk_keys.insert(sim::findingKey(finding));
                std::vector<double> miss_percent;
                for (const sim::LineupEntry &entry : sim::runLineup(
                         sim::generateTrace(candidate.profile), all_names))
                    miss_percent.push_back(entry.missPercent());
                out.expected[candidateItem(options, candidate)] =
                    missText(miss_percent);
                ++walked;
                candidates.emplace_back(row, std::move(candidate));
            }
            for (const sim::FuzzFinding &finding : reports[row].findings)
                report_keys.insert(sim::findingKey(finding));
            const std::string list = fuzzItemName(options) + " candidates";
            out.items[list] = "evaluated=" + std::to_string(walked) +
                              " findings=" + keyList(walk_keys);
            out.expected[list] =
                "evaluated=" + std::to_string(reports[row].evaluated) +
                " findings=" + keyList(report_keys);
        }
        untraced_rows = static_cast<double>(candidates.size());
    }

    Walk walk(spec);
    std::size_t root = 0;
    const double walk_start = ibp::obs::wallSeconds();
    {
        ScopedSpan root_span(walk.recorder, "sim.traced_run");
        root = root_span.id();
        if (fuzz)
            for (const auto &[row, candidate] : candidates)
                walk.row(candidate.profile, &candidate,
                         candidateItem(fuzzOptions(seed, row), candidate));
        else
            for (const wl::BenchmarkProfile &profile : setup.profiles)
                walk.row(profile, nullptr, "");
        walk.report(ibp::obs::wallSeconds() - walk_start);
    }
    for (auto &[key, text] : walk.items)
        out.items[key] = std::move(text);
    walk.recorder.writeTraceEvents(trace_path);

    const SpanRecorder &recorder = walk.recorder;
    const Counts &counts = walk.counts;
    const auto total = recorder.totalByName();
    auto T = [&](const std::string &name) {
        const auto it = total.find(name);
        return it == total.end() ? 0.0 : it->second;
    };
    auto &m = out.metrics;

    m["workload.synthesize_s"] = T("workload.synthesize");
    m["workload.collect_s"] = T("workload.collect");
    m["workload.collect_records_per_s"] =
        ratio(counts.collectRecords, T("workload.collect"));
    m["trace.pack_s"] = T("trace.pack");
    m["trace.decode_s"] = T("trace.decode");
    m["trace.decode_records_per_s"] =
        ratio(counts.decodeRecords, T("trace.decode"));
    m["trace.packed_mb"] = counts.packedBytes / 1e6;
    m["trace.unpacked_mb"] = counts.unpackedBytes / 1e6;
    m["trace.characterize_s"] = T("trace.characterize");

    for (const std::string &name : sim::figure6Predictors()) {
        const std::string p = "pred." + name + ".";
        const double replay = T(p + "replay");
        const double observe = T(p + "observe");
        const double predict = T(p + "predict_observe") - observe;
        m[p + "replay_s"] = replay;
        m[p + "records_per_s"] =
            ratio(counts.predRecords.at(name), replay);
        m[p + "observe_s"] = observe;
        m[p + "predict_s"] = predict;
        m[p + "update_s"] = replay - predict - observe;
        m[p + "construct_us"] = ratio(T(p + "construct"), counts.rows) * 1e6;
        m[p + "miss_pct"] = ratio(counts.predMissSum.at(name), counts.rows);
    }
    m["pred.lineup23.construct_us"] =
        ratio(T("pred.lineup23.construct"), counts.coldLineups) * 1e6;
    m["pred.lineup23.cold_replay_ms"] =
        ratio(T("pred.lineup23.cold_replay"), counts.coldLineups) * 1e3;

    // Layer self times: every span belongs to the layer its name
    // starts with; sim.* self time is the runner's own overhead.
    const double traced_wall = recorder.spans()[root].duration();
    std::map<std::string, double> layer_self;
    for (const auto &[name, self] : recorder.selfByName())
        layer_self[name.substr(0, name.find('.'))] += self;
    double layers = 0;
    for (const auto &[layer, self] : layer_self)
        if (layer != "sim")
            layers += self;
    m["sim.overhead_s"] = traced_wall - layers;

    double row_max = 0, row_sum = 0;
    for (const double seconds : counts.runnerRowSeconds) {
        row_max = std::max(row_max, seconds);
        row_sum += seconds;
    }
    m["sim.row_max_s"] = row_max;
    m["sim.row_mean_s"] = ratio(row_sum, counts.rows);
    m["sim.fuzz.evaluated"] = fuzz_evaluated;
    m["sim.fuzz.shrink_evals"] = shrink_evals;
    m["sim.fuzz.eval_ms"] = ratio(fuzz_seconds, fuzz_evaluated) * 1e3;

    // Tracing overhead: the runner phase per row against the same
    // work untraced, per row.
    m["sim.traced_wall_s"] = traced_wall;
    m["sim.untraced_wall_s"] = untraced_wall;
    m["sim.trace_overhead_pct"] =
        100.0 * (ratio(T("sim.runner") / counts.rows,
                       untraced_serial / untraced_rows) -
                 1.0);

    m["util.serde.save_us"] =
        ratio(T("util.serde.save"), counts.serdeCalls) * 1e6;
    m["util.serde.load_us"] =
        ratio(T("util.serde.load"), counts.serdeCalls) * 1e6;
    m["util.serde.bytes"] = ratio(counts.serdeBytes, counts.serdeCalls);
    m["obs.report_build_s"] = T("obs.report_build");
    for (const SpanRecorder::Span &span : recorder.spans())
        if (span.name == "obs.report_build")
            m["obs.report_bytes"] = span.counts.at(0).second;
    m["obs.timeline_overhead_pct"] =
        100.0 * (ratio(T("obs.timeline_on"), T("obs.timeline_off")) - 1.0);

    char line[160];
    for (const auto &[layer, self] : layer_self) {
        std::snprintf(line, sizeof(line), "  %-10s self %10.4f s  %5.1f%%",
                      layer == "sim" ? "sim (overhead)" : layer.c_str(),
                      self, 100.0 * ratio(self, traced_wall));
        out.summary.push_back(line);
    }
    std::snprintf(line, sizeof(line),
                  "  %-10s      %10.4f s  (traced wall; layers + "
                  "overhead)",
                  "total", traced_wall);
    out.summary.push_back(line);
    std::snprintf(line, sizeof(line),
                  "  tracing overhead %+.2f%% (runner phase %.4f s over "
                  "%.0f rows vs untraced %.4f s over %.0f)",
                  m["sim.trace_overhead_pct"], T("sim.runner"),
                  counts.rows, untraced_serial, untraced_rows);
    out.summary.push_back(line);
    return out;
}

} // namespace perfbench
