/**
 * @file
 * One-pass suite mode and fused fast-path differential tests.
 *
 * The one-pass runner (SuiteOptions::onePass) feeds every predictor
 * column from one shared trace stream; its whole value proposition
 * rests on producing the *bit-identical* matrix and probe registries
 * cell tasks produce, for any thread count and across checkpoint/
 * resume.  Separately, the
 * engine's devirtualized fused replay loops (Dpath / Cascade /
 * Filtered-PPM) are checked against a split predict()-then-update()
 * reference replay over every committed adversarial regression
 * profile — the workloads fuzzing found most likely to expose a
 * predictor-state divergence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/serde.hh"
#include "workload/adversarial.hh"
#include "workload/profiles.hh"
#include "predictors/ras.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

namespace fs = std::filesystem;

using namespace ibp::sim;
using ibp::workload::BenchmarkProfile;

/** Three distinct profiles, small enough for many repeated runs. */
std::vector<BenchmarkProfile>
miniSuite()
{
    auto first = ibp::workload::smokeProfile();
    first.records = 15000;
    auto second = first;
    second.benchmark = "mini2";
    second.program.seed = 4242;
    auto third = first;
    third.benchmark = "mini3";
    third.program.seed = 777;
    third.program.sites.front().numTargets = 8;
    return {first, second, third};
}

/** Columns spanning every fused fast path plus the generic loop. */
const std::vector<std::string> kPredictors = {
    "BTB", "Dpath", "Cascade", "Filtered-PPM", "PPM-hyb",
};

/** Assert two suite results are bitwise equal: cells *and* probes.
 *  Timing fields are excluded — they are the only thing the one-pass
 *  mode is allowed to change. */
void
expectIdentical(const SuiteResult &expected, const SuiteResult &actual,
                const std::string &label)
{
    ASSERT_EQ(expected.rowNames, actual.rowNames) << label;
    ASSERT_EQ(expected.predictorNames, actual.predictorNames) << label;
    ASSERT_EQ(expected.cells.size(), actual.cells.size()) << label;
    for (std::size_t r = 0; r < expected.cells.size(); ++r) {
        ASSERT_EQ(expected.cells[r].size(), actual.cells[r].size())
            << label;
        for (std::size_t c = 0; c < expected.cells[r].size(); ++c) {
            const CellResult &want = expected.cells[r][c];
            const CellResult &got = actual.cells[r][c];
            // Exact doubles, deliberately: the contract is
            // bit-identity, not closeness.
            EXPECT_EQ(want.missPercent, got.missPercent)
                << label << " cell (" << r << ", " << c << ")";
            EXPECT_EQ(want.noPredictionPercent, got.noPredictionPercent)
                << label << " cell (" << r << ", " << c << ")";
            EXPECT_EQ(want.predictions, got.predictions)
                << label << " cell (" << r << ", " << c << ")";
        }
    }
    // Probe registries serialize canonically (ordered maps), so two
    // registries are equal iff their bytes are.
    ASSERT_EQ(expected.probes.size(), actual.probes.size()) << label;
    for (const auto &[name, registry] : expected.probes) {
        const auto it = actual.probes.find(name);
        ASSERT_NE(it, actual.probes.end()) << label << " " << name;
        ibp::util::StateWriter want_bytes, got_bytes;
        registry.saveState(want_bytes);
        it->second.saveState(got_bytes);
        EXPECT_EQ(want_bytes.bytes(), got_bytes.bytes())
            << label << " probes for " << name;
    }
}

TEST(OnePassSuite, SerialMatchesPerCellBitwise)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    const auto per_cell = runSuite(suite, kPredictors, options);

    options.onePass = true;
    SuiteTiming timing;
    const auto one_pass = runSuite(suite, kPredictors, options, &timing);
    expectIdentical(per_cell, one_pass, "one-pass serial");
    EXPECT_EQ(timing.threadsUsed, 1u);
    EXPECT_GT(timing.wallSeconds, 0.0);
}

TEST(OnePassSuite, ParallelThreadCountsBitIdentical)
{
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    const auto per_cell = runSuite(suite, kPredictors, options);

    options.onePass = true;
    for (unsigned threads : {2u, 3u, 8u}) {
        options.threads = threads;
        SuiteTiming timing;
        const auto one_pass =
            runSuite(suite, kPredictors, options, &timing);
        expectIdentical(per_cell, one_pass,
                        "one-pass threads=" + std::to_string(threads));
        EXPECT_EQ(timing.threadsUsed, threads);
    }
}

/** Every cell's timeline as canonical bytes, [row x predictor]. */
std::map<std::string, std::vector<std::uint8_t>>
timelineBytes(const SuiteResult &result)
{
    std::map<std::string, std::vector<std::uint8_t>> bytes;
    for (const auto &[row, columns] : result.timelines)
        for (const auto &[predictor, timeline] : columns) {
            ibp::util::StateWriter writer;
            timeline.saveState(writer);
            bytes[row + " x " + predictor] = writer.bytes();
        }
    return bytes;
}

TEST(OnePassSuite, ResumesFromFinishedRowPrefix)
{
    // A one-pass run records each finished row in the progress file.
    // Cut a complete file back to its first row — what a run killed
    // during the second row leaves — and resume: the result must be
    // the uninterrupted run's, timelines included, with no warning.
    const auto suite = miniSuite();
    SuiteOptions options;
    options.threads = 1;
    options.onePass = true;
    options.engine.timeline.interval = 2000;
    const auto uninterrupted = runSuite(suite, kPredictors, options);
    ASSERT_EQ(timelineBytes(uninterrupted).size(),
              suite.size() * kPredictors.size());

    const std::string path =
        (fs::temp_directory_path() / "ibp_one_pass_resume.ckpt").string();
    for (unsigned threads : {1u, 4u}) {
        const std::string label =
            "one-pass resume threads=" + std::to_string(threads);
        std::remove(path.c_str());
        SuiteOptions checkpointed = options;
        checkpointed.threads = threads;
        checkpointed.checkpointPath = path;
        runSuite(suite, kPredictors, checkpointed);

        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(readCheckpointFile(path, bytes).ok()) << label;
        SuiteProgress progress;
        ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok()) << label;
        ASSERT_EQ(progress.cells.size(),
                  suite.size() * kPredictors.size())
            << label;
        progress.cells.resize(kPredictors.size());
        for (const CompletedCell &done : progress.cells)
            ASSERT_EQ(done.row, suite.front().fullName()) << label;
        ASSERT_TRUE(
            writeCheckpointFile(path, encodeSuiteProgress(progress)).ok())
            << label;

        checkpointed.resume = true;
        ibp::util::resetWarnCount();
        const auto resumed = runSuite(suite, kPredictors, checkpointed);
        EXPECT_EQ(ibp::util::warnCount(), 0u) << label;
        expectIdentical(uninterrupted, resumed, label);
        EXPECT_EQ(timelineBytes(resumed), timelineBytes(uninterrupted))
            << label;

        ASSERT_TRUE(readCheckpointFile(path, bytes).ok()) << label;
        ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok()) << label;
        EXPECT_EQ(progress.cells.size(),
                  suite.size() * kPredictors.size())
            << label;
    }
    std::remove(path.c_str());
}

// --- fused fast paths over the adversarial regression corpus ---------

std::vector<fs::path>
committedProfiles()
{
    std::vector<fs::path> paths;
    for (const auto &entry :
         fs::directory_iterator(IBP_REGRESSION_PROFILES_DIR))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::vector<std::uint8_t>
stateBytes(const ibp::pred::IndirectPredictor &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

/**
 * The replay protocol with *split* predict()/update() calls — the
 * reference the engine's fused, devirtualized loops must match state
 * bit for state bit.
 */
RunMetrics
splitReplay(const ibp::trace::TraceBuffer &trace,
            ibp::pred::IndirectPredictor &predictor,
            const EngineConfig &config)
{
    RunMetrics metrics;
    ibp::pred::ReturnAddressStack ras(config.rasDepth);
    const bool observes = predictor.wantsObserve();
    for (const ibp::trace::BranchRecord &record : trace.records()) {
        ++metrics.branches;
        if (record.isPredictedIndirect()) {
            ++metrics.mtIndirect;
            const auto prediction = predictor.predict(record.pc);
            predictor.update(record.pc, record.target);
            const bool miss = !prediction.hit(record.target);
            metrics.indirectMisses.sample(miss);
            metrics.noPrediction.sample(!prediction.valid);
        } else if (record.kind == ibp::trace::BranchKind::Return &&
                   config.useRas) {
            ibp::trace::Addr predicted = 0;
            const bool got = ras.pop(predicted);
            metrics.returnMisses.sample(!got ||
                                        predicted != record.target);
        }
        if (record.call && config.useRas)
            ras.push(record.pc + 4);
        if (observes)
            predictor.observe(record);
    }
    return metrics;
}

TEST(FusedRegressionProfiles, EngineFastPathsMatchSplitReplay)
{
    // The fuzzer-pinned profiles are the workloads most likely to
    // expose a divergence between the fused fast paths (slot caching,
    // LUT hashing) and the plain split protocol: they were
    // selected for perverse target churn and ranking sensitivity.
    const auto paths = committedProfiles();
    ASSERT_FALSE(paths.empty());
    const std::vector<std::string> fused_predictors = {
        "Dpath", "Cascade", "Filtered-PPM",
    };
    const EngineConfig config;
    for (const fs::path &path : paths) {
        const BenchmarkProfile profile =
            ibp::workload::loadProfileFile(path.string());
        const ibp::trace::TraceBuffer trace = generateTrace(profile);
        for (const std::string &name : fused_predictors) {
            auto fused = makePredictor(name);
            auto split = makePredictor(name);

            Engine engine(config);
            ibp::trace::ReplaySource source(trace);
            const RunMetrics via_engine = engine.run(source, *fused);
            const RunMetrics reference =
                splitReplay(trace, *split, config);

            const std::string label =
                name + " over " + path.stem().string();
            EXPECT_EQ(via_engine.branches, reference.branches)
                << label;
            EXPECT_EQ(via_engine.mtIndirect, reference.mtIndirect)
                << label;
            EXPECT_EQ(via_engine.indirectMisses.events(),
                      reference.indirectMisses.events())
                << label;
            EXPECT_EQ(via_engine.noPrediction.events(),
                      reference.noPrediction.events())
                << label;
            EXPECT_EQ(stateBytes(*fused), stateBytes(*split))
                << label << ": fused fast path diverged from the "
                << "split protocol";
        }
    }
}

} // namespace
