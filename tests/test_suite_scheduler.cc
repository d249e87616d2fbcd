/**
 * @file
 * Trace sharing in the suite scheduler: each benchmark row's trace is
 * generated exactly once per run — for cell and one-pass row tasks,
 * inline or on any number of pool workers — a row a progress file
 * already completed generates none, and SuiteTiming::traceGenSeconds
 * counts each generation once.  Generations are counted through the
 * "tracegen" spans the scheduler records in obs::globalTraceLog().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_event.hh"
#include "workload/profiles.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"

namespace {

using namespace ibp;
using namespace ibp::sim;

const std::vector<std::string> kPredictors = {"BTB", "TC-PIB",
                                              "PPM-hyb"};

/** Three small rows of the same substrate, re-seeded. */
std::vector<workload::BenchmarkProfile>
schedulerProfiles()
{
    auto first = workload::smokeProfile();
    first.records = 8000;
    auto second = first;
    second.benchmark = "sched2";
    second.program.seed = 4242;
    auto third = first;
    third.benchmark = "sched3";
    third.program.seed = 777;
    return {first, second, third};
}

/** What the tracegen spans of one run recorded. */
struct Generations
{
    std::map<std::string, unsigned> perRow; ///< span name -> count
    double seconds = 0;                     ///< summed span durations
};

/** Run the suite with the global trace log on; collect its tracegen
 *  spans.  The log is switched off and emptied again afterwards. */
Generations
runTraced(const std::vector<workload::BenchmarkProfile> &profiles,
          const SuiteOptions &options, SuiteTiming &timing)
{
    obs::TraceEventLog &log = obs::globalTraceLog();
    log.clear();
    log.setEnabled(true);
    runSuite(profiles, kPredictors, options, &timing);
    log.setEnabled(false);
    Generations generations;
    for (const obs::TraceEvent &event : log.snapshot()) {
        if (event.category != "tracegen")
            continue;
        ++generations.perRow[event.name];
        generations.seconds += event.durationMicros * 1e-6;
    }
    log.clear();
    return generations;
}

std::string
spanName(const workload::BenchmarkProfile &profile)
{
    return "tracegen " + profile.fullName();
}

TEST(SuiteScheduler, EachRowTraceGeneratedOncePerRun)
{
    const auto profiles = schedulerProfiles();
    for (bool one_pass : {false, true}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            const std::string label =
                std::string(one_pass ? "row" : "cell") +
                " tasks, threads=" + std::to_string(threads);
            SuiteOptions options;
            options.threads = threads;
            options.onePass = one_pass;
            SuiteTiming timing;
            const Generations generations =
                runTraced(profiles, options, timing);
            ASSERT_EQ(generations.perRow.size(), profiles.size())
                << label;
            for (const auto &profile : profiles)
                EXPECT_EQ(generations.perRow.at(spanName(profile)), 1u)
                    << label << ": " << profile.fullName();
        }
    }
}

TEST(SuiteScheduler, FullyResumedRowGeneratesNoTrace)
{
    const auto profiles = schedulerProfiles();
    const std::string path =
        ::testing::TempDir() + "ibp_scheduler_resumed_row.ckpt";
    for (bool one_pass : {false, true}) {
        const std::string label = one_pass ? "row tasks" : "cell tasks";
        std::remove(path.c_str());
        SuiteOptions options;
        options.threads = 1;
        options.onePass = one_pass;
        options.checkpointPath = path;
        runSuite(profiles, kPredictors, options);

        // Keep only the first row's cells: that row is complete.
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(readCheckpointFile(path, bytes).ok()) << label;
        SuiteProgress progress;
        ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok()) << label;
        progress.cells.resize(kPredictors.size());
        ASSERT_TRUE(
            writeCheckpointFile(path, encodeSuiteProgress(progress)).ok())
            << label;

        options.resume = true;
        SuiteTiming timing;
        const Generations generations =
            runTraced(profiles, options, timing);
        EXPECT_EQ(generations.perRow.count(spanName(profiles[0])), 0u)
            << label;
        EXPECT_EQ(generations.perRow.size(), profiles.size() - 1)
            << label;

        // With every row complete, nothing is generated at all.
        SuiteTiming done_timing;
        const Generations none = runTraced(profiles, options, done_timing);
        EXPECT_TRUE(none.perRow.empty()) << label;
        EXPECT_EQ(done_timing.traceGenSeconds, 0.0) << label;
    }
    std::remove(path.c_str());
}

TEST(SuiteScheduler, TraceGenSecondsCountsEachGenerationOnce)
{
    // Every cell of a row shares one generation; were it charged per
    // task, traceGenSeconds would be a multiple of the spans' sum.
    const auto profiles = schedulerProfiles();
    for (bool one_pass : {false, true}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            const std::string label =
                std::string(one_pass ? "row" : "cell") +
                " tasks, threads=" + std::to_string(threads);
            SuiteOptions options;
            options.threads = threads;
            options.onePass = one_pass;
            SuiteTiming timing;
            const Generations generations =
                runTraced(profiles, options, timing);
            EXPECT_GT(timing.traceGenSeconds, 0.0) << label;
            EXPECT_LE(timing.traceGenSeconds, generations.seconds)
                << label;
            EXPECT_GE(timing.traceGenSeconds, 0.5 * generations.seconds)
                << label;
        }
    }
}

} // namespace
