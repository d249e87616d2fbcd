/**
 * @file
 * Resume semantics of the suite runner's checkpoint/restore path.
 *
 * The contract under test: a suite run that resumes from a progress
 * file — whatever that file holds — produces a result matrix
 * bit-identical (cells and probe registries; timing excepted) to an
 * uninterrupted run of the same configuration.  That covers resuming
 * from a half-finished file (the kill-and-restart case), from a file
 * an older writer left with a mid-cell snapshot section, and —
 * crucially — from files that must NOT be trusted: corrupt bytes and
 * checkpoints written by a different configuration both downgrade to
 * a warn() and a fresh, correct run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/serde.hh"
#include "workload/profiles.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/factory.hh"

namespace {

using namespace ibp;
using namespace ibp::sim;

const std::vector<std::string> kPredictors = {"BTB", "PPM-hyb",
                                              "Cascade"};

/** Two small, distinct benchmark rows (same substrate, re-seeded). */
std::vector<workload::BenchmarkProfile>
testProfiles()
{
    auto first = workload::smokeProfile();
    auto second = workload::smokeProfile();
    second.benchmark = first.benchmark + "-alt";
    second.program.seed ^= 0x9e3779b9ULL;
    return {first, second};
}

SuiteOptions
baseOptions()
{
    SuiteOptions options;
    options.traceScale = 0.2; // 10k records per row: fast, non-trivial
    options.threads = 1;
    return options;
}

/** A scratch progress-file path unique to the calling test. */
std::string
scratchPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "ibp_resume_" +
                             name + ".ckpt";
    std::remove(path.c_str());
    return path;
}

/** Timing-insensitive equality of two suite results. */
void
expectSameResult(const SuiteResult &want, const SuiteResult &got,
                 const char *label)
{
    ASSERT_EQ(want.rowNames, got.rowNames) << label;
    ASSERT_EQ(want.predictorNames, got.predictorNames) << label;
    for (std::size_t r = 0; r < want.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < want.predictorNames.size(); ++c) {
            const CellResult &a = want.cells[r][c];
            const CellResult &b = got.cells[r][c];
            const std::string where = std::string(label) + ": (" +
                                      want.rowNames[r] + ", " +
                                      want.predictorNames[c] + ")";
            EXPECT_EQ(a.missPercent, b.missPercent) << where;
            EXPECT_EQ(a.noPredictionPercent, b.noPredictionPercent)
                << where;
            EXPECT_EQ(a.predictions, b.predictions) << where;
        }
    }
    ASSERT_EQ(want.probes.size(), got.probes.size()) << label;
    for (const auto &[name, registry] : want.probes) {
        const auto it = got.probes.find(name);
        ASSERT_NE(it, got.probes.end()) << label << ": " << name;
        EXPECT_EQ(registry.counters(), it->second.counters())
            << label << ": " << name;
        EXPECT_EQ(registry.histograms(), it->second.histograms())
            << label << ": " << name;
    }
}

SuiteResult
runBaseline()
{
    return runSuite(testProfiles(), kPredictors, baseOptions());
}

TEST(SuiteResume, UninterruptedCheckpointedRunMatchesPlainRun)
{
    const SuiteResult baseline = runBaseline();

    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("plain");
    const SuiteResult checkpointed =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, checkpointed, "checkpointing on");

    // The finished progress file holds every cell and validates.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    EXPECT_EQ(progress.cells.size(),
              testProfiles().size() * kPredictors.size());
    EXPECT_EQ(progress.fingerprint,
              suiteFingerprint(testProfiles(), kPredictors, options));
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ResumesFromHalfFinishedFile)
{
    const SuiteResult baseline = runBaseline();

    // Produce a complete progress file, then chop it down to the state
    // an interrupted run would have left: the first half of the cells.
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("half");
    runSuite(testProfiles(), kPredictors, options);

    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    progress.cells.resize(progress.cells.size() / 2);
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    options.resume = true;
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, resumed, "resume from half");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ResumesLegacyFileWithPartialSection)
{
    const SuiteResult baseline = runBaseline();

    // The file an older writer, which also snapshotted cells
    // mid-replay, left when interrupted: the first row's cells, then a
    // raw "partial" section holding the next cell's state 4000 records
    // in.  The reader skips that section, keeps the completed cells
    // and replays the snapshotted cell whole.
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("legacy");
    const auto profiles = testProfiles();
    runSuite(profiles, kPredictors, options);

    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    progress.cells.resize(kPredictors.size());
    // Marks the kept cells: a recomputed cell would carry its own time.
    constexpr double kKeptCpuSeconds = 12345.0;
    for (CompletedCell &cell : progress.cells)
        cell.cell.cpuSeconds = kKeptCpuSeconds;
    bytes = encodeSuiteProgress(progress);

    trace::TraceBuffer trace =
        generateTrace(profiles[1], options.traceScale);
    auto predictor = makePredictor(kPredictors[0]);
    ReplaySession session(options.engine);
    const std::uint64_t k = 4000;
    ASSERT_EQ(session.run(trace, *predictor, k), k);
    const auto blob = [](auto &&save) {
        util::StateWriter writer;
        save(writer);
        return std::string(
            reinterpret_cast<const char *>(writer.bytes().data()),
            writer.size());
    };
    util::StateWriter legacy;
    legacy.beginSection("partial");
    legacy.writeString(profiles[1].fullName());
    legacy.writeString(kPredictors[0]);
    legacy.writeU64(k);
    legacy.writeString(
        blob([&](util::StateWriter &w) { predictor->saveState(w); }));
    legacy.writeString(
        blob([&](util::StateWriter &w) { session.saveState(w); }));
    legacy.writeString(blob([&](util::StateWriter &w) {
        predictor->saveProbes(w);
        session.saveProbes(w);
    }));
    legacy.endSection();
    bytes.insert(bytes.end(), legacy.bytes().begin(),
                 legacy.bytes().end());
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath, bytes).ok());

    options.resume = true;
    util::resetWarnCount();
    const SuiteResult resumed = runSuite(profiles, kPredictors, options);
    EXPECT_EQ(util::warnCount(), 0u)
        << "an old file resumes from its completed cells, quietly";
    expectSameResult(baseline, resumed, "legacy partial section");
    for (std::size_t c = 0; c < kPredictors.size(); ++c)
        EXPECT_EQ(resumed.cells[0][c].cpuSeconds, kKeptCpuSeconds)
            << "completed cell " << kPredictors[c] << " was recomputed";

    // The rewritten file holds every cell and no trace of the section.
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    EXPECT_EQ(progress.cells.size(),
              profiles.size() * kPredictors.size());
    EXPECT_EQ(bytes, encodeSuiteProgress(progress));
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, CorruptFileWarnsAndRunsFresh)
{
    const SuiteResult baseline = runBaseline();

    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("corrupt");
    options.resume = true;
    {
        std::ofstream out(options.checkpointPath, std::ios::binary);
        out << "this is not a checkpoint";
    }

    util::resetWarnCount();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    EXPECT_GE(util::warnCount(), 1u)
        << "a corrupt resume file must be called out";
    expectSameResult(baseline, resumed, "corrupt file fallback");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ForeignFingerprintWarnsAndRunsFresh)
{
    const SuiteResult baseline = runBaseline();

    // A structurally valid progress file whose cells answer a
    // *different* question (other trace scale -> other fingerprint).
    // Trusting it would silently produce wrong numbers.
    SuiteOptions foreign = baseOptions();
    foreign.traceScale = 0.1;
    foreign.checkpointPath = scratchPath("foreign");
    runSuite(testProfiles(), kPredictors, foreign);

    SuiteOptions options = baseOptions();
    options.checkpointPath = foreign.checkpointPath;
    options.resume = true;
    util::resetWarnCount();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    EXPECT_GE(util::warnCount(), 1u);
    expectSameResult(baseline, resumed, "foreign fingerprint");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, MissingFileIsQuietOnFirstRun)
{
    SuiteOptions options = baseOptions();
    options.checkpointPath = scratchPath("firstrun");
    options.resume = true; // resume requested, nothing to resume from
    util::resetWarnCount();
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    EXPECT_EQ(util::warnCount(), 0u)
        << "a missing file is the normal first run, not a problem";
    expectSameResult(runBaseline(), resumed, "first run");
    std::remove(options.checkpointPath.c_str());
}

TEST(SuiteResume, ParallelRunnerResumesAtCellGranularity)
{
    const SuiteResult baseline = runBaseline();

    SuiteOptions options = baseOptions();
    options.threads = 4;
    options.checkpointPath = scratchPath("parallel");
    runSuite(testProfiles(), kPredictors, options);

    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readCheckpointFile(options.checkpointPath, bytes).ok());
    SuiteProgress progress;
    ASSERT_TRUE(decodeSuiteProgress(bytes, progress).ok());
    progress.cells.resize(progress.cells.size() / 2);
    ASSERT_TRUE(writeCheckpointFile(options.checkpointPath,
                                    encodeSuiteProgress(progress))
                    .ok());

    options.resume = true;
    const SuiteResult resumed =
        runSuite(testProfiles(), kPredictors, options);
    expectSameResult(baseline, resumed, "parallel resume");
    std::remove(options.checkpointPath.c_str());
}

} // namespace
