/**
 * @file
 * The benchmark's workloads, described as data plus the three things
 * the benchmark does with each: set it up, run one row of it, and
 * reduce the row's output to named, comparable items.
 *
 * A workload is a fixed list of rows, and one pass runs every row
 * once.  A Figure-6 row is one suite profile replayed by the whole
 * lineup; a fuzz row is one short runFuzz() search under its own
 * fuzz seed.  Every row is a closed loop with one client: the next
 * runner call is issued only when the previous one has returned.  A
 * run repeats passes, so every row, and every part of a Figure-6
 * row, is timed many times over the run.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload/profiles.hh"
#include "sim/experiment.hh"
#include "sim/fuzz.hh"

namespace perfbench {

/** The workloads, in the order the benchmark lists them. */
enum class WorkloadKind
{
    Fig6Serial,
    FuzzCold,
};

/** Runner threads of every timed row. */
inline constexpr unsigned kWorkers = 1;
/** Trace scale of fig6-serial (the paper's full suite). */
inline constexpr double kFig6Scale = 1.0;
/** fuzz-cold rows: runFuzz() searches per pass, one fuzz seed each. */
inline constexpr std::size_t kFuzzRows = 8;
/** Candidates generated per fuzz row. */
inline constexpr std::uint64_t kFuzzBudget = 40;
/** Records per fuzz candidate (FuzzOptions' default). */
inline constexpr std::uint64_t kFuzzRecords = 8'000;
/** The fuzz seed of the first row at the default benchmark seed. */
inline constexpr std::uint64_t kFuzzBaseSeed = 42;
/**
 * Full-trace replays per evaluated fuzz candidate on top of one per
 * lineup name: evaluateProfile()'s checkpoint check of one predictor
 * replays the trace twice (straight, and checkpointed at the midpoint).
 */
inline constexpr std::uint64_t kCheckpointReplaysPerEval = 2;

/** Static description of one workload. */
struct WorkloadSpec
{
    WorkloadKind kind;
    std::string name;
};

/** All workloads; fatal() on an unknown name in findWorkload(). */
const std::vector<WorkloadSpec> &allWorkloads();
const WorkloadSpec &findWorkload(const std::string &name);

/**
 * The standard suite with every profile's program seed perturbed the
 * way sim::runSeedSweep() perturbs it for sweep index @p seed - 1.
 * Seed 0 returns the calibrated profiles unchanged.
 */
std::vector<ibp::workload::BenchmarkProfile>
seededSuite(std::uint64_t seed);

/** FuzzOptions of fuzz row @p row for benchmark seed @p seed. */
ibp::sim::FuzzOptions fuzzOptions(std::uint64_t seed, std::size_t row);

/** SuiteOptions of fig6-serial: the per-cell serial runner. */
ibp::sim::SuiteOptions serialSuiteOptions();

/** What a workload needs before its first runner call. */
struct Setup
{
    std::vector<ibp::workload::BenchmarkProfile> profiles;
    std::vector<std::string> lineup;
};

/**
 * Build the profiles (standard suite or the adversarial seed corpus)
 * and construct one predictor per lineup name through the budget
 * table every driver prints.
 */
Setup makeSetup(WorkloadKind kind, std::uint64_t seed);

/** Rows per pass of @p kind. */
std::size_t rowCount(WorkloadKind kind, const Setup &setup);

/**
 * A row's checkable output: item name -> canonical text.  An item is
 * one operation for the failed/attempted count: a matrix cell, or a
 * fuzz row's findings document.
 */
using Items = std::map<std::string, std::string>;

/** What one row produced. */
struct RowOutput
{
    Items items;
    double records = 0;    ///< records replayed
    double operations = 0; ///< matrix cells, or candidates evaluated
    /** Figure 6 only: the row's cells, in lineup order. */
    std::vector<ibp::sim::CellResult> cells;
    /** Figure 6 only: the runner's own wall timing of the row's parts,
     *  its trace generation and then each cell's replay, in seconds. */
    std::vector<double> partSeconds;
    /** Figure 6 only: each cell's replay CPU time, in seconds. */
    std::vector<double> partCpuSeconds;
};

/** Run row @p row of @p kind over @p setup. */
RowOutput runRow(WorkloadKind kind, const Setup &setup,
                 std::uint64_t seed, std::size_t row);

/**
 * The Figure-6 matrix through the one-pass runner on 2 threads: the
 * other replay core and trace representation, which must agree with
 * the serial runner cell for cell.  Used as the reference at seeds
 * that have no stored one.
 */
Items onePassMatrixItems(const Setup &setup);

/** Canonical items of a suite matrix (one per cell). */
Items matrixItems(const ibp::sim::SuiteResult &result);

/** Mean |measured - paper| over the paper's stated suite averages. */
double paperErrorPp(const ibp::sim::SuiteResult &result);

/** Item name of fuzz row @p options' findings document. */
std::string fuzzItemName(const ibp::sim::FuzzOptions &options);

/** The findings document of @p report (byte-exact, as written). */
std::string findingsDocument(const ibp::sim::FuzzReport &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
