#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"
#include "workload/adversarial.hh"
#include "sim/budget.hh"
#include "sim/factory.hh"

namespace perfbench {

namespace wl = ibp::workload;
namespace sim = ibp::sim;

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {WorkloadKind::Fig6Serial, "fig6-serial"},
        {WorkloadKind::FuzzCold, "fuzz-cold"},
    };
    return specs;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : allWorkloads())
        if (spec.name == name)
            return spec;
    fatal("unknown workload '", name, "'");
}

std::vector<wl::BenchmarkProfile>
seededSuite(std::uint64_t seed)
{
    std::vector<wl::BenchmarkProfile> suite = wl::standardSuite();
    if (seed != 0)
        for (wl::BenchmarkProfile &profile : suite)
            profile.program.seed ^= 0x9e3779b97f4a7c15ULL * seed >> 7;
    return suite;
}

sim::FuzzOptions
fuzzOptions(std::uint64_t seed, std::size_t row)
{
    sim::FuzzOptions options;
    options.seed = kFuzzBaseSeed + seed * kFuzzRows + row;
    options.budget = kFuzzBudget;
    options.records = kFuzzRecords;
    options.threads = kWorkers;
    // Shrinking re-evaluates each finding a seed-dependent number of
    // times (about twofold from seed to seed), so a timed row would
    // not do a fixed amount of work per evaluated candidate.
    options.minimize = false;
    return options;
}

sim::SuiteOptions
serialSuiteOptions()
{
    sim::SuiteOptions options;
    options.traceScale = kFig6Scale;
    options.threads = kWorkers;
    options.onePass = false;
    return options;
}

Setup
makeSetup(WorkloadKind kind, std::uint64_t seed)
{
    Setup setup;
    switch (kind) {
      case WorkloadKind::Fig6Serial:
        setup.profiles = seededSuite(seed);
        setup.lineup = sim::figure6Predictors();
        break;
      case WorkloadKind::FuzzCold:
        setup.profiles = wl::adversarialSeeds();
        setup.lineup = sim::allPredictors();
        break;
    }
    sim::budgetTable(setup.lineup);
    return setup;
}

std::size_t
rowCount(WorkloadKind kind, const Setup &setup)
{
    return kind == WorkloadKind::Fig6Serial ? setup.profiles.size()
                                            : kFuzzRows;
}

Items
matrixItems(const sim::SuiteResult &result)
{
    Items items;
    for (std::size_t r = 0; r < result.rowNames.size(); ++r) {
        for (std::size_t c = 0; c < result.predictorNames.size(); ++c) {
            const sim::CellResult &cell = result.cells[r][c];
            char text[96];
            std::snprintf(text, sizeof(text), "%.17g %.17g %llu",
                          cell.missPercent, cell.noPredictionPercent,
                          static_cast<unsigned long long>(
                              cell.predictions));
            items[result.rowNames[r] + " x " +
                  result.predictorNames[c]] = text;
        }
    }
    return items;
}

Items
onePassMatrixItems(const Setup &setup)
{
    sim::SuiteOptions options = serialSuiteOptions();
    options.threads = 2;
    options.onePass = true;
    return matrixItems(sim::runSuite(setup.profiles, setup.lineup, options));
}

double
paperErrorPp(const sim::SuiteResult &result)
{
    const std::vector<double> averages = result.averages();
    double sum = 0;
    unsigned count = 0;
    for (std::size_t c = 0; c < result.predictorNames.size(); ++c) {
        const double paper =
            sim::paperAverageFor(result.predictorNames[c]);
        if (paper < 0)
            continue;
        sum += std::fabs(averages[c] - paper);
        ++count;
    }
    return count ? sum / count : -1;
}

std::string
fuzzItemName(const sim::FuzzOptions &options)
{
    return "fuzz seed " + std::to_string(options.seed);
}

std::string
findingsDocument(const sim::FuzzReport &report)
{
    std::ostringstream out;
    sim::writeFindingsJson(out, report);
    return out.str();
}

RowOutput
runRow(WorkloadKind kind, const Setup &setup, std::uint64_t seed,
       std::size_t row)
{
    RowOutput output;
    switch (kind) {
      case WorkloadKind::Fig6Serial: {
        const wl::BenchmarkProfile &profile = setup.profiles.at(row);
        sim::SuiteTiming timing;
        const sim::SuiteResult result = sim::runSuite(
            {profile}, setup.lineup, serialSuiteOptions(), &timing);
        output.items = matrixItems(result);
        output.cells = result.cells.front();
        output.partSeconds.push_back(timing.traceGenSeconds);
        for (const sim::CellResult &cell : output.cells) {
            output.partSeconds.push_back(cell.wallSeconds);
            output.partCpuSeconds.push_back(cell.cpuSeconds);
        }
        output.operations = static_cast<double>(output.items.size());
        output.records =
            static_cast<double>(std::llround(
                static_cast<double>(profile.records) * kFig6Scale)) *
            static_cast<double>(setup.lineup.size());
        break;
      }
      case WorkloadKind::FuzzCold: {
        const sim::FuzzOptions options = fuzzOptions(seed, row);
        const sim::FuzzReport report = sim::runFuzz(options);
        output.items[fuzzItemName(options)] = findingsDocument(report);
        output.operations = static_cast<double>(report.evaluated);
        output.records = static_cast<double>(report.evaluated) *
                         static_cast<double>(kFuzzRecords) *
                         static_cast<double>(setup.lineup.size() +
                                             kCheckpointReplaysPerEval);
        break;
      }
    }
    return output;
}

} // namespace perfbench
