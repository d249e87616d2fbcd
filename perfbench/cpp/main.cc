/**
 * @file
 * ibp_perfbench: runs one benchmark workload in this process and
 * prints its metrics.
 *
 *   ibp_perfbench --workload <name> [--seed N] [--seconds S]
 *                 [--trace 0|1] [--refdir DIR] [--trace-out PATH]
 *   ibp_perfbench --write-reference DIR
 *
 * Untraced (--trace 0): run passes over the workload's rows until the
 * next row would end past --seconds, timing every row, and set up
 * once more after each row.  A pass's cost is the sum of the rows'
 * costs (see rowCost()), and setup_s is the median set-up batch.  Traced (--trace 1): one
 * untraced pass, then the span-instrumented layer walk of traced.hh,
 * reporting the per-layer metrics.
 *
 * Every row's output is checked.  At seed 0 the reference is the
 * stored one in --refdir; at any other seed fig6-serial checks
 * against the one-pass runner and fuzz-cold against its first pass.
 *
 * Output: a provenance line, then as the last line a JSON object with
 * exactly the keys correct, attempted, failed and metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/logging.hh"
#include "obs/cputime.hh"
#include "obs/report.hh"
#include "sim/experiment.hh"
#include "traced.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string refdir = "perfbench/reference";
    std::string traceOut;
    std::string writeReference;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "ibp_perfbench: %s\n"
                 "usage: ibp_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--refdir DIR] "
                 "[--trace-out PATH]\n"
                 "       ibp_perfbench --write-reference DIR\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--refdir") {
            args.refdir = value;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else if (flag == "--write-reference") {
            args.writeReference = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end && *end != '\0')
            usage("bad number for " + flag + ": " + value);
    }
    if (args.workload.empty() && args.writeReference.empty())
        usage("--workload is required");
    return args;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

/**
 * Peak resident set of this process image, in MiB: VmHWM from
 * /proc/self/status.  getrusage()'s ru_maxrss is no use here, because
 * Linux carries it across execve(), so it would report the launching
 * Python process whenever that was the larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    fatal("no VmHWM line in /proc/self/status");
}

double
median(std::vector<double> values)
{
    fatal_if(values.empty(), "median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** The upper quartile of @p values (linear interpolation). */
double
upperQuartile(std::vector<double> values)
{
    fatal_if(values.empty(), "quartile of no values");
    std::sort(values.begin(), values.end());
    const double at = 0.75 * static_cast<double>(values.size() - 1);
    const std::size_t below = static_cast<std::size_t>(at);
    const std::size_t above = std::min(below + 1, values.size() - 1);
    return values[below] +
           (at - static_cast<double>(below)) *
               (values[above] - values[below]);
}

double
fastest(const std::vector<double> &values)
{
    fatal_if(values.empty(), "minimum of no values");
    return *std::min_element(values.begin(), values.end());
}

/**
 * One row's cost over a run, from its per-sample @p totals and the
 * runner's own timing of its @p parts ([part][sample]): each part's
 * fastest sample, plus the median of what the samples spent outside
 * their parts.  A row without parts costs its fastest sample.
 *
 * Minimums, because on a shared host noise only ever adds time: a busy
 * neighbour on the same physical core can slow the code twofold, in
 * flickers of tens of milliseconds and in stretches of minutes.  Short
 * parts (8-110 ms for a Figure-6 cell) catch the moments between
 * flickers; a median or an upper quartile instead moves with how much
 * of a run the neighbour was busy.
 */
double
rowCost(const std::vector<double> &totals,
        const std::vector<std::vector<double>> &parts)
{
    if (parts.empty())
        return fastest(totals);
    std::vector<double> rest = totals;
    double cost = 0;
    for (const std::vector<double> &part : parts) {
        cost += fastest(part);
        for (std::size_t sample = 0; sample < rest.size(); ++sample)
            rest[sample] -= part[sample];
    }
    return cost + median(rest);
}

/** Reference file of a workload, and the configuration it pins. */
std::string
referenceFile(WorkloadKind kind)
{
    return kind == WorkloadKind::Fig6Serial ? "fig6_matrix.json"
                                            : "fuzz_findings.json";
}

std::string
referenceConfig(WorkloadKind kind)
{
    char text[128];
    if (kind == WorkloadKind::Fig6Serial)
        std::snprintf(text, sizeof(text), "fig6 scale=%.17g seed=0",
                      kFig6Scale);
    else
        std::snprintf(text, sizeof(text),
                      "fuzz rows=%zu budget=%llu records=%llu seed=0",
                      kFuzzRows,
                      static_cast<unsigned long long>(kFuzzBudget),
                      static_cast<unsigned long long>(kFuzzRecords));
    return text;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot read reference ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Load the stored reference items of @p kind: an item map tagged with
 * the configuration it was made for.  Fuzz items are whole findings
 * documents, compared byte for byte.
 */
Items
loadReference(const std::string &dir, WorkloadKind kind)
{
    const std::string path = dir + "/" + referenceFile(kind);
    const ibp::util::JsonValue doc = ibp::util::parseJson(readFile(path));
    fatal_if(doc.get("config").asString() != referenceConfig(kind),
                  path, " was made for '", doc.get("config").asString(),
                  "', not '", referenceConfig(kind),
                  "'; regenerate it with --write-reference");
    Items items;
    for (const auto &[key, value] : doc.get("items").asObject())
        items[key] = value.asString();
    return items;
}

/** Every row of @p kind at seed 0, as one item map. */
Items
seedZeroItems(WorkloadKind kind)
{
    const Setup setup = makeSetup(kind, 0);
    Items items;
    for (std::size_t row = 0; row < rowCount(kind, setup); ++row)
        items.merge(runRow(kind, setup, 0, row).items);
    return items;
}

int
writeReferences(const std::string &dir)
{
    for (const WorkloadSpec &spec : allWorkloads()) {
        const std::string path = dir + "/" + referenceFile(spec.kind);
        std::ofstream out(path);
        fatal_if(!out, "cannot write ", path);
        {
            ibp::util::JsonWriter json(out);
            json.beginObject();
            json.key("config").value(referenceConfig(spec.kind));
            json.key("items").beginObject();
            for (const auto &[key, value] : seedZeroItems(spec.kind))
                json.key(key).value(value);
            json.endObject();
            json.endObject();
        }
        out << '\n';
    }
    std::printf("references written to %s\n", dir.c_str());
    return 0;
}

/** Failed/attempted bookkeeping over checked items. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const char *what, const std::string &key, const char *how,
         std::uint64_t times = 1)
    {
        if (failed < 3)
            std::fprintf(stderr, "perfbench: %s %s: %s\n", what, how,
                         key.c_str());
        failed += times;
    }

    /** Check every item of @p got, produced @p times times, against
     *  @p expected. */
    void
    items(const Items &got, const Items &expected, const char *what,
          std::uint64_t times = 1)
    {
        for (const auto &[key, text] : got) {
            attempted += times;
            const auto it = expected.find(key);
            if (it == expected.end())
                fail(what, key, "has an unexpected item", times);
            else if (it->second != text)
                fail(what, key, "mismatch", times);
        }
    }

    /** Count every expected item never produced as a failure. */
    void
    covered(const std::set<std::string> &seen, const Items &expected,
            const char *what)
    {
        for (const auto &[key, text] : expected) {
            (void)text;
            if (!seen.count(key)) {
                ++attempted;
                fail(what, key, "never produced");
            }
        }
    }
};

void
printMetric(ibp::util::JsonWriter &json, const std::string &name,
            double value, const std::string &unit)
{
    fatal_if(!std::isfinite(value), "metric ", name,
                  " is not finite");
    json.key(name).beginObject();
    json.key("value").value(value);
    json.key("unit").value(unit);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const ibp::obs::BuildInfo build = ibp::obs::BuildInfo::current();
    if (build.instrumented || build.buildType != "Release") {
        std::fprintf(stderr,
                     "ibp_perfbench: refusing to measure a %s build%s; "
                     "build perfbench/ as Release without probes\n",
                     build.buildType.c_str(),
                     build.instrumented ? " with probes compiled in" : "");
        return 3;
    }
    if (!args.writeReference.empty())
        return writeReferences(args.writeReference);

    const WorkloadSpec &spec = findWorkload(args.workload);
    const bool fig6 = spec.kind == WorkloadKind::Fig6Serial;

    // Set-up costs well under a millisecond.  One batch of set-ups
    // runs after every timed row, so that the batches sample the same
    // host conditions as the rows do; a batch's value is its fastest
    // set-up (see rowCost() for why), and setup_s is the batches'
    // median.
    constexpr int kSetupBatch = 25;
    std::vector<double> setup_seconds;
    Setup setup = makeSetup(spec.kind, args.seed);
    auto sampleSetup = [&] {
        std::vector<double> batch;
        for (int rep = 0; rep < kSetupBatch; ++rep) {
            const double start = ibp::obs::wallSeconds();
            setup = makeSetup(spec.kind, args.seed);
            batch.push_back(ibp::obs::wallSeconds() - start);
        }
        setup_seconds.push_back(fastest(batch));
    };
    sampleSetup();

    // Passes over the rows.  The first pass always completes; a traced
    // run stops after it.
    const std::size_t rows = rowCount(spec.kind, setup);
    std::vector<std::vector<double>> row_walls(rows), row_cpus(rows);
    // Figure 6: [row][part][sample] -> the runner's own part timings.
    std::vector<std::vector<std::vector<double>>> part_walls(rows),
        part_cpus(rows);
    std::vector<RowOutput> first_pass(rows);
    // Each row's distinct outputs, with how often each came out: a
    // row's output is deterministic, so this holds one entry per row
    // and the run's memory does not grow with its sample count.
    std::vector<std::vector<std::pair<Items, std::uint64_t>>> distinct(rows);
    std::size_t samples = 0;
    const double loop_start = ibp::obs::wallSeconds();
    bool done = false;
    for (std::size_t pass = 0; !done; ++pass) {
        for (std::size_t row = 0; row < rows; ++row) {
            const double elapsed = ibp::obs::wallSeconds() - loop_start;
            if (pass > 0 &&
                (args.trace ||
                 elapsed + elapsed / static_cast<double>(samples) >
                     args.seconds)) {
                done = true;
                break;
            }
            const double cpu_start = processCpuSeconds();
            const double start = ibp::obs::wallSeconds();
            RowOutput output = runRow(spec.kind, setup, args.seed, row);
            row_walls[row].push_back(ibp::obs::wallSeconds() - start);
            row_cpus[row].push_back(processCpuSeconds() - cpu_start);
            part_walls[row].resize(output.partSeconds.size());
            for (std::size_t part = 0; part < output.partSeconds.size();
                 ++part)
                part_walls[row][part].push_back(output.partSeconds[part]);
            part_cpus[row].resize(output.partCpuSeconds.size());
            for (std::size_t part = 0; part < output.partCpuSeconds.size();
                 ++part)
                part_cpus[row][part].push_back(output.partCpuSeconds[part]);
            ++samples;
            auto same = std::find_if(
                distinct[row].begin(), distinct[row].end(),
                [&](const auto &entry) { return entry.first == output.items; });
            if (same == distinct[row].end())
                distinct[row].emplace_back(output.items, 1);
            else
                ++same->second;
            if (pass == 0)
                first_pass[row] = std::move(output);
            if (!args.trace)
                sampleSetup();
        }
    }
    // Read before the cross-check below, which is not the workload.
    const double peak_rss_mb = peakRssMb();

    // What every row must reproduce: the stored reference at seed 0;
    // otherwise the one-pass runner's matrix (Figure 6) or the first
    // pass (fuzz).
    Items expected;
    std::string expected_from;
    if (args.seed == 0) {
        expected = loadReference(args.refdir, spec.kind);
        expected_from = "stored reference";
    } else if (fig6) {
        expected = onePassMatrixItems(setup);
        expected_from = "the one-pass runner on 2 threads";
    } else {
        for (const RowOutput &output : first_pass)
            expected.insert(output.items.begin(), output.items.end());
        expected_from = "the first pass";
    }
    Check check;
    std::set<std::string> seen;
    for (const auto &outputs : distinct) {
        for (const auto &[items, times] : outputs) {
            check.items(items, expected, "row", times);
            for (const auto &[key, text] : items)
                seen.insert(key);
        }
    }
    check.covered(seen, expected, "run");

    // A pass's cost: the sum of its rows' costs.  A fuzz row evaluates
    // only the candidates with a novel coverage signature, so fuzz
    // times are scaled to the pass's whole budget of evaluated
    // candidates.  Per-row medians and upper quartiles are kept as
    // diagnostics of how loaded the host was.
    double records = 0, operations = 0, pass_wall = 0, pass_cpu = 0;
    double pass_wall_median = 0, pass_wall_q75 = 0;
    std::size_t fewest_samples = samples;
    for (std::size_t row = 0; row < rows; ++row) {
        records += first_pass[row].records;
        operations += first_pass[row].operations;
        pass_wall += rowCost(row_walls[row], part_walls[row]);
        pass_cpu += rowCost(row_cpus[row], part_cpus[row]);
        pass_wall_median += median(row_walls[row]);
        pass_wall_q75 += upperQuartile(row_walls[row]);
        fewest_samples = std::min(fewest_samples, row_walls[row].size());
    }
    const double per_pass =
        fig6 ? 1.0
             : static_cast<double>(kFuzzRows * kFuzzBudget) / operations;

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> summary;
    if (!args.trace) {
        metrics = {
            {"wall_s", {pass_wall * per_pass, "s"}},
            {"records_per_s", {records / pass_wall, "1/s"}},
            {"evals_per_s", {operations / pass_wall, "1/s"}},
            {"cpu_s", {pass_cpu * per_pass, "s"}},
            {"setup_s", {median(setup_seconds), "s"}},
            {"peak_rss_mb", {peak_rss_mb, "MB"}},
        };
    } else {
        double untraced_wall = 0;
        for (const std::vector<double> &walls : row_walls)
            untraced_wall += walls.front();
        const std::string trace_path =
            args.traceOut.empty() ? "perfbench-trace-" + spec.name + ".json"
                                  : args.traceOut;
        TracedResult traced =
            runTraced(spec, setup, args.seed, untraced_wall, trace_path);
        const Items &walk_expected =
            traced.expected.empty() ? expected : traced.expected;
        check.items(traced.items, walk_expected, "traced walk");
        std::set<std::string> walked;
        for (const auto &[key, text] : traced.items)
            walked.insert(key);
        check.covered(walked, walk_expected, "traced walk");
        for (const auto &[name, unit] : perLayerUnits())
            metrics.push_back({name, {traced.metrics.at(name), unit}});
        summary = std::move(traced.summary);
        summary.insert(summary.begin(), "trace events: " + trace_path);
    }

    {
        std::ostringstream line;
        ibp::util::JsonWriter json(line, 0);
        json.beginObject();
        json.key("provenance").beginObject();
        json.key("workload").value(spec.name);
        json.key("seed").value(args.seed);
        json.key("trace").value(args.trace);
        json.key("compiler").value(build.compiler);
        json.key("build_type").value(build.buildType);
        json.key("flags").value(build.flags);
        json.key("git_sha").value(build.gitSha);
        json.key("instrumented").value(build.instrumented);
        json.key("nproc").value(
            static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
        json.key("workers").value(kWorkers);
        json.key("rows").value(static_cast<std::uint64_t>(rows));
        json.key("row_samples").value(
            static_cast<std::uint64_t>(samples));
        json.key("fewest_samples_per_row").value(
            static_cast<std::uint64_t>(fewest_samples));
        json.key("setup_batches").value(
            static_cast<std::uint64_t>(setup_seconds.size()));
        json.key("checked_against").value(expected_from);
        json.endObject();
        json.key("info").beginObject();
        if (fig6) {
            ibp::sim::SuiteResult matrix;
            matrix.predictorNames = setup.lineup;
            for (std::size_t row = 0; row < rows; ++row) {
                matrix.rowNames.push_back(setup.profiles[row].fullName());
                matrix.cells.push_back(first_pass[row].cells);
            }
            json.key("paper_error_pp").value(paperErrorPp(matrix));
        }
        json.key("pass_wall_s").value(pass_wall);
        json.key("pass_wall_median_s").value(pass_wall_median);
        json.key("pass_wall_q75_s").value(pass_wall_q75);
        json.endObject();
        json.endObject();
        for (const std::string &text : summary)
            std::printf("%s\n", text.c_str());
        std::printf("%s\n", line.str().c_str());
    }
    std::ostringstream line;
    {
        ibp::util::JsonWriter json(line, 0);
        json.beginObject();
        json.key("correct").value(check.failed == 0);
        json.key("attempted").value(check.attempted);
        json.key("failed").value(check.failed);
        json.key("metrics").beginObject();
        for (const auto &[name, value_unit] : metrics)
            printMetric(json, name, value_unit.first, value_unit.second);
        json.endObject();
        json.endObject();
    }
    std::printf("%s\n", line.str().c_str());
    return 0;
}
