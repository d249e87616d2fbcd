/**
 * @file
 * checkpoint_tool: inspect, validate and compare "IBPC" checkpoint
 * files (simulation snapshots and suite progress files, see
 * sim/checkpoint.hh).
 *
 *   checkpoint_tool <file>                     pretty-print one file
 *   checkpoint_tool --validate <file>          structural validation
 *   checkpoint_tool --diff <a> <b>             compare two files
 *                   [--ignore-probes]
 *
 * --validate exits non-zero iff the file is corrupt, truncated, or
 * missing a required section; it never needs the predictor that wrote
 * the file, so it works on any checkpoint from any configuration.
 * --diff exits non-zero iff the two files disagree on anything
 * architectural: meta/fingerprint, cell results, or state payload
 * bytes.  Timing fields are reported as informational notes only, and
 * --ignore-probes additionally excludes the instrumentation payloads —
 * the combination under which an interrupted-and-resumed run must
 * compare clean against a straight one.
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/serde.hh"
#include "sim/checkpoint.hh"

namespace {

using namespace ibp;

int
usage()
{
    std::cerr
        << "usage: checkpoint_tool <file>\n"
        << "       checkpoint_tool --validate <file>\n"
        << "       checkpoint_tool --diff <a> <b> [--ignore-probes]\n";
    return 2;
}

int
fail(const std::string &message)
{
    std::cerr << "checkpoint_tool: " << message << '\n';
    return 1;
}

bool
load(const std::string &path, std::vector<std::uint8_t> &bytes,
     std::string &kind, std::string &error)
{
    if (util::Status status = sim::readCheckpointFile(path, bytes);
        !status.ok()) {
        error = status.message();
        return false;
    }
    if (util::Status status = sim::checkpointKind(bytes, kind);
        !status.ok()) {
        error = path + ": " + status.message();
        return false;
    }
    return true;
}

/**
 * A structural walk of a "sim" blob: section names, sizes and the
 * decoded meta.  Payload contents beyond meta are opaque without the
 * predictor that wrote them, but framing errors, truncation and a
 * missing required section are all detectable.
 */
struct SimLayout
{
    sim::CheckpointMeta meta;
    /** (section name, payload size) in file order. */
    std::vector<std::pair<std::string, std::size_t>> sections;
    /** Raw payload bytes per section (first occurrence wins). */
    std::map<std::string, std::string> payload;
};

bool
walkSim(const std::vector<std::uint8_t> &bytes, SimLayout &layout,
        std::string &error)
{
    if (util::Status status =
            sim::decodeSimCheckpointMeta(bytes, layout.meta);
        !status.ok()) {
        error = status.message();
        return false;
    }
    util::StateReader reader(bytes);
    std::string kind;
    if (util::Status status = sim::checkpointKind(bytes, kind);
        !status.ok()) {
        error = status.message();
        return false;
    }
    // Re-walk past the header the kind probe already validated.
    reader.readU32();
    reader.readU16();
    reader.readString();
    std::string name;
    util::StateReader payload;
    bool saw_predictor = false;
    bool saw_engine = false;
    bool saw_probes = false;
    while (reader.nextSection(name, payload)) {
        layout.sections.emplace_back(name, payload.size());
        std::string raw(payload.size(), '\0');
        payload.readBytes(raw.data(), raw.size());
        layout.payload.emplace(name, std::move(raw));
        saw_predictor |= name == "predictor";
        saw_engine |= name == "engine";
        saw_probes |= name == "probes";
    }
    if (!reader.ok()) {
        error = reader.status().message();
        return false;
    }
    if (!saw_predictor || !saw_engine || !saw_probes) {
        error = "checkpoint is missing a required section";
        return false;
    }
    return true;
}

int
inspect(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string kind;
    std::string error;
    if (!load(path, bytes, kind, error))
        return fail(error);

    std::cout << path << ": " << kind << " checkpoint, version "
              << sim::kCheckpointVersion << ", " << bytes.size()
              << " bytes\n";

    if (kind == sim::kCheckpointKindSim) {
        SimLayout layout;
        if (!walkSim(bytes, layout, error))
            return fail(error);
        std::cout << "  predictor    " << layout.meta.predictor << '\n'
                  << "  profile      "
                  << (layout.meta.profile.empty() ? "(none)"
                                                  : layout.meta.profile)
                  << '\n'
                  << "  cursor       " << layout.meta.cursor
                  << " records\n"
                  << "  fingerprint  " << layout.meta.fingerprint
                  << '\n';
        for (const auto &[name, size] : layout.sections)
            std::cout << "  section " << name << ": " << size
                      << " bytes\n";
        return 0;
    }

    sim::SuiteProgress progress;
    if (util::Status status = sim::decodeSuiteProgress(bytes, progress);
        !status.ok())
        return fail(path + ": " + status.message());
    std::cout << "  fingerprint  " << progress.fingerprint << '\n'
              << "  completed cells: " << progress.cells.size() << '\n';
    for (const auto &cell : progress.cells)
        std::cout << "    (" << cell.row << ", " << cell.col
                  << ")  miss " << cell.cell.missPercent << "%  over "
                  << cell.cell.predictions << " predictions\n";
    return 0;
}

int
validate(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string kind;
    std::string error;
    if (!load(path, bytes, kind, error))
        return fail(error);
    if (kind == sim::kCheckpointKindSim) {
        SimLayout layout;
        if (!walkSim(bytes, layout, error))
            return fail(path + ": " + error);
    } else if (kind == sim::kCheckpointKindSuite) {
        sim::SuiteProgress progress;
        if (util::Status status =
                sim::decodeSuiteProgress(bytes, progress);
            !status.ok())
            return fail(path + ": " + status.message());
    } else {
        return fail(path + ": unknown checkpoint kind \"" + kind +
                    "\"");
    }
    std::cout << path << ": OK (" << kind << ")\n";
    return 0;
}

/** Accumulates differences; timing-only deltas are notes, not fails. */
struct Diff
{
    std::vector<std::string> failures;
    std::vector<std::string> notes;

    void failure(std::string message)
    {
        failures.push_back(std::move(message));
    }
    void note(std::string message)
    {
        notes.push_back(std::move(message));
    }
};

void
diffSim(const SimLayout &a, const SimLayout &b, bool ignore_probes,
        Diff &diff)
{
    if (a.meta.predictor != b.meta.predictor)
        diff.failure("predictor " + a.meta.predictor + " vs " +
                     b.meta.predictor);
    if (a.meta.profile != b.meta.profile)
        diff.failure("profile " + a.meta.profile + " vs " +
                     b.meta.profile);
    if (a.meta.fingerprint != b.meta.fingerprint)
        diff.failure("fingerprint mismatch");
    if (a.meta.cursor != b.meta.cursor)
        diff.failure("cursor " + std::to_string(a.meta.cursor) +
                     " vs " + std::to_string(b.meta.cursor));
    for (const char *name : {"predictor", "engine", "probes"}) {
        if (ignore_probes && std::string(name) == "probes")
            continue;
        const auto left = a.payload.find(name);
        const auto right = b.payload.find(name);
        if (left == a.payload.end() || right == b.payload.end()) {
            diff.failure(std::string(name) +
                         " section present in only one file");
            continue;
        }
        if (left->second != right->second)
            diff.failure(std::string(name) +
                         " state payloads differ (" +
                         std::to_string(left->second.size()) + " vs " +
                         std::to_string(right->second.size()) +
                         " bytes)");
    }
}

void
diffSuite(const sim::SuiteProgress &a, const sim::SuiteProgress &b,
          bool ignore_probes, Diff &diff)
{
    if (a.fingerprint != b.fingerprint)
        diff.failure("suite fingerprint mismatch");
    for (const auto &cell : a.cells) {
        const sim::CompletedCell *other = b.find(cell.row, cell.col);
        if (other == nullptr) {
            diff.failure("cell (" + cell.row + ", " + cell.col +
                         ") missing from the second file");
            continue;
        }
        const std::string where =
            "(" + cell.row + ", " + cell.col + ") ";
        if (cell.cell.missPercent != other->cell.missPercent)
            diff.failure(where + "miss% differs");
        if (cell.cell.noPredictionPercent !=
            other->cell.noPredictionPercent)
            diff.failure(where + "no-prediction% differs");
        if (cell.cell.predictions != other->cell.predictions)
            diff.failure(where + "prediction count differs");
        if (cell.cell.wallSeconds != other->cell.wallSeconds ||
            cell.cell.cpuSeconds != other->cell.cpuSeconds)
            diff.note(where + "timing differs (informational)");
        if (!ignore_probes &&
            (cell.probes.counters() != other->probes.counters() ||
             cell.probes.histograms() != other->probes.histograms()))
            diff.failure(where + "probe registries differ");
    }
    for (const auto &cell : b.cells)
        if (a.find(cell.row, cell.col) == nullptr)
            diff.failure("cell (" + cell.row + ", " + cell.col +
                         ") only in the second file");
}

int
diffFiles(const std::string &path_a, const std::string &path_b,
          bool ignore_probes)
{
    std::vector<std::uint8_t> bytes_a;
    std::vector<std::uint8_t> bytes_b;
    std::string kind_a;
    std::string kind_b;
    std::string error;
    if (!load(path_a, bytes_a, kind_a, error))
        return fail(error);
    if (!load(path_b, bytes_b, kind_b, error))
        return fail(error);
    if (kind_a != kind_b)
        return fail("cannot diff a " + kind_a + " checkpoint against a " +
                    kind_b + " one");

    Diff diff;
    if (kind_a == sim::kCheckpointKindSim) {
        SimLayout a;
        SimLayout b;
        if (!walkSim(bytes_a, a, error))
            return fail(path_a + ": " + error);
        if (!walkSim(bytes_b, b, error))
            return fail(path_b + ": " + error);
        diffSim(a, b, ignore_probes, diff);
    } else {
        sim::SuiteProgress a;
        sim::SuiteProgress b;
        if (util::Status status = sim::decodeSuiteProgress(bytes_a, a);
            !status.ok())
            return fail(path_a + ": " + status.message());
        if (util::Status status = sim::decodeSuiteProgress(bytes_b, b);
            !status.ok())
            return fail(path_b + ": " + status.message());
        diffSuite(a, b, ignore_probes, diff);
    }

    for (const auto &note : diff.notes)
        std::cout << "note: " << note << '\n';
    if (diff.failures.empty()) {
        std::cout << "checkpoints are equivalent\n";
        return 0;
    }
    for (const auto &failure : diff.failures)
        std::cout << "FAIL: " << failure << '\n';
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();

    if (args[0] == "--validate")
        return args.size() == 2 ? validate(args[1]) : usage();

    if (args[0] == "--diff") {
        bool ignore_probes = false;
        std::vector<std::string> paths;
        for (std::size_t i = 1; i < args.size(); ++i) {
            if (args[i] == "--ignore-probes")
                ignore_probes = true;
            else
                paths.push_back(args[i]);
        }
        if (paths.size() != 2)
            return usage();
        return diffFiles(paths[0], paths[1], ignore_probes);
    }

    if (args.size() != 1 || args[0].rfind("--", 0) == 0)
        return usage();
    return inspect(args[0]);
}
