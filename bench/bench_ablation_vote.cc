/**
 * @file
 * Ablation of the Section-4 target-selection design decision.
 *
 * The original Markov model keeps "multiple outgoing arcs from each
 * state, keeping frequency counts for each possible target" with
 * majority voting; the paper rejects it for cost and stores only the
 * most recent target with a 2-bit counter.  This bench quantifies the
 * trade at equal bit budget: PPM-vote2/PPM-vote4 spend their entries
 * on 2- or 4-arc states (halving/quartering the state count), versus
 * the paper's single-target entries.  It also prices the pipelined
 * 2-phase prediction of Section 4 in front-end cycles.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "workload/profiles.hh"
#include "sim/experiment.hh"
#include "sim/frontend.hh"

int
main(int argc, char **argv)
{
    const auto options = ibp::bench::suiteOptions(argc, argv, 0.5);
    ibp::bench::banner(
        "Ablation: majority-vote Markov states & pipelined lookup", options);

    const auto suite = ibp::workload::standardSuite();

    const std::vector<std::string> predictors = {
        "PPM-hyb", "PPM-vote2", "PPM-vote4"};
    ibp::sim::SuiteTiming timing;
    const auto result =
        ibp::sim::runSuite(suite, predictors, options, &timing);

    std::cout << '\n';
    ibp::sim::printSuiteTable(std::cout, result, &timing);

    const auto averages = result.averages();
    std::cout << "\nEqual-budget suite averages: most-recent-target "
              << averages[0] << "%, 2-arc voting " << averages[1]
              << "%, 4-arc voting " << averages[2] << "%\n";
    std::cout << "(The paper's cost argument: arcs buy hysteresis but "
                 "cost states; the single-target design wins when "
                 "capacity binds.)\n";

    // Pipelined 2-phase prediction cost (Section 4): same predictor,
    // with and without the 1-cycle override bubble.
    std::printf("\n%-10s %10s %12s %10s\n", "benchmark", "IPC(1cyc)",
                "IPC(2-phase)", "overrides");
    double loss_total = 0;
    int rows = 0;
    for (const auto &profile : suite) {
        auto trace = ibp::sim::generateTrace(profile, options.traceScale);

        ibp::sim::FrontendConfig config;
        config.instructionsPerBranch = profile.instructionsPerBranch;
        ibp::sim::Frontend flat(config);
        auto ppm_a = ibp::sim::makePredictor("PPM-hyb");
        trace.rewind();
        const auto one_cycle = flat.run(trace, *ppm_a);

        config.pipelinedIndirect = true;
        ibp::sim::Frontend staged(config);
        auto ppm_b = ibp::sim::makePredictor("PPM-hyb");
        trace.rewind();
        const auto two_phase = staged.run(trace, *ppm_b);

        const double loss =
            100.0 * (1.0 - two_phase.ipc() / one_cycle.ipc());
        loss_total += loss;
        ++rows;
        std::printf("%-10s %10.2f %12.2f %10llu\n",
                    profile.fullName().c_str(), one_cycle.ipc(),
                    two_phase.ipc(),
                    static_cast<unsigned long long>(
                        two_phase.overrides));
    }
    std::printf("\nMean IPC cost of the 2-phase (BIU + table) lookup: "
                "%.2f%% — the pipelining concern Section 4 raises is "
                "measurable but small.\n",
                loss_total / rows);
    ibp::bench::writeTimelineTrace(ibp::sim::buildRunReport(
        "bench_ablation_vote", options, result, timing));
    return 0;
}
