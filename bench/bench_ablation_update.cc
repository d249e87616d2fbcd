/**
 * @file
 * Future-work ablation (paper Section 6): "assign confidence on the
 * prediction of different Markov components, and modify the update
 * protocol".  Measures both: PPM-confidence (a component answers only
 * when its entry counter is confident, else the stack escapes
 * downward) and PPM-inclusive (no update exclusion — every order
 * trains on every branch), against the paper's PPM-hyb.
 */

#include <iostream>

#include "bench_util.hh"
#include "workload/profiles.hh"
#include "core/ppm_predictor.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    const auto options = ibp::bench::suiteOptions(argc, argv, 0.5);
    ibp::bench::banner(
        "Ablation: update exclusion and per-component confidence", options);

    const auto suite = ibp::workload::standardSuite();

    const std::vector<std::string> predictors = {
        "PPM-hyb", "PPM-inclusive", "PPM-confidence"};
    ibp::sim::SuiteTiming timing;
    const auto result =
        ibp::sim::runSuite(suite, predictors, options, &timing);

    std::cout << '\n';
    ibp::sim::printSuiteTable(std::cout, result, &timing);

    const auto averages = result.averages();
    std::cout << "\nSuite averages: exclusion " << averages[0]
              << "%, inclusive " << averages[1] << "%, confidence "
              << averages[2] << "%\n";

    // The inclusive policy lets lower orders absorb traffic; show how
    // the access distribution shifts on one profile.
    const auto *eon = ibp::workload::findProfile(suite, "eon");
    if (eon) {
        auto trace = ibp::sim::generateTrace(*eon, options.traceScale);
        auto config = ibp::core::paperPpmConfig(
            ibp::core::PpmVariant::Hybrid);
        config.ppm.updatePolicy = ibp::core::UpdatePolicy::All;
        ibp::core::PpmPredictor ppm(config);
        ibp::sim::Engine engine;
        engine.run(trace, ppm);
        std::cout << "\neon with inclusive updates: top-order access "
                     "share "
                  << 100.0 * ppm.core().accessHistogram().fraction(10)
                  << "% (exclusion keeps it > 99%)\n";
    }
    ibp::bench::writeTimelineTrace(ibp::sim::buildRunReport(
        "bench_ablation_update", options, result, timing));
    return 0;
}
