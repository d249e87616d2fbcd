/**
 * @file
 * Future-work ablation (paper Section 6): tagged Markov tables and a
 * Cascade-style filter in front of the PPM predictor.
 *
 * The paper predicts that tags would "allow for better exploitation
 * of variable length path correlation" and a fairer comparison with
 * the tag-requiring Cascade, and that a monomorphic/low-entropy
 * filter would recover the eqn/edg losses.  This bench measures both
 * extensions against the baseline PPM-hyb and Cascade.
 */

#include <iostream>

#include "bench_util.hh"
#include "workload/profiles.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    const auto options = ibp::bench::suiteOptions(argc, argv);
    ibp::bench::banner(
        "Ablation: tagged PPM and filtered PPM (paper future work)", options);

    const auto suite = ibp::workload::standardSuite();

    const std::vector<std::string> predictors = {
        "PPM-hyb", "PPM-tagged", "Filtered-PPM", "Cascade",
        "Cascade-strict",
    };
    ibp::sim::SuiteTiming timing;
    const auto result =
        ibp::sim::runSuite(suite, predictors, options, &timing);

    std::cout << '\n';
    ibp::sim::printSuiteTable(std::cout, result, &timing);

    const auto averages = result.averages();
    std::cout << "\nSuite averages: PPM-hyb " << averages[0]
              << "%, tagged " << averages[1] << "%, filtered "
              << averages[2] << "%, Cascade " << averages[3]
              << "%, Cascade-strict " << averages[4] << "%\n";

    std::cout << "\nFilter-story check (paper: Cascade beat PPM on eqn"
                 " and one edg run via filtering):\n";
    for (const char *name : {"eqn", "edg.inp"}) {
        const double plain =
            result.cell(name, "PPM-hyb").missPercent;
        const double filtered =
            result.cell(name, "Filtered-PPM").missPercent;
        std::cout << "  " << name << ": PPM-hyb " << plain
                  << "% -> Filtered-PPM " << filtered << "% ("
                  << (filtered < plain ? "filter recovers"
                                       : "no recovery")
                  << ")\n";
    }
    ibp::bench::writeTimelineTrace(ibp::sim::buildRunReport(
        "bench_ablation_tagged", options, result, timing));
    return 0;
}
