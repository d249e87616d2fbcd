/**
 * @file
 * Ablation of the SFSXS indexing function (paper Section 4).
 *
 * The paper compares the high-order final select against a low-order
 * alternative and reports "little difference in the misprediction
 * ratios"; it also motivates the pc-less SFSXS over gshare-style pc
 * mixing.  This bench measures all three PPM indexing variants plus
 * the Target Cache history-stream alternatives (all-indirect vs
 * MT-only vs all-branch), the stream knob Chang et al. explored.
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
        "Ablation: SFSXS select/pc-mix variants, TC streams", options);

    const auto suite = ibp::workload::standardSuite();

    const std::vector<std::string> predictors = {
        "PPM-hyb", "PPM-low", "PPM-gshare",
        "TC-PIB", "TC-IND", "TC-PB",
    };
    ibp::sim::SuiteTiming timing;
    const auto result =
        ibp::sim::runSuite(suite, predictors, options, &timing);

    std::cout << '\n';
    ibp::sim::printSuiteTable(std::cout, result, &timing);

    const auto averages = result.averages();
    std::cout << "\nPPM select variants: high-order "
              << averages[0] << "%, low-order " << averages[1]
              << "% (paper: little difference)\n";
    std::cout << "PPM with pc mixed into the hash (gshare-style): "
              << averages[2] << "%\n";
    std::cout << "TC streams: MT-indirect " << averages[3]
              << "%, all-indirect " << averages[4] << "%, all-branch "
              << averages[5] << "%\n";
    ibp::bench::writeTimelineTrace(ibp::sim::buildRunReport(
        "bench_ablation_hash", options, result, timing));
    return 0;
}
