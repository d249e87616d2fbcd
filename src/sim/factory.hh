/**
 * @file
 * Predictor factory: builds every predictor the paper evaluates, in
 * its Figure-6 2K-entry configuration, by name.  A size scale knob
 * supports the table-size ablation the paper defers to future work.
 */

#ifndef IBP_SIM_FACTORY_HH_
#define IBP_SIM_FACTORY_HH_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "predictors/predictor.hh"

namespace ibp::sim {

/** Factory options. */
struct FactoryOptions
{
    /** Multiplies every prediction-table entry count (>= 0.01). */
    double sizeScale = 1.0;
};

/**
 * Build a predictor by display name.  Recognized names:
 * BTB, BTB2b, GAp, TC-PIB, TC-PB, Dpath, Cascade, Cascade-strict,
 * PPM-hyb, PPM-PIB, PPM-hyb-biased, PPM-tagged, Filtered-PPM,
 * PPM-gshare (SFSXS with pc mixed in), PPM-low (low-order select),
 * ITTAGE and Perceptron (the post-1998 baselines at the same 2K-entry
 * budget), Oracle-PIB@<k>.  fatal() on an unknown name.
 */
std::unique_ptr<pred::IndirectPredictor>
makePredictor(std::string_view name, const FactoryOptions &options = {});

/** True iff makePredictor() accepts @p name: an allPredictors() name
 *  or any Oracle-PIB@<k>. */
bool knownPredictor(std::string_view name);

/** The Figure-6 line-up: the paper's seven in its order, then the
 *  post-1998 baselines (ITTAGE, Perceptron) at the same budget. */
std::vector<std::string> figure6Predictors();

/** The Figure-7 line-up: the PPM variants first (callers index them
 *  positionally), then the post-1998 baselines. */
std::vector<std::string> figure7Predictors();

/**
 * Every name the factory spells out, plus the reference Oracle-PIB@4
 * — the full 23-name lineup the property harness and the adversarial
 * fuzzer iterate.  Kept in sync with makePredictor() by the
 * FactoryRegistrationsAllCovered lint test.
 */
std::vector<std::string> allPredictors();

} // namespace ibp::sim

#endif // IBP_SIM_FACTORY_HH_
