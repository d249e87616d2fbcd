/**
 * @file
 * Hashed-perceptron indirect-target predictor.
 *
 * Direction perceptrons (Jimenez & Lin) sum small signed weights
 * selected by hashes of the branch pc and global-history segments and
 * compare the sum against zero.  The indirect-target variant keeps a
 * small per-branch *candidate cache* of recently seen targets and
 * scores every cached candidate with a perceptron sum whose feature
 * hashes mix the candidate target in; the highest-scoring candidate is
 * the prediction.  Training nudges the actual target's weights up and
 * a wrongly chosen candidate's weights down, and — the perceptron
 * trick — also trains on low-margin correct predictions, so weights
 * keep growing until the margin clears a threshold.
 *
 * Features split between the paper's two history kinds: half the
 * weight tables hash segments of a PIB (indirect-target) register and
 * half hash segments of a PB (all-branches) register, mirroring the
 * PB/PIB hybrid insight of the source paper.  Like ITTAGE this is a
 * post-1998 baseline, present so fig6 compares the paper's lineup
 * against what came later at the same hardware budget.
 */

#ifndef IBP_PREDICTORS_PERCEPTRON_INDIRECT_HH_
#define IBP_PREDICTORS_PERCEPTRON_INDIRECT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitops.hh"
#include "util/probe.hh"
#include "util/table.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Configuration of one hashed-perceptron indirect predictor. */
struct PerceptronIndirectConfig
{
    std::size_t candidateSets = 256;  ///< candidate-cache geometry
    std::size_t candidateWays = 4;
    unsigned candidateTagBits = 12;   ///< folded-target partial tag
    std::size_t numTables = 8;        ///< weight tables (even: PIB+PB)
    std::size_t entriesPerTable = 512;
    unsigned weightBits = 8;          ///< signed weight width
    int trainingThreshold = 16;       ///< train-on-low-margin bound
    unsigned pibHistoryBits = 32;     ///< indirect-target register
    unsigned pibBitsPerTarget = 4;
    unsigned pbHistoryBits = 48;      ///< all-branches register
    unsigned pbBitsPerTarget = 2;
};

/** Hashed-perceptron target selection over a candidate cache. */
class PerceptronIndirect final : public IndirectPredictor
{
  public:
    /** Most weight tables a configuration may have: the per-branch
     *  feature-hash scratch is a fixed-size stack array. */
    static constexpr std::size_t kMaxTables = 16;

    explicit PerceptronIndirect(const PerceptronIndirectConfig &config,
                                std::string name = "Perceptron");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;

    /** Fused fast path: one scoring pass per branch, whose feature
     *  hashes and chosen candidate also drive training.  Bit-identical
     *  to split predict()+update(). */
    Prediction predictAndUpdate(trace::Addr pc,
                                trace::Addr target) override;

    void observe(const trace::BranchRecord &record) override;
    std::uint64_t storageBits() const override;
    void reset() override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;
    void saveProbes(util::StateWriter &writer) const override;
    void loadProbes(util::StateReader &reader) override;
    void snapshotProbes(obs::ProbeRegistry &registry) const override;

    /** Perceptron score of @p target for @p pc under the current
     *  weights and histories (for tests; touches nothing). */
    int score(trace::Addr pc, trace::Addr target) const;

    /** The weight table row @p table consults for (pc, target) under
     *  the current histories (for tests). */
    std::uint64_t featureIndex(std::size_t table, trace::Addr pc,
                               trace::Addr target) const;

    /** Largest representable weight magnitude. */
    int maxWeight() const { return maxWeight_; }

  private:
    /** The per-branch part of every table's feature hash,
     *  (pc >> 2) ^ (segment << 1) ^ (table * 0x9E37): a candidate's row
     *  in table t is reduce(base[t] ^ targetFold(candidate)).  Only
     *  the first numTables slots are written or read. */
    struct Features
    {
        std::uint64_t base[kMaxTables];
    };

    /** The best-scoring cached candidate (invalid: none cached). */
    struct Choice
    {
        Prediction prediction;
        int score = 0;
        std::uint64_t fold = 0; ///< targetFold(prediction.target)
    };

    /** The candidate target's contribution to every feature hash. */
    static std::uint64_t
    targetFold(trace::Addr target)
    {
        return util::foldXor(target >> 2, 40, 16);
    }

    std::uint64_t candidateSet(trace::Addr pc) const;
    std::uint64_t candidateTag(trace::Addr target) const;
    void featuresFor(trace::Addr pc, Features &features) const;
    int scoreFold(const Features &features, std::uint64_t fold) const;
    Choice choose(std::uint64_t set, const Features &features) const;
    void adjustWeights(const Features &features, std::uint64_t fold,
                       int delta);

    PerceptronIndirectConfig config_;
    std::string name_;
    int maxWeight_;
    ShiftHistory pibHistory_;
    ShiftHistory pbHistory_;
    unsigned pibSegmentBits_; ///< PIB bits per table's segment
    unsigned pbSegmentBits_;  ///< PB bits per table's segment
    util::AssocTable<TargetEntry> candidates_;
    std::vector<util::DirectTable<std::int8_t>> weights_;
    util::Counter weightUpdates_;
};

} // namespace ibp::pred

#endif // IBP_PREDICTORS_PERCEPTRON_INDIRECT_HH_
