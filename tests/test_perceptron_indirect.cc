/**
 * @file
 * Tests for the hashed-perceptron indirect predictor: a hand-computed
 * training trace, margin-threshold gating, weight saturation, the
 * candidate cache, fused-vs-split equivalence on shared saturating
 * weights, and checkpoint serde.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/probe.hh"
#include "util/serde.hh"
#include "workload/adversarial.hh"
#include "predictors/perceptron_indirect.hh"
#include "sim/experiment.hh"

namespace {

using namespace ibp::pred;
using ibp::trace::BranchKind;
using ibp::trace::BranchRecord;

BranchRecord
mtJmp(ibp::trace::Addr pc, ibp::trace::Addr target)
{
    BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.kind = BranchKind::IndirectJmp;
    r.multiTarget = true;
    return r;
}

PerceptronIndirectConfig
smallConfig()
{
    PerceptronIndirectConfig config;
    config.candidateSets = 4;
    config.candidateWays = 2;
    config.candidateTagBits = 8;
    config.numTables = 2;
    config.entriesPerTable = 64;
    config.weightBits = 6;
    config.trainingThreshold = 8;
    config.pibHistoryBits = 8;
    config.pibBitsPerTarget = 4;
    config.pbHistoryBits = 8;
    config.pbBitsPerTarget = 2;
    return config;
}

std::vector<std::uint8_t>
stateBytes(const PerceptronIndirect &predictor)
{
    ibp::util::StateWriter writer;
    predictor.saveState(writer);
    return writer.bytes();
}

TEST(PerceptronIndirect, ColdMissAndName)
{
    PerceptronIndirect perceptron(smallConfig());
    EXPECT_FALSE(perceptron.predict(0x120000040).valid);
    EXPECT_EQ(perceptron.name(), "Perceptron");
}

TEST(PerceptronIndirect, HandComputedFiveBranchTrainingTrace)
{
    // Two weight tables, zero history, one pc: every score is the sum
    // of exactly two weights, so the perceptron rule's arithmetic is
    // checkable by hand.  Threshold 8 keeps correct predictions
    // training (low margin) through the whole trace.
    PerceptronIndirect p(smallConfig());
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000, t2 = 0x120002480;

    // Precondition for the arithmetic below: the two candidates must
    // not collide in either feature row, or the deltas would overlap.
    ASSERT_NE(p.featureIndex(0, pc, t1), p.featureIndex(0, pc, t2));
    ASSERT_NE(p.featureIndex(1, pc, t1), p.featureIndex(1, pc, t2));
    ASSERT_EQ(p.score(pc, t1), 0);

    // 1: cold mispredict -> +1 on t1's two rows.
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 2);
    EXPECT_EQ(p.predict(pc).target, t1);

    // 2, 3: correct but under the margin threshold -> keep training.
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 4);
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 6);

    // 4: t2 arrives: mispredict trains t2 up and the chosen t1 down.
    p.update(pc, t2);
    EXPECT_EQ(p.score(pc, t2), 2);
    EXPECT_EQ(p.score(pc, t1), 4);
    EXPECT_EQ(p.predict(pc).target, t1) << "4 > 2: t1 still wins";

    // 5: t2 again: another +1/-1 swing flips the ranking.
    p.update(pc, t2);
    EXPECT_EQ(p.score(pc, t2), 4);
    EXPECT_EQ(p.score(pc, t1), 2);
    EXPECT_EQ(p.predict(pc).target, t2);
}

TEST(PerceptronIndirect, StopsTrainingOnceTheMarginClears)
{
    PerceptronIndirectConfig config = smallConfig();
    config.trainingThreshold = 4;
    PerceptronIndirect p(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;

    p.update(pc, t1); // mispredict: score 2
    p.update(pc, t1); // correct, 2 < 4: score 4
    p.update(pc, t1); // correct, 4 >= 4: no change
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 4)
        << "training must stop at the margin threshold";
}

TEST(PerceptronIndirect, WeightsSaturateAtMaxWeight)
{
    PerceptronIndirectConfig config = smallConfig();
    config.trainingThreshold = 10000; // never stop training
    PerceptronIndirect p(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;

    EXPECT_EQ(p.maxWeight(), (1 << (config.weightBits - 1)) - 1);
    for (int i = 0; i < 200; ++i)
        p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 2 * p.maxWeight())
        << "each of the two weights must clamp at +maxWeight";
    p.update(pc, t1);
    EXPECT_EQ(p.score(pc, t1), 2 * p.maxWeight());
}

TEST(PerceptronIndirect, PredictsOnlyCachedCandidates)
{
    // Score is necessary but not sufficient: a target evicted from
    // the candidate cache cannot be predicted no matter how strong
    // its weights are.
    PerceptronIndirect p(smallConfig()); // 2-way candidate sets
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr t1 = 0x120001000;
    const ibp::trace::Addr t2 = 0x120002480, t3 = 0x120003140;

    for (int i = 0; i < 20; ++i)
        p.update(pc, t1); // t1's weights dwarf everything
    ASSERT_EQ(p.predict(pc).target, t1);

    p.update(pc, t2);
    p.update(pc, t3); // two fresh tags in a 2-way set: t1 is the LRU
    const Prediction after = p.predict(pc);
    ASSERT_TRUE(after.valid);
    EXPECT_NE(after.target, t1)
        << "evicted candidate predicted from weights alone";
}

TEST(PerceptronIndirect, FeatureIndicesFollowTheirHistoryStream)
{
    // Table 0 hashes the PIB (indirect-only) register, table 1 the PB
    // (all-branches) register: a conditional branch may move only the
    // PB feature row, an indirect jump moves the PIB row too.
    PerceptronIndirectConfig config = smallConfig();
    config.entriesPerTable = 1024; // keep reduce() collision-free here
    PerceptronIndirect p(config);
    const ibp::trace::Addr pc = 0x120000040;
    const ibp::trace::Addr target = 0x120001000;

    const std::uint64_t pib0 = p.featureIndex(0, pc, target);
    const std::uint64_t pb0 = p.featureIndex(1, pc, target);

    BranchRecord cond;
    cond.pc = 0x120000900;
    cond.target = 0x120000a34;
    cond.kind = BranchKind::CondDirect;
    cond.taken = true;
    p.observe(cond);
    EXPECT_EQ(p.featureIndex(0, pc, target), pib0)
        << "conditional branch leaked into the PIB register";
    EXPECT_NE(p.featureIndex(1, pc, target), pb0);

    p.observe(mtJmp(0x120000980, 0x120004dd0));
    EXPECT_NE(p.featureIndex(0, pc, target), pib0);
}

TEST(PerceptronIndirect, SerdeRoundTripIsByteIdentical)
{
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect trained(config);

    std::uint32_t lcg = 7;
    const ibp::trace::Addr targets[4] = {0x120001000, 0x120002480,
                                         0x120003140, 0x120004dd0};
    for (int i = 0; i < 4000; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const ibp::trace::Addr pc = 0x120000000 + (lcg >> 20 & 0x7C);
        const ibp::trace::Addr target = targets[lcg >> 13 & 3];
        trained.predict(pc);
        trained.update(pc, target);
        trained.observe(mtJmp(pc, target));
    }

    const std::vector<std::uint8_t> saved = stateBytes(trained);
    PerceptronIndirect restored(config);
    ibp::util::StateReader reader(saved);
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    EXPECT_EQ(stateBytes(restored), saved)
        << "save -> load -> save must be byte-identical";

    for (ibp::trace::Addr pc = 0x120000000; pc < 0x120000080; pc += 4) {
        const Prediction a = trained.predict(pc);
        const Prediction b = restored.predict(pc);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.target, b.target);
    }
}

TEST(PerceptronIndirect, LoadStateRejectsTableCountMismatch)
{
    PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect two(config);
    config.numTables = 4;
    PerceptronIndirect four(config);

    ibp::util::StateWriter writer;
    two.saveState(writer);
    ibp::util::StateReader reader(writer.bytes());
    four.loadState(reader);
    EXPECT_FALSE(reader.ok());
}

TEST(PerceptronIndirect, LoadStateRejectsOutOfRangeWeight)
{
    // The weight stream is the tail of the blob; with 6-bit weights
    // the magnitude bound is 31, so a planted 40 in the final row must
    // latch the reader into failure.
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect p(config);
    ibp::util::StateWriter writer;
    p.saveState(writer);
    std::vector<std::uint8_t> bytes = writer.bytes();
    bytes.back() = 40;

    PerceptronIndirect other(config);
    ibp::util::StateReader reader(bytes);
    other.loadState(reader);
    EXPECT_FALSE(reader.ok());
}

TEST(PerceptronIndirect, StorageBitsMatchesTheFormula)
{
    const PerceptronIndirectConfig config = smallConfig();
    const PerceptronIndirect p(config);
    const std::uint64_t expected =
        config.candidateSets * config.candidateWays *
            (TargetEntry::bits() + config.candidateTagBits) +
        config.numTables * config.entriesPerTable * config.weightBits +
        config.pibHistoryBits + config.pbHistoryBits;
    EXPECT_EQ(p.storageBits(), expected);
}

TEST(PerceptronIndirect, ResetRestoresColdState)
{
    const PerceptronIndirectConfig config = smallConfig();
    PerceptronIndirect p(config);
    const PerceptronIndirect cold(config);
    for (int i = 0; i < 50; ++i) {
        p.update(0x120000040, 0x120001000);
        p.observe(mtJmp(0x120000040, 0x120001000));
    }
    ASSERT_TRUE(p.predict(0x120000040).valid);
    p.reset();
    EXPECT_FALSE(p.predict(0x120000040).valid);
    EXPECT_EQ(stateBytes(p), stateBytes(cold));
}

TEST(PerceptronIndirect, FusedMatchesSplitOnSharedSaturatingWeights)
{
    // Two-entry weight tables and 2-bit weights: the actual target's
    // +1 pass and the wrong candidate's -1 pass land on the same slots
    // and saturate at +-1 all the time, so the order the fused call
    // applies them in shows up in the state.  It must match the split
    // predict()-then-update() clone byte for byte.
    PerceptronIndirectConfig config = smallConfig();
    config.entriesPerTable = 2;
    config.weightBits = 2;
    PerceptronIndirect split(config);
    PerceptronIndirect fused(config);

    auto sparse = ibp::workload::sparseProfile(11, {1, 5, 9}, 6, 0.02);
    auto matcher = ibp::workload::matcherProfile(
        5, "abaab", "abaababaabaababaababaabaaab", true);
    sparse.records = 3000;
    matcher.records = 3000;
    for (const auto &profile : {sparse, matcher}) {
        ibp::trace::TraceBuffer trace = ibp::sim::generateTrace(profile);
        trace.rewind();
        BranchRecord record;
        while (trace.next(record)) {
            if (record.isPredictedIndirect()) {
                const Prediction a = split.predict(record.pc);
                split.update(record.pc, record.target);
                const Prediction b =
                    fused.predictAndUpdate(record.pc, record.target);
                ASSERT_EQ(a.valid, b.valid);
                ASSERT_EQ(a.target, b.target);
            }
            split.observe(record);
            fused.observe(record);
        }
    }
    EXPECT_EQ(stateBytes(split), stateBytes(fused));

    ibp::obs::ProbeRegistry splitProbes, fusedProbes;
    split.snapshotProbes(splitProbes);
    fused.snapshotProbes(fusedProbes);
    EXPECT_EQ(splitProbes.counters(), fusedProbes.counters());
    if (ibp::util::kInstrumentEnabled) {
        EXPECT_GT(
            fusedProbes.counterValue("perceptron/weight_updates"), 0u);
    }
}

} // namespace
