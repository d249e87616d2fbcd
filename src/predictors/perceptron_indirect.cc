#include "predictors/perceptron_indirect.hh"

#include "util/logging.hh"

namespace ibp::pred {

PerceptronIndirect::PerceptronIndirect(
    const PerceptronIndirectConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      maxWeight_((1 << (config.weightBits - 1)) - 1),
      pibHistory_(config.pibHistoryBits, config.pibBitsPerTarget,
                  StreamSel::MtIndirect),
      pbHistory_(config.pbHistoryBits, config.pbBitsPerTarget,
                 StreamSel::AllBranches),
      pibSegmentBits_(0), pbSegmentBits_(0),
      candidates_(config.candidateSets, config.candidateWays)
{
    fatal_if(config.numTables < 2 || config.numTables % 2 != 0,
             "perceptron needs an even table count (PIB + PB halves)");
    fatal_if(config.numTables > kMaxTables,
             "perceptron supports at most ", kMaxTables,
             " weight tables");
    fatal_if(config.entriesPerTable == 0,
             "perceptron needs non-empty weight tables");
    fatal_if(config.weightBits < 2 || config.weightBits > 8,
             "perceptron weight width out of range");
    fatal_if(config.trainingThreshold < 0,
             "perceptron threshold must be non-negative");
    fatal_if(config.candidateTagBits < 2 || config.candidateTagBits > 30,
             "perceptron candidate tag width out of range");
    const auto half = static_cast<unsigned>(config.numTables / 2);
    pibSegmentBits_ = pibHistory_.bits() / half;
    pbSegmentBits_ = pbHistory_.bits() / half;
    weights_.reserve(config.numTables);
    for (std::size_t i = 0; i < config.numTables; ++i)
        weights_.emplace_back(config.entriesPerTable);
}

std::uint64_t
PerceptronIndirect::candidateSet(trace::Addr pc) const
{
    const std::uint64_t addr = pc >> 2;
    return candidates_.reduce(addr ^ (addr >> 9));
}

std::uint64_t
PerceptronIndirect::candidateTag(trace::Addr target) const
{
    return util::foldXor(target >> 2, 40, config_.candidateTagBits);
}

void
PerceptronIndirect::featuresFor(trace::Addr pc, Features &features) const
{
    // Half the tables read PIB-register segments, half PB-register
    // segments; every hash mixes the pc, and scoring a candidate XORs
    // in a fold of its target so the same weights discriminate
    // between candidates.
    const std::size_t half = config_.numTables / 2;
    const std::uint64_t addr = pc >> 2;
    for (std::size_t lane = 0; lane < half; ++lane) {
        const auto lo = static_cast<unsigned>(lane);
        const std::uint64_t pib = util::bitsRange(
            pibHistory_.value(), lo * pibSegmentBits_, pibSegmentBits_);
        const std::uint64_t pb = util::bitsRange(
            pbHistory_.value(), lo * pbSegmentBits_, pbSegmentBits_);
        features.base[lane] = addr ^ (pib << 1) ^ (lane * 0x9E37ull);
        features.base[half + lane] =
            addr ^ (pb << 1) ^ ((half + lane) * 0x9E37ull);
    }
}

std::uint64_t
PerceptronIndirect::featureIndex(std::size_t table, trace::Addr pc,
                                 trace::Addr target) const
{
    Features features{};
    featuresFor(pc, features);
    return weights_[table].reduce(features.base[table] ^
                                  targetFold(target));
}

int
PerceptronIndirect::scoreFold(const Features &features,
                              std::uint64_t fold) const
{
    int sum = 0;
    for (std::size_t i = 0; i < config_.numTables; ++i)
        sum += weights_[i].at(weights_[i].reduce(features.base[i] ^ fold));
    return sum;
}

int
PerceptronIndirect::score(trace::Addr pc, trace::Addr target) const
{
    Features features{};
    featuresFor(pc, features);
    return scoreFold(features, targetFold(target));
}

PerceptronIndirect::Choice
PerceptronIndirect::choose(std::uint64_t set,
                           const Features &features) const
{
    Choice best;
    for (std::size_t way = 0; way < candidates_.ways(); ++way) {
        const TargetEntry &candidate = candidates_.wayEntry(set, way);
        if (!candidate.valid)
            continue;
        const std::uint64_t fold = targetFold(candidate.target);
        const int sum = scoreFold(features, fold);
        // Strict comparison: ties resolve to the lowest way, keeping
        // the choice deterministic under replay.
        if (!best.prediction.valid || sum > best.score)
            best = {{true, candidate.target}, sum, fold};
    }
    return best;
}

Prediction
PerceptronIndirect::predict(trace::Addr pc)
{
    // Pure scan: no LRU touch, no transient slot — update() recomputes
    // the same candidates because histories only advance in observe().
    Features features{};
    featuresFor(pc, features);
    return choose(candidateSet(pc), features).prediction;
}

void
PerceptronIndirect::adjustWeights(const Features &features,
                                  std::uint64_t fold, int delta)
{
    for (std::size_t i = 0; i < config_.numTables; ++i) {
        std::int8_t &weight =
            weights_[i].at(weights_[i].reduce(features.base[i] ^ fold));
        int adjusted = weight + delta;
        // Saturate symmetrically so +w and -w training are mirrors.
        if (adjusted > maxWeight_)
            adjusted = maxWeight_;
        if (adjusted < -maxWeight_)
            adjusted = -maxWeight_;
        weight = static_cast<std::int8_t>(adjusted);
    }
    weightUpdates_.bump();
}

void
PerceptronIndirect::update(trace::Addr pc, trace::Addr target)
{
    // predict() changes nothing, so redoing its lookup inside the
    // fused call is exactly the split protocol's update().
    predictAndUpdate(pc, target);
}

Prediction
PerceptronIndirect::predictAndUpdate(trace::Addr pc, trace::Addr target)
{
    Features features{};
    featuresFor(pc, features);
    const std::uint64_t set = candidateSet(pc);
    const Choice choice = choose(set, features);
    const Prediction prediction = choice.prediction;
    const bool mispredict =
        !prediction.valid || prediction.target != target;

    // Perceptron rule: train on every mispredict, and on correct
    // predictions whose margin is still below the threshold.  A
    // correct prediction chose the target itself, so its margin is
    // the score choose() already computed.
    if (mispredict || choice.score < config_.trainingThreshold) {
        adjustWeights(features,
                      mispredict ? targetFold(target) : choice.fold, +1);
        if (mispredict && prediction.valid)
            adjustWeights(features, choice.fold, -1);
    }

    // Keep the candidate cache warm: promote the actual target to MRU
    // or install it over the LRU way.
    const std::uint64_t tag = candidateTag(target);
    if (TargetEntry *entry = candidates_.lookup(set, tag)) {
        entry->train(target);
    } else {
        TargetEntry fresh;
        fresh.train(target);
        candidates_.insert(set, tag, fresh);
    }
    return prediction;
}

void
PerceptronIndirect::observe(const trace::BranchRecord &record)
{
    pibHistory_.observe(record);
    pbHistory_.observe(record);
}

std::uint64_t
PerceptronIndirect::storageBits() const
{
    const std::uint64_t candidateBits =
        candidates_.size() *
        (TargetEntry::bits() + config_.candidateTagBits);
    std::uint64_t weightTableBits = 0;
    for (const auto &table : weights_)
        weightTableBits += table.size() * config_.weightBits;
    return candidateBits + weightTableBits + pibHistory_.bits() +
           pbHistory_.bits();
}

void
PerceptronIndirect::reset()
{
    pibHistory_.reset();
    pbHistory_.reset();
    candidates_.reset();
    for (auto &table : weights_)
        table.reset();
    weightUpdates_.reset();
}

namespace {

void
saveWeight(util::StateWriter &writer, const std::int8_t &weight)
{
    writer.writeU8(static_cast<std::uint8_t>(weight));
}

} // namespace

void
PerceptronIndirect::saveState(util::StateWriter &writer) const
{
    pibHistory_.saveState(writer);
    pbHistory_.saveState(writer);
    candidates_.saveState(writer, saveTargetEntry);
    writer.writeVarint(weights_.size());
    for (const auto &table : weights_)
        table.saveState(writer, saveWeight);
}

void
PerceptronIndirect::loadState(util::StateReader &reader)
{
    pibHistory_.loadState(reader);
    pbHistory_.loadState(reader);
    candidates_.loadState(reader, loadTargetEntry);
    const std::uint64_t tables = reader.readVarint();
    if (reader.ok() && tables != weights_.size()) {
        reader.fail("perceptron weight-table count mismatch");
        return;
    }
    const int bound = maxWeight_;
    for (auto &table : weights_) {
        table.loadState(reader, [bound](util::StateReader &in,
                                        std::int8_t &weight) {
            const auto raw =
                static_cast<std::int8_t>(in.readU8());
            if (in.ok() && (raw > bound || raw < -bound)) {
                in.fail("perceptron weight out of range");
                return;
            }
            weight = raw;
        });
    }
}

void
PerceptronIndirect::saveProbes(util::StateWriter &writer) const
{
    writer.writeU64(weightUpdates_.value());
    candidates_.saveProbes(writer);
}

void
PerceptronIndirect::loadProbes(util::StateReader &reader)
{
    weightUpdates_.set(reader.readU64());
    candidates_.loadProbes(reader);
}

void
PerceptronIndirect::snapshotProbes(obs::ProbeRegistry &registry) const
{
    registry.counter("perceptron/weight_updates", weightUpdates_);
    registry.counter("perceptron/candidate_evictions",
                     candidates_.evictions());
    registry.counter("perceptron/candidate_conflicts",
                     candidates_.conflictMisses());
}

} // namespace ibp::pred
