#include "sim/engine.hh"

#include <algorithm>

#include "predictors/btb.hh"
#include "predictors/cascade.hh"
#include "predictors/dpath.hh"
#include "core/filtered_ppm.hh"
#include "core/ppm_predictor.hh"

namespace ibp::sim {

namespace {

/**
 * The per-span replay loop, templated on the concrete predictor type.
 * For the hot predictor classes (final types dispatched below) the
 * compiler devirtualizes and inlines predictAndUpdate()/observe()
 * straight into the loop; instantiated with the base class it degrades
 * to exactly one virtual call per predicted branch and one per
 * observed record.  Either way the per-record protocol — predict ->
 * update -> observe, in trace order — is the same code, so metrics are
 * bit-identical across instantiations *and* across span sizes: no
 * state outlives a record beyond the RAS, metrics and predictor, so
 * chunking a trace differently cannot change a simulated number.
 */
template <typename Predictor>
inline void
replaySpan(const trace::BranchRecord *span, std::size_t n,
           bool use_ras, bool per_site, bool observes,
           Predictor &predictor, pred::ReturnAddressStack &ras,
           RunMetrics &metrics)
{
    metrics.branches += n;
    for (std::size_t b = 0; b < n; ++b) {
        const trace::BranchRecord &record = span[b];

        if (record.isPredictedIndirect()) {
            ++metrics.mtIndirect;
            const pred::Prediction prediction =
                predictor.predictAndUpdate(record.pc, record.target);
            const bool miss = !prediction.hit(record.target);
            metrics.indirectMisses.sample(miss);
            metrics.noPrediction.sample(!prediction.valid);
            if (per_site) {
                SiteMetrics &site = metrics.perSite[record.pc];
                site.misses.sample(miss);
                site.lastTarget = record.target;
            }
        } else if (record.kind == trace::BranchKind::Return &&
                   use_ras) {
            trace::Addr predicted = 0;
            const bool got = ras.pop(predicted);
            metrics.returnMisses.sample(!got ||
                                        predicted != record.target);
        }

        if (record.call && use_ras)
            ras.push(record.pc + 4);

        if (observes)
            predictor.observe(record);
    }
}

/**
 * The concrete-type switch: one dynamic_cast chain per feed() or run()
 * call (not per record) hands @p fn the hottest predictors as their
 * final types, so replaySpan() inlines them.  Anything else —
 * composite predictors, test doubles — gets the base class and the
 * generic virtual loop, with identical semantics.  ITTAGE and
 * Perceptron are final as well but stay out of the switch: their
 * per-branch work is defined out of line, so a concrete type only
 * turns the indirect call into a direct one, which measured as no
 * gain (EXPERIMENTS.md, post-1998 replay cost).
 */
template <typename Fn>
decltype(auto)
withConcreteType(pred::IndirectPredictor &predictor, Fn &&fn)
{
    if (auto *btb = dynamic_cast<pred::Btb *>(&predictor))
        return fn(*btb);
    if (auto *btb2b = dynamic_cast<pred::Btb2b *>(&predictor))
        return fn(*btb2b);
    if (auto *ppm = dynamic_cast<core::PpmPredictor *>(&predictor))
        return fn(*ppm);
    if (auto *dpath = dynamic_cast<pred::Dpath *>(&predictor))
        return fn(*dpath);
    if (auto *cascade = dynamic_cast<pred::Cascade *>(&predictor))
        return fn(*cascade);
    if (auto *fppm = dynamic_cast<core::FilteredPpm *>(&predictor))
        return fn(*fppm);
    return fn(predictor);
}

} // namespace

Engine::Engine(const EngineConfig &config)
    : config_(config)
{
}

RunMetrics
Engine::run(trace::BranchSource &source,
            pred::IndirectPredictor &predictor,
            obs::ProbeRegistry *probes, obs::Timeline *timeline)
{
    ReplaySession session(config_);
    session.run(source, predictor);
    if (probes)
        session.snapshotProbes(*probes, predictor);
    if (timeline)
        *timeline = session.takeTimeline();
    return session.metrics();
}

ReplaySession::ReplaySession(const EngineConfig &config)
    : config_(config), ras_(config.rasDepth),
      sampler_(config.timeline)
{
}

template <typename Predictor>
void
ReplaySession::feedAs(const trace::BranchRecord *span, std::size_t n,
                      Predictor &predictor)
{
    const bool observes = predictor.wantsObserve();
    if (!sampler_.enabled()) {
        replaySpan(span, n, config_.useRas, config_.perSiteStats,
                   observes, predictor, ras_, metrics_);
        return;
    }
    // Split the span at window boundaries.  Boundaries are absolute
    // record counts, so the windows are identical however the trace
    // is cut into spans, bounded runs or checkpoint/resume cycles.
    std::size_t off = 0;
    while (off < n) {
        const std::uint64_t boundary =
            sampler_.nextBoundary(metrics_.branches);
        const std::size_t len =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                n - off, boundary - metrics_.branches));
        replaySpan(span + off, len, config_.useRas,
                   config_.perSiteStats, observes, predictor, ras_,
                   metrics_);
        off += len;
        if (metrics_.branches == boundary)
            sampleTimeline(predictor);
    }
}

void
ReplaySession::feed(const trace::BranchRecord *span, std::size_t n,
                    pred::IndirectPredictor &predictor)
{
    withConcreteType(predictor, [&](auto &concrete) {
        feedAs(span, n, concrete);
    });
}

void
ReplaySession::finishTimeline(const pred::IndirectPredictor &predictor)
{
    if (sampler_.enabled())
        sampleTimeline(predictor);
}

template <typename Predictor>
std::uint64_t
ReplaySession::runAs(trace::BranchSource &source, Predictor &predictor,
                     std::uint64_t limit)
{
    // The unbounded case keeps the zero-copy nextSpan() fast path; a
    // bounded run clamps nextBatch() instead, because a span consumes
    // the whole remainder and cannot stop at a record boundary.
    const bool unbounded = limit == kNoLimit;
    std::uint64_t consumed = 0;
    trace::BranchRecord batch[Engine::kReplayBatch];
    while (unbounded || consumed < limit) {
        const trace::BranchRecord *span = nullptr;
        std::size_t n = 0;
        if (unbounded)
            n = source.nextSpan(span);
        if (n == 0) {
            const std::size_t want =
                unbounded ? Engine::kReplayBatch
                          : static_cast<std::size_t>(std::min<
                                std::uint64_t>(Engine::kReplayBatch,
                                               limit - consumed));
            n = source.nextBatch(batch, want);
            if (n == 0) {
                // Source exhausted: close the final partial window (a
                // no-op when the trace ended exactly on a boundary).
                finishTimeline(predictor);
                break;
            }
            span = batch;
        }
        consumed += n;
        feedAs(span, n, predictor);
    }
    return consumed;
}

std::uint64_t
ReplaySession::run(trace::BranchSource &source,
                   pred::IndirectPredictor &predictor,
                   std::uint64_t limit)
{
    return withConcreteType(predictor, [&](auto &concrete) {
        return runAs(source, concrete, limit);
    });
}

void
ReplaySession::sampleTimeline(const pred::IndirectPredictor &predictor)
{
    obs::TimelineSample sample;
    sample.branches = metrics_.branches;
    sample.predictions = metrics_.mtIndirect;
    sample.misses = metrics_.indirectMisses.events();
    sample.noPredictions = metrics_.noPrediction.events();
    if (!sampler_.config().sampleProbes) {
        sampler_.sample(sample, nullptr);
        return;
    }
    obs::ProbeRegistry probes;
    snapshotProbes(probes, predictor);
    sampler_.sample(sample, &probes);
}

void
ReplaySession::snapshotProbes(obs::ProbeRegistry &registry,
                              const pred::IndirectPredictor &predictor)
    const
{
    registry.counter("ras/overflows", ras_.overflows());
    registry.counter("ras/underflows", ras_.underflows());
    predictor.snapshotProbes(registry);
}

void
ReplaySession::saveState(util::StateWriter &writer) const
{
    metrics_.saveState(writer);
    ras_.saveState(writer);
    // Timeline-off sessions keep the pre-timeline byte layout; both
    // sides condition on the same config, so a snapshot restores only
    // into an identically configured session (the checkpoint
    // contract).
    if (sampler_.enabled())
        sampler_.saveState(writer);
}

void
ReplaySession::loadState(util::StateReader &reader)
{
    metrics_.loadState(reader);
    ras_.loadState(reader);
    if (sampler_.enabled())
        sampler_.loadState(reader);
}

void
ReplaySession::saveProbes(util::StateWriter &writer) const
{
    ras_.saveProbes(writer);
}

void
ReplaySession::loadProbes(util::StateReader &reader)
{
    ras_.loadProbes(reader);
}

} // namespace ibp::sim
