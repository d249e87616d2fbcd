/**
 * @file
 * The trace-driven simulation engine.
 *
 * Drives one indirect predictor over a branch stream exactly as the
 * paper's methodology prescribes: returns go to a RAS, single-target
 * indirect branches are excluded (link-time-resolvable GOT/DLL stubs),
 * and every multi-target jmp/jsr is predicted at fetch and trained at
 * resolve.  Per-branch ordering is predict -> update -> observe, so
 * table training uses pre-shift history and the actual target enters
 * the PHRs afterwards ("the update step starts by shifting the actual
 * target into the PHR").
 */

#ifndef IBP_SIM_ENGINE_HH_
#define IBP_SIM_ENGINE_HH_

#include <cstdint>

#include "trace/trace_buffer.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "predictors/predictor.hh"
#include "predictors/ras.hh"
#include "sim/metrics.hh"

namespace ibp::sim {

/** Engine options. */
struct EngineConfig
{
    bool useRas = true;        ///< predict returns with a RAS
    std::size_t rasDepth = 16;
    bool perSiteStats = false; ///< collect the per-site breakdown

    /**
     * Windowed timeline sampling (see obs/timeline.hh).  Disabled by
     * default; when enabled, the replay stops at every interval-th
     * record to close a timeline window — same records, same
     * per-record protocol, so no simulated number changes (span-size
     * invariance), only the sampled curves appear.
     */
    obs::TimelineConfig timeline;
};

/** The trace-driven engine. */
class Engine
{
  public:
    /** Records fetched per BranchSource::nextBatch() call in run().
     *  Sized to keep the working batch inside L1 while amortizing the
     *  per-batch virtual call to nothing. */
    static constexpr std::size_t kReplayBatch = 256;

    explicit Engine(const EngineConfig &config = {});

    /**
     * Run @p predictor over @p source until exhaustion: a fresh
     * ReplaySession run to the end.  The per-record protocol (predict
     * -> update -> observe) and every resulting metric are identical
     * to a record-at-a-time loop.
     * @param probes when non-null, receives the RAS and predictor
     *        probe snapshots after the replay (cold path; never read
     *        during it)
     * @param timeline when non-null and the config enables sampling,
     *        receives the run's windowed timeline
     * @return the collected metrics
     */
    RunMetrics run(trace::BranchSource &source,
                   pred::IndirectPredictor &predictor,
                   obs::ProbeRegistry *probes = nullptr,
                   obs::Timeline *timeline = nullptr);

  private:
    EngineConfig config_;
};

/**
 * The one replayer: the engine state that persists across spans — the
 * RAS, the accumulated metrics and the timeline sampler — held as an
 * object, so a replay can be fed a trace in pieces, stop between
 * records, serialize itself, and continue (possibly in a different
 * process).
 *
 * Two ways in, one replay loop:
 *  - feed() pushes decoded records (the one-pass suite feeds every
 *    predictor column the same shared chunk);
 *  - run() pulls records from a BranchSource — zero-copy spans, or
 *    clamped batches when bounded — and feeds each one.
 * Every simulated number is invariant to how the trace is cut into
 * spans: the loop carries no cross-span state beyond the RAS, metrics
 * and predictor, and timeline windows close at absolute record
 * counts.  Checkpoints land between full records — neither entry
 * stops mid-record — which is what makes the predictors' transient
 * predict->update slots serializable.
 */
class ReplaySession
{
  public:
    /** No record limit: replay until the source is exhausted. */
    static constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

    explicit ReplaySession(const EngineConfig &config = {});

    /**
     * Replay @p n decoded records through @p predictor, closing
     * every timeline window the span crosses.
     */
    void feed(const trace::BranchRecord *span, std::size_t n,
              pred::IndirectPredictor &predictor);

    /**
     * Close the final partial timeline window (call after the last
     * feed(); run() does it when the source is exhausted).  A no-op
     * when sampling is off or nothing is pending.
     */
    void finishTimeline(const pred::IndirectPredictor &predictor);

    /**
     * Replay up to @p limit records from @p source (kNoLimit = until
     * exhaustion) with @p predictor, accumulating into this session's
     * metrics.
     * @return records consumed by this call; less than @p limit means
     *         the source is exhausted.
     */
    std::uint64_t run(trace::BranchSource &source,
                      pred::IndirectPredictor &predictor,
                      std::uint64_t limit = kNoLimit);

    /** Metrics accumulated so far. */
    const RunMetrics &metrics() const { return metrics_; }

    /** RAS + predictor probe snapshots (Engine::run()'s cold path). */
    void snapshotProbes(obs::ProbeRegistry &registry,
                        const pred::IndirectPredictor &predictor) const;

    /**
     * The timeline sampled so far (empty when the config disables
     * sampling).  After a run to exhaustion, or finishTimeline(), this
     * is the complete series.
     */
    const obs::Timeline &timeline() const
    {
        return sampler_.timeline();
    }

    /** Move the sampled timeline out (the sampler resets empty). */
    obs::Timeline takeTimeline() { return sampler_.takeTimeline(); }

    /**
     * Serialize the engine-side state (metrics + RAS ring, plus the
     * timeline sampler when the config enables sampling — keeping the
     * timeline-off byte layout identical to pre-timeline sessions).
     */
    void saveState(util::StateWriter &writer) const;

    /** Restore a saved session of the same configuration. */
    void loadState(util::StateReader &reader);

    /** RAS probe counters (fixed-width). */
    void saveProbes(util::StateWriter &writer) const;
    void loadProbes(util::StateReader &reader);

  private:
    /** feed() with the predictor's concrete type resolved. */
    template <typename Predictor>
    void feedAs(const trace::BranchRecord *span, std::size_t n,
                Predictor &predictor);

    /** run() with the predictor's concrete type resolved. */
    template <typename Predictor>
    std::uint64_t runAs(trace::BranchSource &source,
                        Predictor &predictor, std::uint64_t limit);

    /** Close the timeline window ending at the current position. */
    void sampleTimeline(const pred::IndirectPredictor &predictor);

    EngineConfig config_;
    pred::ReturnAddressStack ras_;
    RunMetrics metrics_;
    obs::TimelineSampler sampler_;
};

} // namespace ibp::sim

#endif // IBP_SIM_ENGINE_HH_
