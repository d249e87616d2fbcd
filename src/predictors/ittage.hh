/**
 * @file
 * ITTAGE-style indirect-target predictor (Seznec & Michaud, 2006+).
 *
 * A tagless base table backs N tagged components whose path-history
 * lengths grow geometrically.  Each lookup probes every component with
 * an index and tag hashed from the branch pc and a folded slice of the
 * path history; the longest-history component whose tag matches is the
 * *provider* and its target is the prediction, the next match (or the
 * base table) is the *alternate*.  On a misprediction a new entry is
 * allocated in a longer-history component, steered by per-entry
 * "useful" counters — the mechanism that lets the predictor grow its
 * effective history only for branches that need it, which is exactly
 * the long-range-correlation regime the paper's fixed-order PPM stack
 * cannot reach within the same 2K-entry budget.
 *
 * This implementation post-dates the paper (the 1998 lineup stops at
 * Cascade); it exists so fig6 doubles as a 1998-vs-modern ablation at
 * an equal hardware budget.  History folding reuses the util bit
 * helpers (the same Select-Fold family as the paper's SFSXS hash) but
 * is maintained incrementally per component, TAGE-CSR style.
 */

#ifndef IBP_PREDICTORS_ITTAGE_HH_
#define IBP_PREDICTORS_ITTAGE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitops.hh"
#include "util/probe.hh"
#include "util/sat_counter.hh"
#include "util/table.hh"
#include "predictors/path_history.hh"
#include "predictors/predictor.hh"

namespace ibp::pred {

/** Configuration of one ITTAGE predictor. */
struct IttageConfig
{
    std::size_t baseEntries = 512;       ///< tagless base table
    std::size_t numComponents = 6;       ///< tagged components
    std::size_t entriesPerComponent = 256;
    unsigned tagBits = 12;               ///< per-entry partial tag
    unsigned minHistory = 2;             ///< symbols, shortest component
    unsigned maxHistory = 64;            ///< symbols, longest component
    unsigned bitsPerTarget = 4;          ///< path-symbol width
    StreamSel stream = StreamSel::MtIndirect;
};

/** One tagged-component line: full target, partial tag, a 2-bit
 *  prediction-confidence counter and a 2-bit usefulness counter. */
struct IttageEntry
{
    trace::Addr target = 0;
    std::uint32_t tag = 0;
    util::SatCounter confidence{2, 0};
    util::SatCounter useful{2, 0};
    bool valid = false;
};

/**
 * A path-history slice folded down to @c width bits, maintained
 * incrementally (TAGE's circular-shift-register idiom).  The folded
 * value is the XOR over the window's symbols of
 * rotateLeft(symbol, symbolBits * age), so pushing a symbol rotates
 * the whole word once after the outgoing symbol's contribution is
 * cancelled — O(1) per retired branch instead of O(length).  Both
 * rotate amounts and the width mask are fixed by the geometry, so the
 * constructor computes them once and push() is shifts, ORs, ANDs and
 * XORs only.
 */
class FoldedHistory
{
  public:
    FoldedHistory(unsigned width, unsigned length, unsigned symbol_bits)
        : width_(width), length_(length),
          outRotate_(util::rotateAmount(symbol_bits * (length - 1),
                                        width)),
          inRotate_(util::rotateAmount(symbol_bits, width)),
          mask_(util::maskLow(width))
    {
        panic_if(width == 0 || width > 32,
                 "FoldedHistory width out of range: ", width);
        panic_if(length == 0, "FoldedHistory needs length >= 1");
    }

    /** Advance: @p incoming enters the window, @p outgoing (the
     *  length-th most recent symbol before the push) leaves it. */
    void
    push(std::uint32_t incoming, std::uint32_t outgoing)
    {
        const std::uint64_t gone = rotate(outgoing & mask_, outRotate_);
        folded_ = rotate(folded_ ^ gone, inRotate_) ^ (incoming & mask_);
    }

    std::uint64_t value() const { return folded_; }
    unsigned width() const { return width_; }
    unsigned length() const { return length_; }

    void reset() { folded_ = 0; }

    void
    saveState(util::StateWriter &writer) const
    {
        writer.writeU64(folded_);
    }

    void
    loadState(util::StateReader &reader)
    {
        const std::uint64_t folded = reader.readU64();
        if (reader.ok() && (folded & ~mask_) != 0) {
            reader.fail("FoldedHistory value wider than the register");
            return;
        }
        folded_ = folded;
    }

  private:
    /** util::rotateLeft(value, width_, amount) for value < 2^width_
     *  and amount < width_: the bits shifted past the width (at most
     *  63 bits in all, as width_ <= 32) wrap around to the bottom. */
    std::uint64_t
    rotate(std::uint64_t value, unsigned amount) const
    {
        const std::uint64_t wide = value << amount;
        return (wide | (wide >> width_)) & mask_;
    }

    unsigned width_;
    unsigned length_;
    unsigned outRotate_; ///< symbolBits * (length - 1) mod width
    unsigned inRotate_;  ///< symbolBits mod width
    std::uint64_t mask_; ///< the low width bits
    std::uint64_t folded_ = 0;
};

/** ITTAGE predictor: base table + tagged geometric-history components. */
class Ittage final : public IndirectPredictor
{
  public:
    /** Most tagged components a configuration may have: the
     *  per-branch index and tag scratch is a fixed-size stack array. */
    static constexpr std::size_t kMaxComponents = 16;

    explicit Ittage(const IttageConfig &config,
                    std::string name = "ITTAGE");

    std::string name() const override { return name_; }
    Prediction predict(trace::Addr pc) override;
    void update(trace::Addr pc, trace::Addr target) override;

    /** Fused fast path: every component's index and tag is hashed once
     *  per branch and shared by provider selection, training and
     *  allocation.  Bit-identical to split predict()+update(). */
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

    /** Component history lengths, shortest first (for tests). */
    const std::vector<unsigned> &historyLengths() const
    {
        return histLens_;
    }

    /** Index of the component (or kBase) a lookup of @p pc would use
     *  as provider right now (for tests; no state is touched). */
    static constexpr std::size_t kBase = ~std::size_t{0};
    std::size_t providerComponent(trace::Addr pc) const;

    /** Raw component entry access (for tests). */
    const IttageEntry &
    componentEntry(std::size_t component, trace::Addr pc) const
    {
        return components_[component].at(indexFor(component, pc));
    }

    /** The index and tag a lookup of @p pc computes for @p component
     *  under the current history (for tests). */
    std::uint64_t indexFor(std::size_t component, trace::Addr pc) const;
    std::uint32_t tagFor(std::size_t component, trace::Addr pc) const;

  private:
    /** Every component's row index and partial tag for one pc.  The
     *  histories only advance in observe(), so one computation serves
     *  the whole predict -> train -> allocate sequence of a branch.
     *  Callers declare it uninitialized and fill it with slotsFor(),
     *  which writes the first numComponents slots, the only ones ever
     *  read.  Zeroing all 192 bytes per branch cost roughly 15% of
     *  the fused path's time in a five-pair micro A/B. */
    struct Slots
    {
        std::uint64_t index[kMaxComponents];
        std::uint32_t tag[kMaxComponents];
    };

    /** The outcome of one lookup: provider, alternate and the
     *  prediction, as update() needs them. */
    struct Lookup
    {
        std::size_t provider = kBase;   ///< component index or kBase
        std::size_t altpred = kBase;    ///< next match below provider
        Prediction prediction;          ///< what predict() returned
        Prediction alternate;           ///< the alternate's target
        std::uint64_t baseIndex = 0;
    };

    void slotsFor(trace::Addr pc, Slots &slots) const;
    Lookup lookup(trace::Addr pc, const Slots &slots) const;
    void train(trace::Addr target, const Slots &slots,
               const Lookup &look);
    void allocate(trace::Addr target, const Slots &slots,
                  std::size_t provider);

    IttageConfig config_;
    std::string name_;
    std::vector<unsigned> histLens_;
    SymbolHistory history_;
    util::DirectTable<TargetEntry> base_;
    std::vector<util::DirectTable<IttageEntry>> components_;
    std::vector<FoldedHistory> indexFolds_;
    std::vector<FoldedHistory> tagFoldsA_;
    std::vector<FoldedHistory> tagFoldsB_;
    util::Counter allocations_;
    util::Counter allocationStalls_;
    util::Counter taggedProvides_;
};

/** Serialize one IttageEntry (checkpoint codec). */
void saveIttageEntry(util::StateWriter &writer, const IttageEntry &entry);

/** Restore one IttageEntry; out-of-range counters are corruption. */
void loadIttageEntry(util::StateReader &reader, IttageEntry &entry);

} // namespace ibp::pred

#endif // IBP_PREDICTORS_ITTAGE_HH_
