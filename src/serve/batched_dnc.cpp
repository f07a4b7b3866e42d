#include "serve/batched_dnc.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "dnc/interface.h"

namespace hima {

namespace {

/**
 * Rows per pool task in the controller sweeps: a multiple of the
 * mat-vec kernel's 8-row register tile, so only a matrix's last block
 * runs a partial tile.
 */
constexpr Index kRowBlock = 32;

Index
blockCount(Index rows)
{
    return (rows + kRowBlock - 1) / kRowBlock;
}

} // namespace

BatchedDnc::BatchedDnc(const DncConfig &config, std::uint64_t seed)
    : config_(config), batch_(config.batchSize),
      feedWidth_(config.inputSize + config.readHeads * config.memoryWidth),
      readWidth_(config.readHeads * config.memoryWidth), rng_(seed),
      proto_(config_, rng_)
{
    config_.validate();

    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    const Index r = config_.readHeads;
    const Index h = config_.controllerSize;
    const Index ifaceSize = config_.interfaceSize();

    lanes_.reserve(batch_);
    for (Index b = 0; b < batch_; ++b)
        lanes_.emplace_back(config_);

    // Pre-size every per-lane buffer so the first step is already in
    // steady state: MemoryUnit::stepInto's resizes become no-ops and the
    // feed concat reads zeroed previous-step read vectors, exactly like
    // a fresh Dnc.
    readouts_.resize(batch_);
    for (MemoryReadout &ro : readouts_) {
        ro.readVectors.assign(r, Vector(w));
        ro.readWeightings.assign(r, Vector(n));
        ro.writeWeighting.resize(n);
    }
    ifaces_.resize(batch_);
    rawLane_.assign(batch_, Vector(ifaceSize));

    // All slots start Active in their home columns (slot i == column i):
    // the fixed-B lockstep behavior, unchanged for churn-free callers.
    slots_.resize(batch_);
    colToSlot_.resize(batch_);
    for (Index b = 0; b < batch_; ++b) {
        slots_[b] = LaneSlot{LaneState::Active, b};
        colToSlot_[b] = b;
    }
    freeSlots_.reserve(batch_);
    active_ = batch_;
    occupied_ = batch_;

    feed_.resize(feedWidth_ * batch_);
    hidden_.resize(h * batch_);
    hiddenPrev_.resize(h * batch_);
    cell_.resize(h * batch_);
    for (auto &g : gatePre_)
        g.resize(h * batch_);
    rawIface_.resize(ifaceSize * batch_);
    readsFlat_.resize(readWidth_ * batch_);
    outSoA_.resize(config_.outputSize * batch_);

    if (config_.numThreads > 1)
        pool_ = std::make_unique<ThreadPool>(config_.numThreads);
    lstmBlocks_ = blockCount(h);
    ifaceBlocks_ = blockCount(ifaceSize);

    // Prebuilt tasks: a [this] capture fits std::function's small-object
    // buffer, and reusing the members keeps steady-state steps free of
    // even transient allocations.
    lstmTask_ = [this](Index blk) {
        const Index row0 = blk * kRowBlock;
        lstmRows(row0, std::min(row0 + kRowBlock, config_.controllerSize));
    };
    ifaceTask_ = [this](Index blk) {
        const Index row0 = blk * kRowBlock;
        batchedMatVecRowsInto(
            proto_.interfaceHead(), row0,
            std::min(row0 + kRowBlock, config_.interfaceSize()), hidden_,
            batch_, active_, rawIface_);
    };
    laneTask_ = [this](Index column) { columnStep(column); };
}

void
BatchedDnc::dispatch(Index count, const std::function<void(Index)> &fn)
{
    if (pool_) {
        pool_->parallelFor(count, fn);
    } else {
        for (Index i = 0; i < count; ++i)
            fn(i);
    }
}

// ---------------------------------------------------------------------
// Lane lifecycle.
//
// Persistent per-lane controller state is three SoA columns (hidden,
// cell, previous reads); everything else is recomputed every step. The
// compaction invariant — Active columns form the prefix [0, active_),
// Draining columns sit in [active_, occupied_) — is maintained by
// swapping/moving single columns on each transition, so a transition
// costs O(H + R*W) strided copies and never allocates.
// ---------------------------------------------------------------------

void
BatchedDnc::swapColumns(Index a, Index b)
{
    if (a == b)
        return;
    const Index h = config_.controllerSize;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < h; ++j) {
        std::swap(ph[j * batch_ + a], ph[j * batch_ + b]);
        std::swap(pc[j * batch_ + a], pc[j * batch_ + b]);
    }
    for (Index k = 0; k < readWidth_; ++k)
        std::swap(pr[k * batch_ + a], pr[k * batch_ + b]);
    std::swap(colToSlot_[a], colToSlot_[b]);
    slots_[colToSlot_[a]].column = a;
    slots_[colToSlot_[b]].column = b;
}

void
BatchedDnc::moveColumn(Index from, Index to)
{
    if (from == to)
        return;
    const Index h = config_.controllerSize;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < h; ++j) {
        ph[j * batch_ + to] = ph[j * batch_ + from];
        pc[j * batch_ + to] = pc[j * batch_ + from];
    }
    for (Index k = 0; k < readWidth_; ++k)
        pr[k * batch_ + to] = pr[k * batch_ + from];
    colToSlot_[to] = colToSlot_[from];
    slots_[colToSlot_[to]].column = to;
}

void
BatchedDnc::zeroColumn(Index column)
{
    const Index h = config_.controllerSize;
    Real *ph = hidden_.data();
    Real *pc = cell_.data();
    Real *pr = readsFlat_.data();
    for (Index j = 0; j < h; ++j) {
        ph[j * batch_ + column] = 0.0;
        pc[j * batch_ + column] = 0.0;
    }
    for (Index k = 0; k < readWidth_; ++k)
        pr[k * batch_ + column] = 0.0;
}

Index
BatchedDnc::admit()
{
    HIMA_ASSERT(!freeSlots_.empty(), "admit: no free lanes (capacity %zu)",
                batch_);

    // The new Active column goes at active_, which may currently back a
    // Draining lane — relocate that lane to the end of the occupied
    // region first.
    if (occupied_ > active_)
        moveColumn(active_, occupied_);

    const Index slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = LaneSlot{LaneState::Active, active_};
    colToSlot_[active_] = slot;

    // In-place episode reset: the admitted lane must be bit-identical to
    // a freshly constructed Dnc. Nothing here reallocates.
    zeroColumn(active_);
    lanes_[slot].reset();
    for (Vector &rv : readouts_[slot].readVectors)
        rv.fill(0.0);
    for (Vector &rw : readouts_[slot].readWeightings)
        rw.fill(0.0);
    readouts_[slot].writeWeighting.fill(0.0);

    ++active_;
    ++occupied_;
    return slot;
}

void
BatchedDnc::markDraining(Index slot)
{
    HIMA_ASSERT(slot < batch_, "markDraining: slot %zu >= %zu", slot, batch_);
    HIMA_ASSERT(slots_[slot].state == LaneState::Active,
                "markDraining: slot %zu is not Active", slot);
    // Swap the lane to the end of the active prefix; the column there
    // belongs to another Active lane whose state must survive the swap.
    swapColumns(slots_[slot].column, active_ - 1);
    slots_[slot].state = LaneState::Draining;
    --active_;
}

void
BatchedDnc::release(Index slot)
{
    HIMA_ASSERT(slot < batch_, "release: slot %zu >= %zu", slot, batch_);
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "release: slot %zu is already Free", slot);
    if (slots_[slot].state == LaneState::Active)
        markDraining(slot);
    // Swap the lane to the end of the occupied region and drop it.
    swapColumns(slots_[slot].column, occupied_ - 1);
    slots_[slot].state = LaneState::Free;
    --occupied_;
    freeSlots_.push_back(slot);
}

void
BatchedDnc::lstmRows(Index row0, Index row1)
{
    const Index active = active_;
    const Index stride = batch_;
    const LstmCell &lstm = proto_.lstm();

    // Gate pre-activations: per lane, the LstmCell::step chain — Wx x
    // complete, then + Wh h complete; the bias joins in the cell loop,
    // giving (Wx x + Wh h) + b.
    for (int g = 0; g < 4; ++g) {
        batchedMatVecRowsInto(lstm.inputWeights(g), row0, row1, feed_,
                              stride, active, gatePre_[g]);
        batchedMatVecRowsAccumulate(lstm.recurrentWeights(g), row0, row1,
                                    hiddenPrev_, stride, active,
                                    gatePre_[g]);
    }

    // Cell/hidden update, scalar-for-scalar LstmCell::step.
    Real *pc = cell_.data();
    Real *ph = hidden_.data();
    for (Index j = row0; j < row1; ++j) {
        const Real bi = lstm.gateBias(0)[j];
        const Real bf = lstm.gateBias(1)[j];
        const Real bc = lstm.gateBias(2)[j];
        const Real bo = lstm.gateBias(3)[j];
        const Real *gi = gatePre_[0].data() + j * stride;
        const Real *gf = gatePre_[1].data() + j * stride;
        const Real *gc = gatePre_[2].data() + j * stride;
        const Real *go = gatePre_[3].data() + j * stride;
        Real *cl = pc + j * stride;
        Real *hl = ph + j * stride;
        for (Index b = 0; b < active; ++b) {
            const Real i = sigmoid(gi[b] + bi);
            const Real f = sigmoid(gf[b] + bf);
            const Real cand = std::tanh(gc[b] + bc);
            const Real o = sigmoid(go[b] + bo);
            cl[b] = f * cl[b] + i * cand;
            hl[b] = o * std::tanh(cl[b]);
        }
    }
}

void
BatchedDnc::columnStep(Index column)
{
    const Index w = config_.memoryWidth;
    const Index slot = colToSlot_[column];

    // Decode this lane's interface emission and run its memory tile —
    // the unchanged allocation-free MemoryUnit hot path.
    laneGatherInto(rawIface_, batch_, column, config_.interfaceSize(),
                   rawLane_[slot]);
    decodeInterfaceInto(rawLane_[slot], config_, ifaces_[slot]);
    lanes_[slot].stepInto(ifaces_[slot], readouts_[slot]);

    // Scatter this step's read vectors into the SoA feed for the output
    // head (and next step's controller input).
    for (Index head = 0; head < config_.readHeads; ++head)
        laneScatterInto(readouts_[slot].readVectors[head], batch_, column,
                        readsFlat_, head * w);
}

void
BatchedDnc::outputSweep()
{
    // y = (W_y h) + (W_r reads), the Controller::outputInto chain: each
    // lane's two row sums are completed before the single +=.
    batchedMatVecInto(proto_.outputHead(), hidden_, batch_, active_, outSoA_);
    batchedMatVecAccumulate(proto_.readHead(), readsFlat_, batch_, active_,
                            outSoA_);
}

void
BatchedDnc::stepInto(const std::vector<Vector> &inputs,
                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == batch_, "batch input arity %zu != %zu",
                inputs.size(), batch_);

    outputs.resize(batch_);
    if (active_ == 0)
        return;

    // Feed concat [input; previous reads] into the SoA tile. inputs is
    // slot-indexed; the active prefix walk routes each Active slot's
    // token to its current column. The reads block of the feed has
    // exactly readsFlat_'s layout (row r*W+c, column b) and columnStep
    // left last step's reads there — copy only the active prefix of each
    // row, so occupancy bounds the work.
    Real *pf = feed_.data();
    for (Index c = 0; c < active_; ++c) {
        const Index slot = colToSlot_[c];
        HIMA_ASSERT(inputs[slot].size() == config_.inputSize,
                    "slot %zu input width %zu != %zu", slot,
                    inputs[slot].size(), config_.inputSize);
        const Real *pi = inputs[slot].data();
        for (Index k = 0; k < config_.inputSize; ++k)
            pf[k * batch_ + c] = pi[k];
    }
    const Real *prf = readsFlat_.data();
    Real *pfr = pf + config_.inputSize * batch_;
    for (Index k = 0; k < readWidth_; ++k)
        std::copy(prf + k * batch_, prf + k * batch_ + active_,
                  pfr + k * batch_);

    // Recurrence reads the pre-step hidden state; the row blocks write
    // hidden_ in place, so snapshot the active columns once per step.
    const Real *ph = hidden_.data();
    Real *php = hiddenPrev_.data();
    for (Index j = 0; j < config_.controllerSize; ++j)
        std::copy(ph + j * batch_, ph + j * batch_ + active_,
                  php + j * batch_);

    dispatch(lstmBlocks_, lstmTask_);
    dispatch(ifaceBlocks_, ifaceTask_);
    dispatch(active_, laneTask_);
    outputSweep();

    for (Index c = 0; c < active_; ++c)
        laneGatherInto(outSoA_, batch_, c, config_.outputSize,
                       outputs[colToSlot_[c]]);
}

std::vector<Vector>
BatchedDnc::step(const std::vector<Vector> &inputs)
{
    std::vector<Vector> outputs;
    stepInto(inputs, outputs);
    return outputs;
}

void
BatchedDnc::reset()
{
    for (MemoryUnit &lane : lanes_)
        lane.reset();
    hidden_.fill(0.0);
    cell_.fill(0.0);
    // readsFlat_ feeds the next step's controller input directly, so it
    // must drop the pre-reset reads along with the per-lane copies.
    readsFlat_.fill(0.0);
    for (MemoryReadout &ro : readouts_)
        for (Vector &rv : ro.readVectors)
            rv.fill(0.0);

    // Restore the construction-time lifecycle: every slot Active in its
    // home column.
    for (Index b = 0; b < batch_; ++b) {
        slots_[b] = LaneSlot{LaneState::Active, b};
        colToSlot_[b] = b;
    }
    freeSlots_.clear();
    active_ = batch_;
    occupied_ = batch_;
}

Vector
BatchedDnc::laneHidden(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneHidden: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(hidden_, batch_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

Vector
BatchedDnc::laneCell(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneCell: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(cell_, batch_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

} // namespace hima
