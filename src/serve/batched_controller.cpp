#include "serve/batched_controller.h"

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

/** Controller(config, Rng(seed)): the weight draw every engine shares. */
Controller
drawWeights(const DncConfig &config, std::uint64_t seed)
{
    Rng rng(seed);
    return Controller(config, rng);
}

} // namespace

BatchedController::BatchedController(const DncConfig &config,
                                     std::uint64_t seed, ThreadPool *pool)
    : config_(config), batch_(config.batchSize),
      feedWidth_(config.inputSize + config.readHeads * config.memoryWidth),
      readWidth_(config.readHeads * config.memoryWidth),
      proto_(drawWeights(config, seed)), pool_(pool)
{
    const Index h = config_.controllerSize;
    const Index ifaceSize = config_.interfaceSize();

    slots_.resize(batch_);
    colToSlot_.resize(batch_);
    freeSlots_.reserve(batch_);

    feed_.resize(feedWidth_ * batch_);
    hidden_.resize(h * batch_);
    hiddenPrev_.resize(h * batch_);
    cell_.resize(h * batch_);
    for (auto &g : gatePre_)
        g.resize(h * batch_);
    rawIface_.resize(ifaceSize * batch_);
    readsFlat_.resize(readWidth_ * batch_);
    outSoA_.resize(config_.outputSize * batch_);
    rawLane_.assign(batch_, Vector(ifaceSize));
    ifaces_.resize(batch_);
    reset();

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
            batch_, stepC0_, stepK_, rawIface_);
    };
    decodeTask_ = [this](Index j) {
        const Index column = stepC0_ + j;
        const Index slot = colToSlot_[column];
        laneGatherInto(rawIface_, batch_, column, config_.interfaceSize(),
                       rawLane_[slot]);
        decodeInterfaceInto(rawLane_[slot], config_, ifaces_[slot]);
    };
}

void
BatchedController::dispatch(Index count,
                            const std::function<void(Index)> &fn)
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
// Persistent per-lane state is three SoA columns (hidden, cell,
// previous reads); everything else is recomputed every step. The
// compaction invariant — Active columns form the prefix [0, active_),
// Draining columns sit in [active_, occupied_) — is maintained by
// swapping/moving single columns on each transition, so a transition
// costs O(H + R*W) strided copies and never allocates.
// ---------------------------------------------------------------------

void
BatchedController::swapColumns(Index a, Index b)
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
BatchedController::moveColumn(Index from, Index to)
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
BatchedController::zeroColumn(Index column)
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
BatchedController::admit()
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
    zeroColumn(active_);

    ++active_;
    ++occupied_;
    return slot;
}

void
BatchedController::markDraining(Index slot)
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
BatchedController::release(Index slot)
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
BatchedController::reset()
{
    hidden_.fill(0.0);
    cell_.fill(0.0);
    // readsFlat_ feeds the next step's controller input directly, so it
    // must drop the pre-reset reads too.
    readsFlat_.fill(0.0);
    for (Index b = 0; b < batch_; ++b) {
        slots_[b] = LaneSlot{LaneState::Active, b};
        colToSlot_[b] = b;
    }
    freeSlots_.clear();
    active_ = batch_;
    occupied_ = batch_;
}

// ---------------------------------------------------------------------
// Stepping.
// ---------------------------------------------------------------------

void
BatchedController::lstmRows(Index row0, Index row1)
{
    const Index c0 = stepC0_;
    const Index c1 = stepC0_ + stepK_;
    const Index stride = batch_;
    const LstmCell &lstm = proto_.lstm();

    // Gate pre-activations: per lane, the LstmCell::step chain — Wx x
    // complete, then + Wh h complete; the bias joins in the cell loop,
    // giving (Wx x + Wh h) + b.
    for (int g = 0; g < 4; ++g) {
        batchedMatVecRowsInto(lstm.inputWeights(g), row0, row1, feed_,
                              stride, c0, stepK_, gatePre_[g]);
        batchedMatVecRowsAccumulate(lstm.recurrentWeights(g), row0, row1,
                                    hiddenPrev_, stride, c0, stepK_,
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
        for (Index b = c0; b < c1; ++b) {
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
BatchedController::stepControllers(const std::vector<Vector> &inputs,
                                   Index c0, Index k)
{
    HIMA_ASSERT(inputs.size() == batch_, "batch input arity %zu != %zu",
                inputs.size(), batch_);
    HIMA_ASSERT(k >= 1 && c0 + k <= active_,
                "stepControllers: columns [%zu, %zu + %zu) outside the "
                "active prefix of %zu",
                c0, c0, k, active_);
    const Index c1 = c0 + k;

    // Feed concat [input; previous reads] into the SoA tile. inputs is
    // slot-indexed; the column walk routes each slot's token to its
    // current column. The reads block of the feed has exactly
    // readsFlat_'s layout (row r*W+c, column b) and storeReads() left
    // last step's reads there — copy only the range of each row.
    Real *pf = feed_.data();
    for (Index c = c0; c < c1; ++c) {
        const Index slot = colToSlot_[c];
        HIMA_ASSERT(inputs[slot].size() == config_.inputSize,
                    "slot %zu input width %zu != %zu", slot,
                    inputs[slot].size(), config_.inputSize);
        const Real *pi = inputs[slot].data();
        for (Index i = 0; i < config_.inputSize; ++i)
            pf[i * batch_ + c] = pi[i];
    }
    const Real *prf = readsFlat_.data();
    Real *pfr = pf + config_.inputSize * batch_;
    for (Index i = 0; i < readWidth_; ++i)
        std::copy(prf + i * batch_ + c0, prf + i * batch_ + c1,
                  pfr + i * batch_ + c0);

    // Recurrence reads the pre-step hidden state; the row blocks write
    // hidden_ in place, so snapshot the range's columns once per step.
    const Real *ph = hidden_.data();
    Real *php = hiddenPrev_.data();
    for (Index j = 0; j < config_.controllerSize; ++j)
        std::copy(ph + j * batch_ + c0, ph + j * batch_ + c1,
                  php + j * batch_ + c0);

    stepC0_ = c0;
    stepK_ = k;
    dispatch(lstmBlocks_, lstmTask_);
    dispatch(ifaceBlocks_, ifaceTask_);
    dispatch(k, decodeTask_);
}

void
BatchedController::storeReads(Index column, const std::vector<Vector> &reads)
{
    const Index w = config_.memoryWidth;
    for (Index head = 0; head < config_.readHeads; ++head)
        laneScatterInto(reads[head], batch_, column, readsFlat_, head * w);
}

void
BatchedController::outputInto(Index c0, Index k,
                              std::vector<Vector> &outputs)
{
    // y = (W_y h) + (W_r reads), the Controller::outputInto chain: each
    // lane's two row sums are completed before the single +=.
    const Matrix &wy = proto_.outputHead();
    batchedMatVecRowsInto(wy, 0, wy.rows(), hidden_, batch_, c0, k, outSoA_);
    const Matrix &wr = proto_.readHead();
    batchedMatVecRowsAccumulate(wr, 0, wr.rows(), readsFlat_, batch_, c0, k,
                                outSoA_);
    for (Index c = c0; c < c0 + k; ++c)
        laneGatherInto(outSoA_, batch_, c, config_.outputSize,
                       outputs[colToSlot_[c]]);
}

Vector
BatchedController::laneHidden(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneHidden: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(hidden_, batch_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

Vector
BatchedController::laneCell(Index slot) const
{
    HIMA_ASSERT(slots_[slot].state != LaneState::Free,
                "laneCell: slot %zu is Free", slot);
    Vector v;
    laneGatherInto(cell_, batch_, slots_[slot].column,
                   config_.controllerSize, v);
    return v;
}

} // namespace hima
