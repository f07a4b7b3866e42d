#include "serve/batched_dnc.h"

namespace hima {

namespace {

/** The pool BatchedDnc hands its controller: present at numThreads > 1. */
std::unique_ptr<ThreadPool>
makePool(const DncConfig &config)
{
    if (config.numThreads > 1)
        return std::make_unique<ThreadPool>(config.numThreads);
    return nullptr;
}

/** One MemoryUnit tile per slot. */
std::vector<MemoryUnit>
makeLanes(const DncConfig &config)
{
    config.validate();
    std::vector<MemoryUnit> lanes;
    lanes.reserve(config.batchSize);
    for (Index b = 0; b < config.batchSize; ++b)
        lanes.emplace_back(config);
    return lanes;
}

} // namespace

BatchedDnc::BatchedDnc(const DncConfig &config, std::uint64_t seed)
    : config_(config), pool_(makePool(config)), lanes_(makeLanes(config)),
      controller_(config, seed, pool_.get())
{
    const Index batch = config_.batchSize;
    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    const Index r = config_.readHeads;

    // Pre-size every per-lane buffer so the first step is already in
    // steady state: MemoryUnit::stepInto's resizes become no-ops.
    readouts_.resize(batch);
    for (MemoryReadout &ro : readouts_) {
        ro.readVectors.assign(r, Vector(w));
        ro.readWeightings.assign(r, Vector(n));
        ro.writeWeighting.resize(n);
    }

    laneTask_ = [this](Index column) { columnStep(column); };
}

Index
BatchedDnc::admit()
{
    const Index slot = controller_.admit();

    // In-place episode reset: the admitted lane must be bit-identical to
    // a freshly constructed Dnc. Nothing here reallocates.
    lanes_[slot].reset();
    for (Vector &rv : readouts_[slot].readVectors)
        rv.fill(0.0);
    for (Vector &rw : readouts_[slot].readWeightings)
        rw.fill(0.0);
    readouts_[slot].writeWeighting.fill(0.0);
    return slot;
}

void
BatchedDnc::markDraining(Index slot)
{
    controller_.markDraining(slot);
}

void
BatchedDnc::release(Index slot)
{
    controller_.release(slot);
}

void
BatchedDnc::columnStep(Index column)
{
    // The unchanged allocation-free MemoryUnit hot path, then this
    // step's reads into the controller's SoA tile for the output head
    // (and next step's controller input).
    const Index slot = controller_.slotAt(column);
    lanes_[slot].stepInto(controller_.laneInterface(slot), readouts_[slot]);
    controller_.storeReads(column, readouts_[slot].readVectors);
}

void
BatchedDnc::stepInto(const std::vector<Vector> &inputs,
                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(), "batch input arity %zu != %zu",
                inputs.size(), capacity());

    outputs.resize(capacity());
    const Index active = controller_.activeLanes();
    if (active == 0)
        return;

    controller_.stepControllers(inputs, 0, active);
    if (pool_) {
        pool_->parallelFor(active, laneTask_);
    } else {
        for (Index c = 0; c < active; ++c)
            columnStep(c);
    }
    controller_.outputInto(0, active, outputs);
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
    controller_.reset();
    for (MemoryUnit &lane : lanes_)
        lane.reset();
    for (MemoryReadout &ro : readouts_)
        for (Vector &rv : ro.readVectors)
            rv.fill(0.0);
}

} // namespace hima
