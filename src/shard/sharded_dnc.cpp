#include "shard/sharded_dnc.h"

#include <algorithm>

#include "obs/trace.h"

namespace hima {

// --------------------------------------------------------------------
// ShardedDnc
// --------------------------------------------------------------------

namespace {

/** A tile backend must host the shapes the controller emits for. */
void
checkBackendShapes(const DncConfig &config, const DncConfig &mem,
                   const char *who)
{
    HIMA_ASSERT(mem.memoryRows == config.memoryRows &&
                    mem.memoryWidth == config.memoryWidth &&
                    mem.readHeads == config.readHeads &&
                    mem.fixedPoint == config.fixedPoint,
                "%s: tile backend shapes diverge from config", who);
}

} // namespace

ShardedDnc::ShardedDnc(const DncConfig &config, std::uint64_t seed,
                       std::unique_ptr<TileMemory> memory)
    : config_(config), rng_(seed), controller_(config, rng_),
      memory_(std::move(memory)),
      lastReads_(config.readHeads, Vector(config.memoryWidth))
{
    HIMA_ASSERT(memory_ != nullptr, "ShardedDnc: null tile backend");
    checkBackendShapes(config_, memory_->globalConfig(), "ShardedDnc");
}

void
ShardedDnc::stepInto(const Vector &input, Vector &out)
{
    const InterfaceVector &iface = controller_.stepInto(input, lastReads_);
    memory_->stepInterfaceInto(iface, readout_);
    for (Index head = 0; head < config_.readHeads; ++head)
        std::copy(readout_.readVectors[head].begin(),
                  readout_.readVectors[head].end(),
                  lastReads_[head].begin());
    controller_.outputInto(lastReads_, out);
}

Vector
ShardedDnc::step(const Vector &input)
{
    Vector out;
    stepInto(input, out);
    return out;
}

void
ShardedDnc::reset()
{
    controller_.reset();
    memory_->reset();
    for (auto &rv : lastReads_)
        rv.fill(0.0);
}

void
ShardedDnc::beginEpisode()
{
    controller_.reset();
    memory_->beginEpisode();
    for (auto &rv : lastReads_)
        rv.fill(0.0);
}

// --------------------------------------------------------------------
// ShardedLaneEngine
// --------------------------------------------------------------------

ShardedLaneEngine::ShardedLaneEngine(const DncConfig &config,
                                     std::uint64_t seed,
                                     const BackendFactory &factory)
    : config_(config), controller_(config, seed),
      readouts_(config.batchSize)
{
    HIMA_ASSERT(static_cast<bool>(factory),
                "ShardedLaneEngine: null backend factory");
    backends_.reserve(config_.batchSize);
    for (Index lane = 0; lane < config_.batchSize; ++lane) {
        backends_.push_back(factory(lane));
        HIMA_ASSERT(backends_.back() != nullptr,
                    "ShardedLaneEngine: null tile backend");
        checkBackendShapes(config_, backends_.back()->globalConfig(),
                           "ShardedLaneEngine");
    }
}

void
ShardedLaneEngine::stepInto(const std::vector<Vector> &inputs,
                            std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(),
                "stepInto: need one input slot per lane");
    outputs.resize(capacity());
    const Index active = controller_.activeLanes();
    if (active == 0)
        return;

    {
        obs::TraceSpan span("shard.controller_compute", active);
        controller_.stepControllers(inputs, 0, active);
    }
    // Each lane's tile round trip, in column order: lanes are
    // independent, so only the work between lanes is reordered.
    for (Index c = 0; c < active; ++c) {
        const Index slot = controller_.slotAt(c);
        backends_[slot]->stepInterfaceInto(controller_.laneInterface(slot),
                                           readouts_[slot]);
        controller_.storeReads(c, readouts_[slot].readVectors);
    }
    obs::TraceSpan span("shard.output_head", active);
    controller_.outputInto(0, active, outputs);
}

Index
ShardedLaneEngine::admit()
{
    const Index slot = controller_.admit();
    backends_[slot]->beginEpisode();
    return slot;
}

void
ShardedLaneEngine::reset()
{
    controller_.reset();
    for (auto &backend : backends_)
        backend->reset();
}

// --------------------------------------------------------------------
// PipelinedShardedLaneEngine
// --------------------------------------------------------------------

PipelinedShardedLaneEngine::PipelinedShardedLaneEngine(
    const DncConfig &config, std::uint64_t seed,
    std::shared_ptr<ShardLaneGroup> group, Index lanesPerBatch)
    : config_(config), group_(std::move(group)),
      lanesPerBatch_(lanesPerBatch != 0 ? lanesPerBatch
                                        : config.shardLanesPerBatch),
      controller_(config, seed), readouts_(config.batchSize)
{
    HIMA_ASSERT(group_ != nullptr, "null shard lane group");
    HIMA_ASSERT(group_->lanes() == config_.batchSize,
                "group hosts %zu lanes but batchSize is %zu",
                group_->lanes(), config_.batchSize);
    checkBackendShapes(config_, group_->globalConfig(),
                       "PipelinedShardedLaneEngine");
    batchLanes_.reserve(config_.batchSize);
    batchIfaces_.reserve(config_.batchSize);
    batchOuts_.reserve(config_.batchSize);
}

void
PipelinedShardedLaneEngine::sortBatchSlots(Index first, Index count)
{
    // Compaction leaves slots in any column order; an insertion sort
    // over a batch (a handful of lanes) restores the ascending lane ids
    // the scatter requires, without allocating.
    batchLanes_.clear();
    for (Index c = first; c < first + count; ++c) {
        batchLanes_.push_back(controller_.slotAt(c));
        for (Index j = batchLanes_.size() - 1;
             j > 0 && batchLanes_[j - 1] > batchLanes_[j]; --j)
            std::swap(batchLanes_[j - 1], batchLanes_[j]);
    }
}

void
PipelinedShardedLaneEngine::finishBatch(Index first, Index count,
                                        std::vector<Vector> &outputs)
{
    sortBatchSlots(first, count);
    batchOuts_.clear();
    for (Index slot : batchLanes_)
        batchOuts_.push_back(&readouts_[slot]);
    group_->gather(batchOuts_);
    for (Index c = first; c < first + count; ++c)
        controller_.storeReads(
            c, readouts_[controller_.slotAt(c)].readVectors);
    obs::TraceSpan span("shard.output_head", count);
    controller_.outputInto(first, count, outputs);
}

void
PipelinedShardedLaneEngine::stepInto(const std::vector<Vector> &inputs,
                                     std::vector<Vector> &outputs)
{
    HIMA_ASSERT(inputs.size() == capacity(),
                "stepInto: need one input slot per lane");
    outputs.resize(capacity());
    const Index total = controller_.activeLanes();
    if (total == 0)
        return;
    const Index k =
        lanesPerBatch_ == 0 ? total : std::min(lanesPerBatch_, total);

    // The software pipeline: step and scatter batch b, then — while its
    // round trip is in flight — gather batch b-1 and emit its outputs.
    // Batches are disjoint column ranges and each lane's own
    // controller -> tiles -> merge -> output order is untouched, so
    // per-lane results cannot depend on the overlap.
    Index prevFirst = 0;
    Index prevCount = 0;
    for (Index first = 0; first < total; first += k) {
        const Index count = std::min(k, total - first);
        {
            obs::TraceSpan span("shard.controller_compute", count);
            controller_.stepControllers(inputs, first, count);
        }
        sortBatchSlots(first, count);
        batchIfaces_.clear();
        for (Index slot : batchLanes_)
            batchIfaces_.push_back(&controller_.laneInterface(slot));
        group_->scatter(batchLanes_, batchIfaces_);
        if (prevCount > 0)
            finishBatch(prevFirst, prevCount, outputs);
        prevFirst = first;
        prevCount = count;
    }
    finishBatch(prevFirst, prevCount, outputs);
}

Index
PipelinedShardedLaneEngine::admit()
{
    const Index slot = controller_.admit();
    group_->admitLane(slot);
    return slot;
}

void
PipelinedShardedLaneEngine::reset()
{
    group_->resetAll();
    controller_.reset();
}

} // namespace hima
