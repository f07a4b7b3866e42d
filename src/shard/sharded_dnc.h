/**
 * @file
 * ShardedDnc: a full DNC whose controller runs locally and whose
 * external memory is a TileMemory — the in-process DncD, the
 * wire-connected ShardCoordinator, or one lane of a shared
 * ShardLaneGroup. This is the Fig. 8 deployment shape:
 * the LSTM and projection heads live with the request front-end, the
 * memory tiles live wherever capacity is (threads, processes, hosts),
 * and only interface vectors and merged read vectors cross the
 * boundary. ShardedDnc is the single-lane reference the serving
 * engines below are proven against.
 *
 * The two serving engines lift capacity-many lanes behind the
 * LaneEngine surface, so the dynamic-batching Router (src/serve/) can
 * route an arrival process onto a sharded fleet unchanged. Both keep
 * one batched controller per lane group (serve/batched_controller.h):
 * one shared weight set streamed once across a column range of the
 * lanes, the same component BatchedDnc steps, which also owns the lane
 * lifecycle. Only the memory side differs:
 *
 *   - ShardedLaneEngine gives each lane its own backend (any
 *     TileMemory — over the wire, a ShardCoordinator, i.e. a one-lane
 *     ShardLaneGroup stepped with a window of one). A step runs every
 *     active lane's controller, then each lane's tile round trip, then
 *     the output head; admit() maps to the wire's Admit control, which
 *     episode-resets the lane's remote tiles in place.
 *
 *   - PipelinedShardedLaneEngine puts every lane on one shared
 *     ShardLaneGroup fleet (shard/pipeline.h): steps travel as
 *     lane-batched frames (DncConfig::shardLanesPerBatch lanes per
 *     worker round trip), and the engine runs a double-buffered step
 *     window — one batched controller step per batch of columns, issued
 *     while the previous batch's tile round trip is in flight.
 *
 * Lanes are independent, so each lane's controller -> tiles -> merge ->
 * output chain is untouched by batching or overlap, and both engines
 * stay bit-identical per lane to dedicated ShardedDnc runs (proven in
 * tests/test_shard.cpp). Neither engine starts a thread of its own:
 * the controller steps on the calling thread.
 */

#ifndef HIMA_SHARD_SHARDED_DNC_H
#define HIMA_SHARD_SHARDED_DNC_H

#include <functional>
#include <memory>
#include <vector>

#include "dnc/dncd.h"
#include "serve/batched_controller.h"
#include "serve/engine.h"
#include "shard/pipeline.h"

namespace hima {

/** A DNC with a local controller and pluggable (possibly remote) tiles. */
class ShardedDnc
{
  public:
    /**
     * @param config shapes and feature flags (memoryRows = global N);
     *               controller weights are drawn exactly like
     *               Dnc(config, seed)'s
     * @param seed   weight-initialization seed
     * @param memory the tile backend; its globalConfig() must match
     */
    ShardedDnc(const DncConfig &config, std::uint64_t seed,
               std::unique_ptr<TileMemory> memory);

    /**
     * One inference step: controller -> interface -> broadcast to every
     * tile -> confidence merge -> output head.
     */
    Vector step(const Vector &input);

    /** Destination-passing step (out resized and overwritten). */
    void stepInto(const Vector &input, Vector &out);

    /** Reset controller and tile state (episode boundary). */
    void reset();

    /** Admission-path reset: new episode on recycled lane/tiles. */
    void beginEpisode();

    const DncConfig &config() const { return config_; }
    TileMemory &memory() { return *memory_; }
    const TileMemory &memory() const { return *memory_; }
    Controller &controller() { return controller_; }

    /** Merged read vectors from the previous step (width W each). */
    const std::vector<Vector> &lastReads() const { return lastReads_; }

  private:
    DncConfig config_;
    Rng rng_;
    Controller controller_;
    std::unique_ptr<TileMemory> memory_;
    std::vector<Vector> lastReads_;
    MemoryReadout readout_; ///< reused across step() calls
};

/**
 * capacity-many sharded lanes behind the LaneEngine surface, each lane
 * with its own tile backend: lane state lives on the shard workers, and
 * the Router's dynamic batching, admission and back-pressure apply to a
 * distributed fleet unchanged. The controllers are one
 * BatchedController, stepped over every active column at once.
 */
class ShardedLaneEngine final : public LaneEngine
{
  public:
    /** Builds the tile backend for one lane. */
    using BackendFactory =
        std::function<std::unique_ptr<TileMemory>(Index lane)>;

    /**
     * @param config  shapes + serving knobs; batchSize = lane count
     * @param seed    controller weight seed, shared by every lane (the
     *                same draw as ShardedDnc(config, seed))
     * @param factory called once per lane at construction
     */
    ShardedLaneEngine(const DncConfig &config, std::uint64_t seed,
                      const BackendFactory &factory);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override
    {
        controller_.markDraining(slot);
    }
    void release(Index slot) override { controller_.release(slot); }
    LaneState laneState(Index slot) const override
    {
        return controller_.laneState(slot);
    }
    Index activeLanes() const override { return controller_.activeLanes(); }
    Index drainingLanes() const override
    {
        return controller_.drainingLanes();
    }
    Index freeLanes() const override { return controller_.freeLanes(); }
    Index capacity() const override { return controller_.capacity(); }
    void reset() override;
    const DncConfig &config() const override { return config_; }

  private:
    DncConfig config_;
    BatchedController controller_;
    std::vector<std::unique_ptr<TileMemory>> backends_; ///< per slot
    std::vector<MemoryReadout> readouts_;               ///< per slot
};

/**
 * The software-pipelined sharded serving engine: config.batchSize lanes
 * on one shared ShardLaneGroup fleet. stepInto() cuts the active column
 * prefix into batches of `lanesPerBatch` columns and steps batch b's
 * controllers (one batched step) and scatters it before gathering
 * batch b-1 and running its output head (ShardLaneGroup's
 * double-buffered window); admit() maps to the wire's per-lane Admit
 * control, so recycling one lane never disturbs its fleet neighbours.
 * Zero steady-state allocations, like every serving loop here.
 */
class PipelinedShardedLaneEngine final : public LaneEngine
{
  public:
    /**
     * @param config shapes + serving knobs; batchSize = lane count and
     *               must equal group->lanes()
     * @param seed   controller weight seed (same draw as
     *               ShardedDnc(config, seed), shared by every lane)
     * @param group  the shared fleet; the engine co-owns it so worker
     *               harness structs can hold the other reference
     * @param lanesPerBatch lanes per worker round trip; 0 defers to
     *               config.shardLanesPerBatch (whose own 0 means "all
     *               active lanes in one frame" — maximal syscall
     *               amortization, no compute/wire overlap)
     */
    PipelinedShardedLaneEngine(const DncConfig &config, std::uint64_t seed,
                               std::shared_ptr<ShardLaneGroup> group,
                               Index lanesPerBatch = 0);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override
    {
        controller_.markDraining(slot);
    }
    void release(Index slot) override { controller_.release(slot); }
    LaneState laneState(Index slot) const override
    {
        return controller_.laneState(slot);
    }
    Index activeLanes() const override { return controller_.activeLanes(); }
    Index drainingLanes() const override
    {
        return controller_.drainingLanes();
    }
    Index freeLanes() const override { return controller_.freeLanes(); }
    Index capacity() const override { return controller_.capacity(); }
    void reset() override;
    const DncConfig &config() const override { return config_; }

    ShardLaneGroup &group() { return *group_; }
    Index lanesPerBatch() const { return lanesPerBatch_; }

  private:
    /**
     * The slots of columns [first, first + count), ascending (the
     * order ShardLaneGroup::scatter requires), into batchLanes_.
     */
    void sortBatchSlots(Index first, Index count);

    /** Gather one scattered batch and run its output head. */
    void finishBatch(Index first, Index count,
                     std::vector<Vector> &outputs);

    DncConfig config_;
    std::shared_ptr<ShardLaneGroup> group_;
    Index lanesPerBatch_; ///< 0 = all active lanes in one frame
    BatchedController controller_;
    std::vector<MemoryReadout> readouts_; ///< per slot

    // Reused step scratch, reserved at construction.
    std::vector<Index> batchLanes_; ///< one batch's slots, ascending
    std::vector<const InterfaceVector *> batchIfaces_;
    std::vector<MemoryReadout *> batchOuts_;
};

} // namespace hima

#endif // HIMA_SHARD_SHARDED_DNC_H
