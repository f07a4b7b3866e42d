/**
 * @file
 * BatchedDnc: the batched inference serving engine, organized around a
 * lane lifecycle.
 *
 * Serving the paper's workloads (DNC-D tiles behind a query front-end,
 * HiMA-style throughput targets) means stepping many independent DNC
 * instances per process. BatchedDnc pairs the one batched controller
 * of serve/batched_controller.h — shared weights streamed once across
 * a lane-interleaved column range, the lane lifecycle and its column
 * compaction — with one local MemoryUnit per slot.
 *
 * Memory-side state (external memory, usage, linkage, weightings) is
 * per-lane by nature — no operand is shared across lanes — so each lane
 * owns a MemoryUnit tile: the batch-major tile array reuses the
 * allocation-free stepInto() hot path, the row-norm cache and the fused
 * AVX2 linkage sweep unchanged, and lanes are scheduled across the
 * existing ThreadPool (config.numThreads lanes run concurrently). The
 * same pool runs the controller's row blocks, so interface decode,
 * kernel dispatch and the fork/join are paid once per batch instead of
 * once per lane.
 *
 * Lane lifecycle: slots are Free, Active or Draining, as
 * BatchedController documents. admit() performs an in-place episode
 * reset — the slot's controller columns are zeroed and its MemoryUnit
 * tile reset, nothing is reallocated — so the admitted lane is
 * indistinguishable from a freshly constructed Dnc. Draining lanes keep
 * their state readable (for result harvesting) but are excluded from
 * sweeps.
 *
 * Bit-exactness contract (tests/test_batched_dnc.cpp,
 * tests/test_router.cpp): the lane in slot s produces exactly the
 * outputs and state of an independent Dnc(config, seed) fed slot s's
 * input stream since its admission — for any batch size, any occupancy,
 * any admit/release interleaving of its co-tenants, any thread count,
 * fixed-point on or off, and any writeSkipThreshold. Memory steps are
 * per lane and the controller's batching never changes per-lane
 * arithmetic (see BatchedController), so any thread count is
 * bit-identical too.
 *
 * Steady state performs zero heap allocations even across lane churn
 * (asserted in tests/test_tensor_inplace.cpp): all struct-of-arrays
 * buffers, per-lane scratch, the free-slot stack and the pool tasks are
 * preallocated at construction; admit/release only reuse slots.
 */

#ifndef HIMA_SERVE_BATCHED_DNC_H
#define HIMA_SERVE_BATCHED_DNC_H

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dnc/memory_unit.h"
#include "serve/batched_controller.h"
#include "serve/engine.h"

namespace hima {

/** Up to capacity() independent DNC lanes stepped together. */
class BatchedDnc final : public LaneEngine
{
  public:
    /**
     * @param config shapes and feature flags; config.batchSize slots are
     *               created and config.numThreads pool lanes drive them
     * @param seed   weight-initialization seed — the same seed a
     *               reference Dnc would be constructed with
     *
     * All slots start Active (slot i in column i), so a churn-free
     * caller gets the fixed-B lockstep engine unchanged. A router
     * releases them and admits on demand.
     */
    explicit BatchedDnc(const DncConfig &config, std::uint64_t seed = 1);

    /**
     * One inference step for every *Active* lane.
     *
     * @param inputs  capacity() entries indexed by slot id; only Active
     *                slots are read and each must hold an inputSize-wide
     *                token (inactive entries are ignored, may be empty)
     * @param outputs resized to capacity(); the Active slots' entries
     *                are overwritten with outputSize-wide model outputs,
     *                the rest are left untouched. Buffers are reused
     *                across calls, so a steady-state step allocates
     *                nothing. A step with zero Active lanes is a no-op.
     */
    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;

    /** Allocating convenience wrapper over stepInto(). */
    std::vector<Vector> step(const std::vector<Vector> &inputs);

    // --- lane lifecycle -------------------------------------------------

    /**
     * Bind a Free slot and episode-reset it in place (controller state
     * zeroed, MemoryUnit tile re-initialized; no reallocation). The lane
     * then evolves exactly like a freshly constructed Dnc(config, seed).
     * Requires freeLanes() > 0.
     *
     * @return the admitted slot id
     */
    Index admit() override;

    /**
     * Move an Active lane out of the stepping set while keeping its
     * state readable (laneMemory/laneHidden/laneCell/laneReads stay
     * valid) until release().
     */
    void markDraining(Index slot) override;

    /** Return an Active or Draining slot to the free pool. */
    void release(Index slot) override;

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

    /** Total slots (== config.batchSize). */
    Index capacity() const override { return controller_.capacity(); }

    /**
     * Reset every slot to the construction state: all lanes Active in
     * their home columns with zeroed controller and memory state.
     */
    void reset() override;

    Index batchSize() const { return controller_.capacity(); }
    const DncConfig &config() const override { return config_; }

    /** Slot s's memory tile (state inspection for tests/monitoring). */
    const MemoryUnit &laneMemory(Index slot) const { return lanes_[slot]; }

    /** Slot s's LSTM hidden state, gathered out of the SoA tile. */
    Vector laneHidden(Index slot) const
    {
        return controller_.laneHidden(slot);
    }

    /** Slot s's LSTM cell state, gathered out of the SoA tile. */
    Vector laneCell(Index slot) const { return controller_.laneCell(slot); }

    /** Slot s's read vectors from the previous step. */
    const std::vector<Vector> &laneReads(Index slot) const
    {
        return readouts_[slot].readVectors;
    }

  private:
    /** Memory-unit step + reads store for one active column. */
    void columnStep(Index column);

    DncConfig config_;
    std::unique_ptr<ThreadPool> pool_; ///< present when numThreads > 1
    // The memory tiles are allocated before the controller's buffers
    // and freed after them: at N=1024 the other order made glibc hand
    // each rebuilt engine fresh pages for its linkage matrices, doubling
    // set-up time in perfbench's batch_long_memory.
    std::vector<MemoryUnit> lanes_;       ///< per-slot memory tiles
    std::vector<MemoryReadout> readouts_; ///< per-slot readouts, reused
    BatchedController controller_;        ///< shared weights, SoA state
    std::function<void(Index)> laneTask_; ///< prebuilt: no per-step alloc
};

} // namespace hima

#endif // HIMA_SERVE_BATCHED_DNC_H
