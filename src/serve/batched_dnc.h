/**
 * @file
 * BatchedDnc: the batched inference serving engine, organized around a
 * lane lifecycle.
 *
 * Serving the paper's workloads (DNC-D tiles behind a query front-end,
 * HiMA-style throughput targets) means stepping many independent DNC
 * instances per process. One Dnc at a time wastes the two things batch
 * execution amortizes:
 *
 *   1. Controller weights. Every lane of a serving deployment runs the
 *      same trained model, so the LSTM and projection-head matrices are
 *      shared — but a sequential loop re-streams every weight row from
 *      cache/DRAM once per lane per step. BatchedDnc keeps controller
 *      activations lane-interleaved (struct-of-arrays: element j of the
 *      lane in column b lives at buf[j * capacity + b]) and sweeps each
 *      weight row across all occupied columns at once, cutting per-lane
 *      weight traffic by the batch occupancy.
 *   2. Per-step overhead. Interface decode, kernel dispatch and the
 *      fork/join of the DNC-D-style thread pool are paid once per batch
 *      instead of once per lane.
 *
 * Memory-side state (external memory, usage, linkage, weightings) is
 * per-lane by nature — no operand is shared across lanes — so each lane
 * owns a MemoryUnit tile: the batch-major tile array reuses the
 * allocation-free stepInto() hot path, the row-norm cache and the fused
 * AVX2 linkage sweep unchanged, and lanes are scheduled across the
 * existing ThreadPool (config.numThreads lanes run concurrently).
 *
 * Lane lifecycle (PR 3). Real query arrival processes churn: requests
 * arrive, run an episode, and leave, so a serving batch is rarely full
 * and never static. Each of the capacity() slots is therefore a
 * LaneSlot that is Free, Active or Draining:
 *
 *     Free ──admit()──▶ Active ──markDraining()──▶ Draining
 *       ▲                  │                          │
 *       └────────────── release() ◀───────────────────┘
 *
 *   - admit() performs an in-place episode reset — the slot's controller
 *     columns are zeroed and its MemoryUnit tile reset, nothing is
 *     reallocated — so the admitted lane is indistinguishable from a
 *     freshly constructed Dnc.
 *   - Active lanes step; Draining lanes keep their state readable (for
 *     result harvesting) but are excluded from sweeps.
 *   - release() returns the slot to the free pool for reuse.
 *
 * Slot ids are stable handles; internally the engine keeps occupied SoA
 * *columns* compacted — Active lanes in the leading columns, Draining
 * lanes immediately after — so every controller sweep runs over a dense
 * active prefix and a partially occupied batch pays no padding flops
 * (see the laneStride/activeLanes forms of the batched kernels in
 * common/tensor.h). Lifecycle transitions move at most one column of
 * persistent state (h, c, previous reads) and are allocation-free.
 *
 * Bit-exactness contract (tests/test_batched_dnc.cpp,
 * tests/test_router.cpp): the lane in slot s produces exactly the
 * outputs and state of an independent Dnc(config, seed) fed slot s's
 * input stream since its admission — for any batch size, any occupancy,
 * any admit/release interleaving of its co-tenants, any thread count,
 * fixed-point on or off, and any writeSkipThreshold. The batched
 * controller sweeps keep one c-ascending accumulator per lane (see
 * batchedMatVecInto), so batching never changes per-lane arithmetic,
 * only operand reuse; column moves copy state bit-for-bit. Reductions
 * are never split across threads — parallelism is over LSTM row blocks
 * and over lanes, both of which own their outputs exclusively — so any
 * thread count is bit-identical too.
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
#include "dnc/controller.h"
#include "dnc/memory_unit.h"
#include "serve/engine.h"

namespace hima {

/**
 * One serving lane slot: lifecycle state plus the SoA column currently
 * backing it. The slot id (its index) is the stable external handle;
 * `column` is engine-internal and moves as the active prefix compacts.
 */
struct LaneSlot
{
    LaneState state = LaneState::Active;
    Index column = 0;
};

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
        return slots_[slot].state;
    }
    Index activeLanes() const override { return active_; }
    Index drainingLanes() const override { return occupied_ - active_; }
    Index freeLanes() const override { return batch_ - occupied_; }

    /** Total slots (== config.batchSize). */
    Index capacity() const override { return batch_; }

    /**
     * Reset every slot to the construction state: all lanes Active in
     * their home columns with zeroed controller and memory state.
     */
    void reset() override;

    Index batchSize() const { return batch_; }
    const DncConfig &config() const override { return config_; }

    /** Slot s's memory tile (state inspection for tests/monitoring). */
    const MemoryUnit &laneMemory(Index slot) const { return lanes_[slot]; }

    /** Slot s's LSTM hidden state, gathered out of the SoA tile. */
    Vector laneHidden(Index slot) const;

    /** Slot s's LSTM cell state, gathered out of the SoA tile. */
    Vector laneCell(Index slot) const;

    /** Slot s's read vectors from the previous step. */
    const std::vector<Vector> &laneReads(Index slot) const
    {
        return readouts_[slot].readVectors;
    }

  private:
    // Every controller product runs on the one mat-vec kernel of
    // common/tensor.h: the output head on the whole-matrix batched forms,
    // the LSTM gates and the interface head on its row-range forms,
    // because pool tasks own row blocks and the LSTM fuses the cell
    // update into the same pass. The per-lane chains are pinned to the
    // reference order by tests/test_tensor_inplace.cpp's oracle and
    // tests/test_batched_dnc.cpp's golden grids.

    /** Batched LSTM recurrence for rows [row0, row1), active columns. */
    void lstmRows(Index row0, Index row1);

    /** Decode + memory-unit step + reads scatter for one active column. */
    void columnStep(Index column);

    /** Batched output head: y = W_y h + W_r [reads], active columns. */
    void outputSweep();

    /** Run fn over count indices, on the pool when one is configured. */
    void dispatch(Index count, const std::function<void(Index)> &fn);

    // --- column compaction helpers (persistent state: h, c, reads) ---

    /** Swap two columns' persistent state and their slot bindings. */
    void swapColumns(Index a, Index b);

    /** Copy column `from`'s state+binding onto `to` (`from` goes stale). */
    void moveColumn(Index from, Index to);

    /** Zero a column's persistent state (in-place episode reset). */
    void zeroColumn(Index column);

    DncConfig config_;
    Index batch_;      ///< slot capacity (== config.batchSize)
    Index feedWidth_;  ///< inputSize + R * W
    Index readWidth_;  ///< R * W
    Rng rng_;          ///< weight-init stream, identical to Dnc's
    Controller proto_; ///< shared weights (its own h/c state is unused)
    std::vector<MemoryUnit> lanes_;       ///< per-slot memory tiles
    std::vector<MemoryReadout> readouts_; ///< per-slot readouts, reused
    std::vector<InterfaceVector> ifaces_; ///< per-slot decoded interfaces
    std::vector<Vector> rawLane_;         ///< per-slot decode gather

    // Lane lifecycle: columns [0, active_) are Active, [active_,
    // occupied_) are Draining, the rest are stale. Slot ids are stable;
    // colToSlot_ maps an occupied column back to its slot.
    std::vector<LaneSlot> slots_;
    std::vector<Index> colToSlot_;
    std::vector<Index> freeSlots_; ///< stack of Free slot ids (reserved)
    Index active_ = 0;             ///< Active lane count
    Index occupied_ = 0;           ///< Active + Draining lane count

    // Struct-of-arrays controller activations: element j of the lane in
    // column b lives at buf[j * batch_ + b]. hidden_/cell_/readsFlat_
    // persist across steps (and move with their lane on compaction); the
    // rest are recomputed every step.
    Vector feed_;      ///< [input; prev reads], feedWidth x B
    Vector hidden_;    ///< LSTM hidden state, H x B
    Vector hiddenPrev_; ///< pre-step hidden snapshot (recurrence input)
    Vector cell_;      ///< LSTM cell state, H x B
    Vector gatePre_[4]; ///< gate sums Wx x + Wh h (no bias), H x B each
    Vector rawIface_;  ///< interface emission, interfaceSize x B
    Vector readsFlat_; ///< concatenated read vectors, (R*W) x B
    Vector outSoA_;    ///< model outputs, outputSize x B

    std::unique_ptr<ThreadPool> pool_; ///< present when numThreads > 1
    Index lstmBlocks_;
    Index ifaceBlocks_;
    std::function<void(Index)> lstmTask_;  ///< prebuilt: no per-step alloc
    std::function<void(Index)> ifaceTask_;
    std::function<void(Index)> laneTask_;
};

} // namespace hima

#endif // HIMA_SERVE_BATCHED_DNC_H
