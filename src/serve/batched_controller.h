/**
 * @file
 * BatchedController: the controller half of every lane-group engine —
 * one shared weight set, lane-interleaved activations, and the lane
 * lifecycle that keeps the stepping lanes in a dense column prefix.
 *
 * Every lane of a serving deployment runs the same trained model, so
 * the LSTM and projection-head matrices are shared and only the
 * recurrent state is per lane. Stepping one Controller per lane
 * re-streams every weight row (about 2.5 MB at H=128, W=64, R=4) once
 * per lane per step and runs each product at one lane; this component
 * instead keeps controller activations lane-interleaved
 * (struct-of-arrays: element j of the lane in column b lives at
 * buf[j * capacity + b]) and sweeps each weight row across a whole
 * column range at once, so weight traffic falls by the batch
 * occupancy and the mat-vec kernel runs its four-lane register chunks.
 *
 * The engines pair it with their memory side:
 *   - BatchedDnc with one local MemoryUnit per slot (serve/batched_dnc.h);
 *   - ShardedLaneEngine with one TileMemory backend per slot, and
 *     PipelinedShardedLaneEngine with a shared ShardLaneGroup fleet
 *     (shard/sharded_dnc.h).
 * One engine step is three calls per column range [c0, c0 + k) of the
 * active prefix: stepControllers() (feed concat, LSTM, interface head,
 * decode), then storeReads() once per column after the memory step,
 * then outputInto() (the output head, gathered into slot order). The
 * pipelined engine steps one range while another range's tile round
 * trip is in flight; ranges are disjoint columns, so their state never
 * overlaps.
 *
 * Lane lifecycle. Each of the capacity() slots is a LaneSlot that is
 * Free, Active or Draining:
 *
 *     Free ──admit()──▶ Active ──markDraining()──▶ Draining
 *       ▲                  │                          │
 *       └────────────── release() ◀───────────────────┘
 *
 * Slot ids are stable handles; internally the occupied SoA *columns*
 * stay compacted — Active lanes in [0, activeLanes()), Draining lanes
 * right after — so every sweep runs over a dense prefix and a partially
 * occupied batch pays no padding flops (the laneStride/firstLane forms
 * of the batched kernels in common/tensor.h). A transition moves at
 * most one column of persistent state (h, c, previous reads) and never
 * allocates. Compaction does not keep slots in column order; callers
 * that need ascending slot ids (the lane-group scatter) sort a range's
 * slots themselves.
 *
 * Bit-exactness: a lane's outputs equal an independent
 * Controller(config, Rng(seed)) fed the same inputs and read vectors
 * since its admission, for any capacity, occupancy, column range,
 * admit/release interleaving and thread count. Every product keeps one
 * c-ascending accumulator per lane (see batchedMatVecRowsInto), so
 * batching changes operand reuse, never per-lane arithmetic; column
 * moves copy state bit for bit. With a pool, tasks own disjoint LSTM or
 * interface-head row blocks or whole columns, so reductions are never
 * split across threads.
 *
 * All buffers are sized at construction: a steady-state step and every
 * lifecycle transition allocate nothing.
 */

#ifndef HIMA_SERVE_BATCHED_CONTROLLER_H
#define HIMA_SERVE_BATCHED_CONTROLLER_H

#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "dnc/controller.h"
#include "serve/engine.h"

namespace hima {

/**
 * One serving lane slot: lifecycle state plus the SoA column currently
 * backing it. The slot id (its index) is the stable external handle;
 * `column` moves as the active prefix compacts.
 */
struct LaneSlot
{
    LaneState state = LaneState::Active;
    Index column = 0;
};

/** Shared-weight controllers for config.batchSize lane slots. */
class BatchedController
{
  public:
    /**
     * @param config shapes; config.batchSize slots are created
     * @param seed   weight seed: the weights are drawn exactly as
     *               Controller(config, Rng(seed)) draws them, which is
     *               how Dnc and ShardedDnc draw theirs
     * @param pool   optional; when set, the LSTM and interface-head row
     *               blocks and the per-column decode run on it. Not
     *               owned; must outlive every step.
     *
     * All slots start Active (slot i in column i) with zeroed state.
     */
    BatchedController(const DncConfig &config, std::uint64_t seed,
                      ThreadPool *pool = nullptr);

    BatchedController(const BatchedController &) = delete;
    BatchedController &operator=(const BatchedController &) = delete;

    // --- stepping over a column range of the active prefix ------------

    /**
     * Controller step for columns [c0, c0 + k) of the active prefix:
     * feed concat [inputs[slot]; previous reads], LSTM, interface head
     * and decode. `inputs` is slot-indexed; only the range's slots are
     * read. Each lane's decoded interface is then at laneInterface(slot)
     * until that lane's next step.
     */
    void stepControllers(const std::vector<Vector> &inputs, Index c0,
                         Index k);

    /** The decoded interface the last stepControllers() gave `slot`. */
    const InterfaceVector &laneInterface(Index slot) const
    {
        return ifaces_[slot];
    }

    /**
     * Store this step's R read vectors for the lane in `column`: the
     * output head's operand now and the next step's controller feed.
     * Distinct columns may be stored concurrently.
     */
    void storeReads(Index column, const std::vector<Vector> &reads);

    /**
     * Output head y = W_y h + W_r [reads] for columns [c0, c0 + k),
     * gathered into outputs[slot] (outputs must hold capacity()
     * entries; each is resized to outputSize).
     */
    void outputInto(Index c0, Index k, std::vector<Vector> &outputs);

    // --- lane lifecycle -------------------------------------------------

    /**
     * Bind a Free slot as Active at the end of the active prefix, with
     * zeroed controller state. Requires freeLanes() > 0.
     *
     * @return the admitted slot id
     */
    Index admit();

    /** Move an Active lane out of the prefix; its state stays readable. */
    void markDraining(Index slot);

    /** Return an Active or Draining slot to the free pool. */
    void release(Index slot);

    /** Every slot Active in its home column, all state zeroed. */
    void reset();

    LaneState laneState(Index slot) const { return slots_[slot].state; }
    Index activeLanes() const { return active_; }
    Index drainingLanes() const { return occupied_ - active_; }
    Index freeLanes() const { return batch_ - occupied_; }
    Index capacity() const { return batch_; }

    /** The slot whose lane occupies `column` (column < occupied lanes). */
    Index slotAt(Index column) const { return colToSlot_[column]; }

    /** Slot s's LSTM hidden state, gathered out of the SoA tile. */
    Vector laneHidden(Index slot) const;

    /** Slot s's LSTM cell state, gathered out of the SoA tile. */
    Vector laneCell(Index slot) const;

  private:
    /** Batched LSTM recurrence for rows [row0, row1), stepping columns. */
    void lstmRows(Index row0, Index row1);

    /** Run fn over count indices, on the pool when one is set. */
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
    Controller proto_; ///< shared weights (its own h/c state is unused)
    ThreadPool *pool_; ///< not owned; null steps on the calling thread

    // Lane lifecycle: columns [0, active_) are Active, [active_,
    // occupied_) are Draining, the rest are stale. colToSlot_ maps an
    // occupied column back to its slot.
    std::vector<LaneSlot> slots_;
    std::vector<Index> colToSlot_;
    std::vector<Index> freeSlots_; ///< stack of Free slot ids (reserved)
    Index active_ = 0;             ///< Active lane count
    Index occupied_ = 0;           ///< Active + Draining lane count

    // Struct-of-arrays activations: element j of the lane in column b
    // lives at buf[j * batch_ + b]. hidden_/cell_/readsFlat_ persist
    // across steps (and move with their lane on compaction); the rest
    // are recomputed every step.
    Vector feed_;       ///< [input; prev reads], feedWidth x B
    Vector hidden_;     ///< LSTM hidden state, H x B
    Vector hiddenPrev_; ///< pre-step hidden snapshot (recurrence input)
    Vector cell_;       ///< LSTM cell state, H x B
    Vector gatePre_[4]; ///< gate sums Wx x + Wh h (no bias), H x B each
    Vector rawIface_;   ///< interface emission, interfaceSize x B
    Vector readsFlat_;  ///< concatenated read vectors, (R*W) x B
    Vector outSoA_;     ///< model outputs, outputSize x B

    std::vector<Vector> rawLane_;         ///< per-slot decode gather
    std::vector<InterfaceVector> ifaces_; ///< per-slot decoded interfaces

    // The column range of the current stepControllers() call, read by
    // the prebuilt pool tasks.
    Index stepC0_ = 0;
    Index stepK_ = 0;
    Index lstmBlocks_;
    Index ifaceBlocks_;
    std::function<void(Index)> lstmTask_; ///< prebuilt: no per-step alloc
    std::function<void(Index)> ifaceTask_;
    std::function<void(Index)> decodeTask_;
};

} // namespace hima

#endif // HIMA_SERVE_BATCHED_CONTROLLER_H
