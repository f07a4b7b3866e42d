/**
 * @file
 * DNC-D: the distributed DNC model (Sec. 5.1, Fig. 8).
 *
 * The external memory and *all* state memories are sharded across Nt
 * tiles; each tile runs the complete soft write + soft read pipeline on
 * its local N/Nt-row shard with no inter-tile communication. The tile
 * read vectors are merged by a weighted sum
 *
 *     v_r = sum_i alpha_i * v_r_i,   alpha in [0,1]
 *
 * where the paper trains the alphas through the LSTM. At inference time
 * we model the trained gating with a content-confidence softmax: each
 * tile's alpha is proportional to exp(beta * best cosine match) between
 * the read key and that tile's memory rows — the tile that actually holds
 * the matching record dominates the merge, which is what the trained
 * gating converges to for retrieval workloads (see DESIGN.md).
 *
 * The stepping surface is the abstract TileMemory: DncD is the
 * in-process implementation (tiles on a thread pool); the multi-process
 * shard coordinator (src/shard/pipeline.h — the one-lane
 * ShardCoordinator or one lane of a ShardLaneGroup) implements the
 * same surface over a wire protocol and must match DncD bit for bit,
 * per-tile write-sharded steps included. The
 * merge arithmetic both share lives here — ConfidenceGate (alpha
 * selection + softmax) and mergeTileReadouts (the Eq. 4 weighted sum
 * plus the global-view weighting concat) — so the two backends cannot
 * drift apart numerically.
 */

#ifndef HIMA_DNC_DNCD_H
#define HIMA_DNC_DNCD_H

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dnc/dnc.h"

namespace hima {

/** How DNC-D merges the per-tile read vectors. */
enum class MergePolicy
{
    /** Uniform alphas (1/Nt each) — the untrained lower bound. */
    Uniform,
    /** Content-confidence softmax (models the trained gating). */
    Confidence,
};

/**
 * Per-shard config for a global config split across `tiles` tiles:
 * memoryRows becomes the local N/Nt. Fatal when Nt does not divide N.
 */
DncConfig shardConfigFor(const DncConfig &global, Index tiles);

/**
 * The query-broadcast rule of a per-tile step (Fig. 8): the Nt
 * interfaces may differ in their write-side fields, but every tile
 * reads with tile 0's read keys and strengths. Then each tile's
 * confidence logit for a head is MemoryUnit::readConfidence() of its
 * own read lookup, computed tile-locally in O(N) from the kept dots.
 * Both TileMemory backends enforce this rule: DncD and the shard
 * coordinator abort on a caller that breaks it, a shard worker replies
 * with an Error.
 *
 * @return true when ifaces[1..tiles) carry ifaces[0]'s read keys and
 *         read strengths
 */
bool readQueriesBroadcast(const InterfaceVector *ifaces, Index tiles);

/**
 * Alpha bookkeeping of the confidence merge, shared by DncD and the
 * shard coordinator. Per step: selectHeads() seeds uniform alphas,
 * carries the previous step's alphas for history-dominated reads
 * (forward/backward mode has no content key to score — the tile that
 * held the anchor keeps owning the chain), and lists the heads that
 * need fresh confidence scores; applyScores() softmaxes the gathered
 * (head x tile) logits into alphas.
 */
class ConfidenceGate
{
  public:
    /** Forget all alpha history (episode boundary). */
    void reset();

    /**
     * Start a step: compute per-head default alphas and the scored-head
     * list from the (broadcast) interface's read modes.
     *
     * @return heads whose alphas await applyScores()
     */
    const std::vector<Index> &selectHeads(const InterfaceVector &iface,
                                          MergePolicy policy,
                                          Index readHeads, Index tiles);

    /**
     * Apply confidence logits for the heads selectHeads() returned.
     *
     * @param scores scoredHeads.size() x tiles, row-major
     */
    void applyScores(const std::vector<Real> &scores, Index tiles);

    /** Merge weights for the current step (per head, per tile). */
    const std::vector<std::vector<Real>> &alphas() const
    {
        return lastAlphas_;
    }

    const std::vector<Index> &scoredHeads() const { return scoredHeads_; }

  private:
    std::vector<std::vector<Real>> lastAlphas_;
    std::vector<std::vector<Real>> prevAlphas_;
    std::vector<Index> scoredHeads_;
    std::vector<Real> uniform_; ///< 1/Nt row, reused (no per-step temp)
    Vector scoreScratch_; ///< per-head logits, reused
    Vector smScratch_;    ///< softmax output, reused
};

/**
 * The Eq. 4 merge: out.readVectors[h] = sum_t alphas[h][t] * locals[t],
 * plus the concatenated global-view weightings (tile t's local
 * weighting occupies rows [t*n, (t+1)*n)) when the locals carry them.
 * Works from pointers so remote readouts merge without copies.
 */
void mergeTileReadouts(const std::vector<const MemoryReadout *> &locals,
                       const std::vector<std::vector<Real>> &alphas,
                       const DncConfig &global, Index shardRows,
                       MemoryReadout &out);

/**
 * The stepping surface of a sharded DNC memory: Nt tiles driven by
 * scripted (or controller-emitted) interface vectors with the
 * read-vector merge applied. Implemented in-process by DncD and over
 * the wire by ShardLaneMemory (a ShardCoordinator, or one lane of a
 * ShardLaneGroup); ShardedDnc and the workload harness accept either.
 */
class TileMemory
{
  public:
    virtual ~TileMemory() = default;

    /**
     * Drive every shard with the same interface vector and merge the
     * read vectors (Fig. 8: queries broadcast; soft read/write execute
     * locally per tile; only the read-vector merge is global).
     */
    virtual MemoryReadout stepInterface(const InterfaceVector &iface) = 0;

    /**
     * Drive each shard with its own *sub interface vector* (the Fig. 8
     * arrangement: the trained LSTM emits per-tile interfaces, e.g.
     * raising the write gate on exactly the tile that should store this
     * item). Queries still broadcast: every interface must carry
     * ifaces[0]'s read keys and strengths (readQueriesBroadcast()), and
     * a step that breaks the rule is fatal. Read-vector merge is
     * identical to stepInterface().
     */
    virtual MemoryReadout
    stepInterfaces(const std::vector<InterfaceVector> &ifaces) = 0;

    /**
     * Destination-passing broadcast step for serving loops; backends
     * with reusable buffers (the shard coordinator) override this to
     * avoid per-step readout allocation. Bit-identical to
     * stepInterface().
     */
    virtual void stepInterfaceInto(const InterfaceVector &iface,
                                   MemoryReadout &out)
    {
        out = stepInterface(iface);
    }

    /** Reset all shards and merge state (episode boundary). */
    virtual void reset() = 0;

    /**
     * Episode-boundary reset that marks the start of a *new admitted
     * episode* (the serving path's admit()); identical state effect to
     * reset(). The shard coordinator maps this to the wire's Admit
     * control so workers can account served episodes.
     */
    virtual void beginEpisode() { reset(); }

    virtual Index tiles() const = 0;
    virtual const DncConfig &globalConfig() const = 0;
    virtual const DncConfig &shardConfig() const = 0;

    /** Merge weights used on the most recent step (per head, per tile). */
    virtual const std::vector<std::vector<Real>> &lastAlphas() const = 0;
};

/** Distributed DNC over Nt in-process shards. */
class DncD : public TileMemory
{
  public:
    /**
     * @param config full-size DNC shapes (memoryRows is the *global* N;
     *               config.numThreads > 1 runs the independent tiles on
     *               a persistent thread pool — numThreads == 1 is the
     *               sequential reference and bit-identical to it)
     * @param tiles  shard count Nt; must divide memoryRows
     * @param policy read-vector merge policy
     */
    DncD(const DncConfig &config, Index tiles,
         MergePolicy policy = MergePolicy::Confidence);

    MemoryReadout stepInterface(const InterfaceVector &iface) override;
    MemoryReadout
    stepInterfaces(const std::vector<InterfaceVector> &ifaces) override;

    /**
     * Destination-passing broadcast step: zero steady-state allocations
     * (the broadcast copies and the merge write into reused buffers),
     * so in-process-backed ShardedDnc lanes run the same allocation-
     * free serving loop as wire-backed ones.
     */
    void stepInterfaceInto(const InterfaceVector &iface,
                           MemoryReadout &out) override;

    /** Reset all shards. */
    void reset() override;

    Index tiles() const override { return tiles_; }
    const DncConfig &globalConfig() const override { return globalConfig_; }
    const DncConfig &shardConfig() const override { return shardConfig_; }
    MemoryUnit &shard(Index t) { return *shards_[t]; }
    const MemoryUnit &shard(Index t) const { return *shards_[t]; }

    const std::vector<std::vector<Real>> &lastAlphas() const override
    {
        return gate_.alphas();
    }

    /** Aggregate profiler across all shards. */
    KernelProfiler aggregateProfile() const;

  private:
    /** Run fn(0..tiles_-1), on the pool when one is configured. */
    void forEachTile(const std::function<void(Index)> &fn);

    /** Shared step body: tiles, gate, scores, merge into `out`. */
    void stepCore(const std::vector<InterfaceVector> &ifaces,
                  MemoryReadout &out);

    DncConfig globalConfig_;
    DncConfig shardConfig_;
    Index tiles_;
    MergePolicy policy_;
    std::vector<std::unique_ptr<MemoryUnit>> shards_;
    ConfidenceGate gate_;

    std::unique_ptr<ThreadPool> pool_;   ///< present when numThreads > 1
    std::vector<MemoryReadout> locals_;  ///< per-tile readouts, reused
    std::vector<const MemoryReadout *> localPtrs_; ///< merge view
    std::vector<InterfaceVector> broadcast_; ///< reused broadcast copies
    std::vector<Real> scoreScratch_;     ///< scoredHeads x tiles scores
};

} // namespace hima

#endif // HIMA_DNC_DNCD_H
