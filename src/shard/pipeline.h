/**
 * @file
 * The shard coordinator: the client side of multi-process DNC-D
 * (Sec. 5.1, Fig. 8) and of the lane-batched wire protocol (wire.h).
 *
 * ShardLaneGroup is the one scatter -> gather -> merge implementation.
 * A fleet of workers hosts `lanes` independent tile sets; each step
 * scatters interface vectors (scored-head mask included, so workers
 * only compute the confidence logits the merge will use), gathers
 * every tile's read vectors + logits, and runs the exact
 * confidence-softmax merge through the *same* ConfidenceGate and
 * mergeTileReadouts code DncD runs, so every lane is bit-identical per
 * step to the in-process model by construction. The synchronous
 * ShardCoordinator (coordinator.h) is a group with one lane stepped
 * with a window of one.
 *
 * Two overlap tricks buy back the socket round trip that caps a
 * synchronous step at high tile counts:
 *
 *   - lane batching: one LaneStep frame per worker carries k lanes'
 *     interfaces, so syscalls, wakeups and framing amortize k-fold —
 *     and because the frame is lane-addressed (not tile-addressed),
 *     the *same* bytes go to every worker. A per-tile entry (learned
 *     write sharding) carries all Nt interfaces for the same reason;
 *
 *   - a double-buffered step window: up to kMaxInFlight batches may be
 *     outstanding per channel (scatter B before gathering A), so the
 *     caller can run lane set B's controller compute while lane set
 *     A's tile round trip is still in flight.
 *
 * Lanes are independent tile sets on the workers, so any interleaving
 * of batches is bit-identical per lane to the synchronous schedule —
 * each lane still sees the strict controller -> tiles -> merge order
 * (proven in tests/test_shard.cpp across transports x tiles x threads
 * x datapath). Any protocol violation (bad frame, seq mismatch, worker
 * Error) is fatal: a serving stack must never continue on a diverged
 * shard.
 *
 * laneMemory() exposes one lane behind the TileMemory surface, so a
 * plain ShardedDnc (or the golden harness) can drive a single lane of
 * a shared fleet synchronously; PipelinedShardedLaneEngine
 * (sharded_dnc.h) drives all lanes with the overlapped schedule behind
 * the LaneEngine surface the Router consumes.
 *
 * Wire v3 fault tolerance: setRespawner() plus a nonzero
 * DncConfig::shardCheckpointIntervalSteps arm periodic checkpoint
 * pulls (once any lane has stepped that many times, taken at a gather
 * that empties the in-flight window) and a replay log of every frame
 * since the last pull. Frames are identical on every channel, so the
 * log stores one buffer per entry, not per channel. On a worker loss
 * the group respawns, Rejoins, Restores the worker's lane-major
 * checkpoint slice, replays the log, then resends the in-flight frames
 * oldest-first; all merge state (the per-lane gates) lives here, so
 * every later step is bit-identical to an undisturbed run.
 * migrateWorker()/rescale() reuse the same frames to move tile slices
 * between live workers or re-deal them over a grown fleet with zero
 * dropped lanes.
 */

#ifndef HIMA_SHARD_PIPELINE_H
#define HIMA_SHARD_PIPELINE_H

#include <memory>
#include <vector>

#include "dnc/dncd.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace hima {

/** Multi-lane scatter/gather coordinator with an in-flight window. */
class ShardLaneGroup
{
  public:
    /** Deepest scatter window (double buffer: compute overlaps wire). */
    static constexpr Index kMaxInFlight = 2;

    /**
     * Connect and handshake. Tiles are dealt contiguously over the
     * channels as evenly as possible (channel k hosts
     * tiles/channels +- 1 tiles of every lane); every worker validates
     * shapes, the datapath and its assignment before any step traffic.
     *
     * @param config   global DNC shapes (memoryRows = global N)
     * @param tiles    tile count Nt per lane; must divide memoryRows
     * @param lanes    serving lanes hosted by the fleet
     * @param policy   read-vector merge policy
     * @param channels one connected channel per worker (1..tiles)
     * @param wantWeightings ship per-tile read/write weightings back so
     *        readouts carry the concatenated global view (DncD parity —
     *        the golden harness needs it); serving paths leave it off
     *        to keep replies at R*W + R reals per tile
     */
    ShardLaneGroup(const DncConfig &config, Index tiles, Index lanes,
                   MergePolicy policy,
                   std::vector<std::unique_ptr<Channel>> channels,
                   bool wantWeightings = false);

    /** Sends Shutdown to every worker. */
    ~ShardLaneGroup();

    ShardLaneGroup(const ShardLaneGroup &) = delete;
    ShardLaneGroup &operator=(const ShardLaneGroup &) = delete;

    // --- pipelined batch surface ---------------------------------------

    /**
     * Begin one batch step: lane ids (strictly increasing) with one
     * broadcast interface each. Encodes a single LaneStep frame, queues
     * it on every channel and flushes — then returns immediately; the
     * batch is outstanding until the matching gather(). At most
     * kMaxInFlight batches may be outstanding, and a lane must not
     * appear in two outstanding batches (its tiles would race).
     */
    void scatter(const std::vector<Index> &lanes,
                 const std::vector<const InterfaceVector *> &ifaces);

    /**
     * Gather the *oldest* outstanding batch: receives one reply frame
     * per channel, verifies the sequence/lane correlation, applies each
     * lane's confidence merge and writes lane j's merged readout into
     * *outs[j] (indexed like the scatter's lane list). Any protocol
     * violation or worker error is fatal; a lost worker is recovered
     * when recovery is armed and fatal otherwise.
     */
    void gather(const std::vector<MemoryReadout *> &outs);

    /** Outstanding scatters (0..kMaxInFlight). */
    Index inFlight() const { return pendingCount_; }

    // --- synchronous per-lane surface ----------------------------------

    /** One lane's broadcast step as a single scatter+gather round trip. */
    void stepLaneInto(Index lane, const InterfaceVector &iface,
                      MemoryReadout &out);

    /**
     * One lane's per-tile step (DNC-D learned write sharding): tile t
     * steps with ifaces[t]. The merge contract (Fig. 8) is that
     * *queries broadcast*: the interfaces may differ in write-side
     * fields, but the read keys and strengths every tile scores with
     * must be identical (workers and DncD score with ifaces[0]), so
     * divergent read fields are a fatal caller bug.
     */
    void stepLaneInto(Index lane, const std::vector<InterfaceVector> &ifaces,
                      MemoryReadout &out);

    /**
     * One lane behind the TileMemory surface. The view borrows this
     * group — it must not outlive it — and must not be stepped while
     * batches are in flight.
     */
    std::unique_ptr<TileMemory> laneMemory(Index lane);

    /** Admit control for one lane: resets its tiles and gate. */
    void admitLane(Index lane);

    /** Episode-reset one lane (no admit accounting). */
    void resetLane(Index lane);

    /** Episode-reset every lane. */
    void resetAll();

    // --- inspection -----------------------------------------------------

    const std::vector<std::vector<Real>> &
    laneAlphas(Index lane) const
    {
        return gates_[lane].alphas();
    }

    Index tiles() const { return tiles_; }
    Index lanes() const { return gates_.size(); }
    const DncConfig &globalConfig() const { return globalConfig_; }
    const DncConfig &shardConfig() const { return shardConfig_; }
    Index channelCount() const { return channels_.size(); }
    const Channel &channel(Index k) const { return *channels_[k]; }

    /** Lane-steps completed (gathered) since construction. */
    std::uint64_t laneSteps() const { return laneSteps_; }

    // --- fault tolerance (wire v3) -------------------------------------

    /**
     * Install the replacement-channel factory. Recovery is armed when a
     * respawner is set AND shardCheckpointIntervalSteps > 0 AND
     * failHard is off; otherwise a worker loss stays fatal.
     */
    void setRespawner(ShardRespawnFn respawner)
    {
        respawner_ = std::move(respawner);
    }

    /** Keep every worker loss fatal even when recovery is armed. */
    void setFailHard(bool on) { failHard_ = on; }

    /**
     * Pull a checkpoint of every worker's lane-major tile state right
     * now (also empties the replay log). Requires an empty in-flight
     * window; callable regardless of the configured cadence.
     */
    void checkpointNow();

    /**
     * Live migration: move worker k's tile slice (all lanes) onto
     * `replacement` (a connected, unconfigured worker) and shut the old
     * worker down. Quiesces via a fresh checkpoint pull, so the move is
     * bit-exact and needs no replay; requires an empty in-flight
     * window. Works without a respawner.
     */
    void migrateWorker(Index k, std::unique_ptr<Channel> replacement);

    /**
     * Re-deal all tiles over a new fleet mid-run (e.g. 8 -> 16
     * workers) with zero dropped lanes: checkpoint, retire the old
     * fleet, Rejoin + Restore the new one. Per-lane gates live
     * coordinator-side, so every lane resumes bit-identically.
     */
    void rescale(std::vector<std::unique_ptr<Channel>> channels);

    /** Worker losses recovered (respawn + restore + replay). */
    std::uint64_t recoveries() const { return recoveries_; }

    /** Checkpoint pulls completed (periodic + forced). */
    std::uint64_t checkpointsTaken() const { return checkpointsTaken_; }

    // --- fleet telemetry scrape (wire v5) -------------------------------

    /**
     * Pull every worker's telemetry registry (StatsPull/StatsReport).
     * `perWorker` is resized to one snapshot per worker in channel
     * order; `aggregate` (cleared first) merges those reports with this
     * process's own registry and every channel's wire traffic
     * ("shard.wire.*" series). On a loopback fleet the workers share
     * this process's registry, so process-wide series appear once per
     * worker plus once for the coordinator — fleet totals stay
     * meaningful for worker-local series (kernel.*, worker.*) only.
     * Requires an empty in-flight window; never on the step path.
     */
    void scrapeWorkers(std::vector<obs::Snapshot> &perWorker,
                       obs::Snapshot &aggregate);

  private:
    /** Encode entryScratch_ as one LaneStep frame and send it. */
    void scatterEntries();

    /** One lane's step (broadcast or per-tile entry) as a round trip. */
    void stepOneLane(Index lane, const InterfaceVector *iface,
                     Index tileIfaces, MemoryReadout &out);

    void sendControl(ControlKind kind, std::uint32_t lane);

    /** Deal tiles contiguously/evenly over channels_. */
    void dealTiles();

    /** Worker k's handshake config: shapes plus its tile assignment. */
    WireConfig wireConfigFor(Index k) const;

    /** Receive worker k's HelloAck and check it accepted its slice. */
    void expectHelloAck(Index k, const char *who);

    bool recoveryArmed() const
    {
        return static_cast<bool>(respawner_) && !failHard_ &&
               globalConfig_.shardCheckpointIntervalSteps > 0;
    }

    /**
     * Send writer_'s frame to every channel, keeping a resend copy
     * when recovery is armed (a recovery reuses writer_).
     */
    void broadcastFrame();

    /**
     * Receive worker k's answer to the broadcastFrame() in flight; on
     * a loss, recover the worker and resend that frame. A second loss
     * on the same exchange is fatal: recovery is not a retry loop.
     */
    void recvOrRecover(Index k, const char *what, std::uint64_t seq);

    /** Fatal when the received frame is a worker Error. */
    void failOnError(Index k, const char *what, std::uint64_t seq) const;

    /** Respawn + Rejoin + Restore + replay; fatal when not armed. */
    void recoverWorker(Index k, const char *what, std::uint64_t seq);

    /** Rejoin handshake for worker k's assignment on channels_[k]. */
    void rejoinWorker(Index k, const char *who);

    /** Restore worker k's checkpoint slice; await the ControlAck. */
    void restoreWorker(Index k, const char *who);

    /** Append one shared frame to the replay log. */
    void commitLog(const std::vector<std::uint8_t> &bytes);

    /**
     * Receive channel k's next frame as a view (frameData_/frameSize_).
     * Zero-copy on shm; elsewhere the bytes land in frame_ and the view
     * points at it.
     */
    bool recvFrom(Index k);

    void pullCheckpoints();

    /** Pointer slice of checkpoints_ covering worker k (lane-major). */
    MemoryTileState *const *snapshotSlice(Index k);

    DncConfig globalConfig_;
    DncConfig shardConfig_;
    Index tiles_;
    MergePolicy policy_;
    bool wantWeightings_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<Index> firstTile_; ///< per channel
    std::vector<Index> tileCount_; ///< per channel

    std::vector<ConfidenceGate> gates_; ///< one per lane
    std::uint64_t seq_ = 0;
    std::uint64_t controlSeq_ = 0;
    std::uint64_t laneSteps_ = 0;

    /** One outstanding scatter (reused; steady state allocates nothing). */
    struct Pending
    {
        std::uint64_t seq = 0;
        std::vector<Index> lanes;
        /** The encoded LaneStep frame (shared by every channel), kept
         *  while outstanding so a recovery can resend the window. Only
         *  filled when recovery is armed. */
        std::vector<std::uint8_t> bytes;
    };
    Pending pending_[kMaxInFlight];
    Index pendingHead_ = 0;
    Index pendingCount_ = 0;

    // Reused per-step scratch. frame_ is recv scratch; frameData_/
    // frameSize_ view the last received frame (a borrowed shm slot or
    // frame_ itself).
    WireWriter writer_;
    std::vector<std::uint8_t> frame_;
    const std::uint8_t *frameData_ = nullptr;
    std::size_t frameSize_ = 0;
    std::vector<LaneStepEntry> entryScratch_; ///< the next scatter's lanes
    std::vector<LaneStepReplyMsg> replies_;        ///< per channel
    std::vector<const MemoryReadout *> localPtrs_; ///< per global tile
    std::vector<Real> scoreScratch_; ///< scoredHeads x tiles, row-major
    std::vector<MemoryReadout *> outScratch_; ///< stepLaneInto's one out

    // Fault tolerance: checkpoint store + replay log (wire v3). Frames
    // are identical on every channel, so log entries and the control
    // resend scratch hold one buffer each; all rings reuse capacity so
    // a steady state that includes checkpointing allocates nothing.
    ShardRespawnFn respawner_;
    bool failHard_ = false;
    std::uint64_t recoveries_ = 0;
    std::uint64_t checkpointsTaken_ = 0;
    std::uint64_t checkpointSeq_ = 0;
    std::uint64_t statsSeq_ = 0; ///< scrape round ids (StatsPull seq)
    /** Per lane: steps gathered since the last checkpoint pull. */
    std::vector<std::uint64_t> stepsSinceCheckpoint_;
    bool checkpointDue_ = false; ///< some lane reached the interval
    bool checkpointValid_ = false; ///< checkpoints_ holds a real pull
    std::vector<MemoryTileState> checkpoints_; ///< lane-major, lanes x Nt
    std::vector<MemoryTileState *> snapshotPtrs_; ///< slice scratch
    std::vector<std::uint8_t> resendScratch_; ///< in-flight control/pull
    std::vector<std::vector<std::uint8_t>> log_; ///< ring, shared frames
    std::size_t logCount_ = 0;
};

/**
 * One lane of a ShardLaneGroup behind the TileMemory surface. Broadcast
 * and per-tile steps go through the group's stepLaneInto(); reset()
 * and beginEpisode() map to the lane's EpisodeReset and Admit controls.
 */
class ShardLaneMemory : public TileMemory
{
  public:
    ShardLaneMemory(ShardLaneGroup &group, Index lane)
        : group_(group), lane_(lane)
    {}

    MemoryReadout stepInterface(const InterfaceVector &iface) override;
    MemoryReadout
    stepInterfaces(const std::vector<InterfaceVector> &ifaces) override;
    void stepInterfaceInto(const InterfaceVector &iface,
                           MemoryReadout &out) override
    {
        group_.stepLaneInto(lane_, iface, out);
    }
    void reset() override { group_.resetLane(lane_); }
    void beginEpisode() override { group_.admitLane(lane_); }
    Index tiles() const override { return group_.tiles(); }
    const DncConfig &globalConfig() const override
    {
        return group_.globalConfig();
    }
    const DncConfig &shardConfig() const override
    {
        return group_.shardConfig();
    }
    const std::vector<std::vector<Real>> &lastAlphas() const override
    {
        return group_.laneAlphas(lane_);
    }

  private:
    ShardLaneGroup &group_;
    Index lane_;
};

} // namespace hima

#endif // HIMA_SHARD_PIPELINE_H
