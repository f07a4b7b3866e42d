/**
 * @file
 * Shard worker: the process-side host of one or more DNC-D memory
 * tiles, driven entirely by wire frames.
 *
 * A worker is passive until a Hello configures it (shapes + datapath
 * validated, tiles constructed, tile assignment recorded). It hosts
 * `lanes` x hostedTiles independent tile sets (lane-major); a one-lane
 * fleet is the synchronous coordinator. Each LaneStep frame steps any
 * subset of lanes in one round trip: every named lane's hosted tiles
 * run the full local soft write + soft read pipeline — the exact
 * MemoryUnit::stepInto() hot path the in-process engines use,
 * zero-allocation in steady state — and compute the confidence logits
 * for the heads the coordinator flagged, so the reply carries R read
 * vectors + R logits per tile and the merge never needs remote memory
 * contents. A lane entry carries either one broadcast interface or all
 * Nt per-tile interfaces (learned write sharding), of which the worker
 * steps its own slice starting at its first global tile; a per-tile
 * entry whose read keys or strengths differ between tiles is refused
 * with an Error before any tile steps. All (lane, tile) pairs of a
 * frame share one pool dispatch when the handshake asks for threads
 * (numThreads > 1), bit-identically to sequential execution because
 * tiles share no state. A per-lane Control
 * admits/resets one lane without touching the rest.
 *
 * The same handleFrame() core serves both transports: LoopbackChannel
 * calls it synchronously (deterministic tests), serve() wraps it in a
 * blocking event loop over a socket channel (examples/
 * shard_worker_main.cpp runs that loop as a standalone process).
 *
 * Wire v3 adds the fault-tolerance surface: CheckpointRequest streams
 * every hosted tile's complete recurrent state back (encoded straight
 * from the live MemoryUnits — no snapshot copy, no steady-state
 * allocation), Restore overwrites all hosted tile state from a
 * coordinator-held snapshot (acked with ControlAck), and Rejoin lets a
 * *fresh* worker process take over a lost worker's assignment: it
 * carries the Hello body, and the worker builds zeroed tiles exactly
 * like Hello — the coordinator then Restores and replays. injectFault() arms the deterministic
 * kill/drop/delay harness tests and the bench use to script worker
 * death.
 */

#ifndef HIMA_SHARD_WORKER_H
#define HIMA_SHARD_WORKER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dnc/dncd.h"
#include "shard/fault.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace hima {

/**
 * Cap on the recurrent tile state one Hello may make a worker hold:
 * lanes x hostedTiles x (N^2 + N*W + (R+4)*N) Reals. The per-field caps
 * alone admit 2^16 tiles of 2 GiB linkage each; this budget bounces
 * such a handshake in the ack instead of letting it OOM the worker.
 * 1 GiB is ~120 tiles at the paper's N=1024, W=64.
 */
constexpr std::uint64_t kMaxHostedStateBytes = std::uint64_t{1} << 30;

/** Hosts memory tiles and serves the shard wire protocol. */
class ShardWorker
{
  public:
    ShardWorker() = default;

    /**
     * Process one frame, emitting any replies into `sink`.
     *
     * @return false when the frame was Shutdown (stop serving)
     */
    bool handleFrame(const std::uint8_t *data, std::size_t size,
                     FrameSink &sink);

    /**
     * Blocking event loop: serve frames from `channel` until a Shutdown
     * frame or the peer closes the connection.
     */
    void serve(Channel &channel);

    bool configured() const { return !tiles_.empty(); }
    Index hostedTiles() const { return hostedTiles_; }
    Index lanes() const { return lanes_; }
    const DncConfig &shardConfig() const { return shardConfig_; }

    /** Lane 0's hosted tile state (single-lane deployments/tests). */
    const MemoryUnit &tile(Index i) const { return *tiles_[i]; }

    /** Hosted tile i of `lane` (tests compare against in-process). */
    const MemoryUnit &
    laneTile(Index lane, Index i) const
    {
        return *tiles_[lane * hostedTiles_ + i];
    }

    /** Steps served since configuration. */
    std::uint64_t stepsServed() const { return stepsServed_; }

    /** Admit controls received (episodes started on this worker). */
    std::uint64_t episodesServed() const { return episodesServed_; }

    /** First global tile of the handshake's assignment. */
    std::uint64_t firstGlobalTile() const { return firstGlobalTile_; }

    /**
     * Arm the deterministic fault harness: the worker stops responding
     * (and serve() exits, closing its channel) at the scripted frame.
     */
    void injectFault(const FaultSpec &spec) { fault_.arm(spec); }

    /** True once an armed fault has fired (the worker plays dead). */
    bool faultFired() const { return fault_.dead(); }

  private:
    /** Hello and Rejoin: validate + build tiles, answer with HelloAck. */
    void handleHello(MsgType type, const std::uint8_t *data,
                     std::size_t size, FrameSink &sink);
    void handleCheckpointRequest(const std::uint8_t *data, std::size_t size,
                                 FrameSink &sink);
    void handleRestore(const std::uint8_t *data, std::size_t size,
                       FrameSink &sink);
    void handleStatsPull(const std::uint8_t *data, std::size_t size,
                         FrameSink &sink);

    void applyConfig(const WireConfig &wire, HelloAckMsg &ack);
    void handleLaneStep(const std::uint8_t *data, std::size_t size,
                        FrameSink &sink);
    void handleControl(const std::uint8_t *data, std::size_t size,
                       FrameSink &sink);
    void sendError(const std::string &message, FrameSink &sink);

    /** Run fn(0..count-1), on the pool when configured. */
    void forEach(Index count, const std::function<void(Index)> &fn);

    DncConfig shardConfig_;
    Index hostedTiles_ = 0; ///< tiles per lane
    Index lanes_ = 1;
    Index globalTiles_ = 0; ///< Nt: per-tile LaneStep entries carry this many
    std::vector<std::unique_ptr<MemoryUnit>> tiles_; ///< lane-major
    std::unique_ptr<ThreadPool> pool_; ///< when numThreads > 1, tiles > 1

    // Reused per-frame state: the steady-state serve loop touches no
    // heap (decode resizes into warm buffers, encode reuses writer_).
    LaneStepMsg laneStep_;
    std::vector<MemoryReadout> readouts_; ///< frame slots, lane-major
    std::vector<Real> confidence_; ///< frame slots x R, row-major
    WireWriter writer_;
    std::function<void(Index)> laneStepTask_; ///< prebuilt pool task
    std::vector<std::uint8_t> frame_;         ///< serve() recv buffer

    // Restore decodes into these scratch snapshots, then commits into
    // the tiles only after the whole frame validated (fail-closed: a
    // truncated Restore never leaves tiles half-overwritten).
    std::vector<MemoryTileState> restoreScratch_;
    std::vector<MemoryTileState *> restorePtrs_;

    FaultInjector fault_;
    std::uint64_t firstGlobalTile_ = 0;
    obs::Snapshot statsScratch_; ///< StatsPull reply staging

    std::uint64_t stepsServed_ = 0;
    std::uint64_t episodesServed_ = 0;
};

} // namespace hima

#endif // HIMA_SHARD_WORKER_H
