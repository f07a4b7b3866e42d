#include "shard/worker.h"

#include "obs/obs.h"

namespace hima {

namespace {

/** Recurrent state bytes of one tile of `wire`'s shape (see
 * kMaxHostedStateBytes): linkage N^2, memory N*W, and the R read
 * weightings plus usage, precedence, write weighting and row norms. */
std::uint64_t
hostedTileStateBytes(const WireConfig &wire)
{
    const std::uint64_t n = wire.memoryRows;
    return sizeof(Real) *
           (n * n + n * wire.memoryWidth + (wire.readHeads + 4) * n);
}

} // namespace

bool
ShardWorker::handleFrame(const std::uint8_t *data, std::size_t size,
                         FrameSink &sink)
{
    MsgType type;
    if (!peekType(data, size, type)) {
        sendError("malformed frame header", sink);
        return true;
    }
    // Scripted fault: a dead worker never replies again, and serve()
    // exits so its socket closes — the coordinator observes exactly
    // what a crashed process would produce (silence, then EOF).
    if (fault_.dead() || fault_.onFrame(type == MsgType::LaneStep))
        return false;
    switch (type) {
    case MsgType::Hello:
    case MsgType::Rejoin:
        handleHello(type, data, size, sink);
        return true;
    case MsgType::LaneStep:
        handleLaneStep(data, size, sink);
        return true;
    case MsgType::Control:
        handleControl(data, size, sink);
        return true;
    case MsgType::CheckpointRequest:
        handleCheckpointRequest(data, size, sink);
        return true;
    case MsgType::Restore:
        handleRestore(data, size, sink);
        return true;
    case MsgType::StatsPull:
        handleStatsPull(data, size, sink);
        return true;
    case MsgType::Shutdown:
        return false;
    default:
        sendError("unexpected message type", sink);
        return true;
    }
}

void
ShardWorker::handleStatsPull(const std::uint8_t *data, std::size_t size,
                             FrameSink &sink)
{
    std::uint64_t seq = 0;
    if (!decodeStatsPull(data, size, seq)) {
        sendError("malformed StatsPull", sink);
        return;
    }
    // Scrapes are off the step path: building the report may allocate.
    obs::processSnapshot(statsScratch_);
    statsScratch_.addCounter("worker.steps_served", stepsServed_);
    statsScratch_.addCounter("worker.episodes_served", episodesServed_);
    statsScratch_.addGauge("worker.hosted_tiles",
                           static_cast<std::int64_t>(tiles_.size()));
    statsScratch_.addGauge("worker.lanes",
                           static_cast<std::int64_t>(configured() ? lanes_
                                                                  : 0));
    if (configured()) {
        KernelProfiler total;
        for (const auto &tile : tiles_)
            total.merge(tile->profiler());
        obs::importKernelProfiler(statsScratch_, total);
    }
    FrameScope reply(sink, writer_);
    encodeStatsReport(seq, statsScratch_, reply.writer());
    reply.commit();
}

void
ShardWorker::sendError(const std::string &message, FrameSink &sink)
{
    encodeError(message, writer_);
    sink.sendFrame(writer_.buffer().data(), writer_.buffer().size());
}

void
ShardWorker::handleHello(MsgType type, const std::uint8_t *data,
                         std::size_t size, FrameSink &sink)
{
    // Rejoin carries the Hello body: a replacement worker starts from
    // zeroed tiles (the t=0 state) and the coordinator follows up with
    // Restore + replay as needed.
    WireConfig wire;
    HelloAckMsg ack;
    const bool decoded = type == MsgType::Hello
                             ? decodeHello(data, size, wire)
                             : decodeRejoin(data, size, wire);
    if (!decoded) {
        ack.ok = false;
        ack.message = std::string("malformed ") + msgTypeName(type);
    } else {
        applyConfig(wire, ack);
    }
    encodeHelloAck(ack, writer_);
    sink.sendFrame(writer_.buffer().data(), writer_.buffer().size());
}

void
ShardWorker::applyConfig(const WireConfig &wire, HelloAckMsg &ack)
{
    if (wire.hostedTiles == 0) {
        ack.ok = false;
        ack.message = "zero hosted tiles";
    } else if (wire.memoryRows == 0 || wire.memoryWidth == 0 ||
               wire.readHeads == 0 || wire.readHeads > 32 ||
               wire.numThreads == 0 ||
               // Fail-closed sizing: the handshake dimensions every
               // allocation downstream (per-tile linkage alone is
               // rows^2 doubles), so a corrupt or hostile Hello must
               // bounce in the ack rather than OOM the worker. The
               // caps are generous for the paper's shapes (N=1024
               // *global*, shards smaller).
               wire.memoryRows > (1u << 14) ||
               wire.memoryWidth > (1u << 12) ||
               wire.hostedTiles > 1024 || wire.numThreads > 256 ||
               // Lane cap bounds total tile construction to
               // lanes x hostedTiles (each tile's linkage alone is
               // rows^2 doubles), same fail-closed sizing discipline.
               wire.lanes == 0 || wire.lanes > 4096 ||
               wire.lanes * wire.hostedTiles > (1u << 16) ||
               // The assignment must lie inside the Nt tiles a per-tile
               // LaneStep entry carries (Nt capped like the lanes).
               wire.tiles > 4096 || wire.firstTile > wire.tiles ||
               wire.hostedTiles > wire.tiles - wire.firstTile ||
               (wire.approximateSoftmax != 0 &&
                (wire.softmaxSegments < 2 ||
                 wire.softmaxSegments > (1u << 16))) ||
               // Negated-conjunction form so NaN (which a bit-cast wire
               // Real can smuggle in) also fails validation.
               !(wire.skimRate >= 0.0 && wire.skimRate < 1.0) ||
               // Total tile state: the caps above bound each factor
               // (keeping this product below 2^48), not the product.
               wire.lanes * wire.hostedTiles *
                       hostedTileStateBytes(wire) >
                   kMaxHostedStateBytes) {
        // Shape/datapath validation at connect: mirror DncConfig's
        // rules without tripping its fatal path inside a server.
        ack.ok = false;
        ack.message = "invalid shard config";
    } else {
        shardConfig_ = wire.toShardConfig();
        hostedTiles_ = static_cast<Index>(wire.hostedTiles);
        lanes_ = static_cast<Index>(wire.lanes);
        globalTiles_ = static_cast<Index>(wire.tiles);
        firstGlobalTile_ = wire.firstTile;
        tiles_.clear();
        for (Index t = 0; t < lanes_ * hostedTiles_; ++t)
            tiles_.push_back(std::make_unique<MemoryUnit>(shardConfig_));
        readouts_.clear();
        readouts_.resize(tiles_.size());
        confidence_.assign(tiles_.size() * shardConfig_.readHeads, 0.0);
        pool_.reset();
        if (shardConfig_.numThreads > 1 && tiles_.size() > 1)
            pool_ = std::make_unique<ThreadPool>(shardConfig_.numThreads);
        laneStepTask_ = nullptr;
        stepsServed_ = 0;
        episodesServed_ = 0;
        ack.ok = true;
        ack.hostedTiles = hostedTiles_;
    }
}

void
ShardWorker::handleCheckpointRequest(const std::uint8_t *data,
                                     std::size_t size, FrameSink &sink)
{
    if (!configured()) {
        sendError("CheckpointRequest before Hello", sink);
        return;
    }
    std::uint64_t seq = 0;
    if (!decodeCheckpointRequest(data, size, seq)) {
        sendError("malformed CheckpointRequest", sink);
        return;
    }
    // Encoded straight from the live tiles: no snapshot copy, and
    // writer_ keeps its capacity, so a steady-state checkpoint pull
    // allocates nothing after the first. On an shm channel the scope's
    // writer is the ring slot itself — the snapshot lands in shared
    // memory with no staging copy at all.
    FrameScope reply(sink, writer_);
    encodeCheckpointState(seq, tiles_, shardConfig_, reply.writer());
    reply.commit();
}

void
ShardWorker::handleRestore(const std::uint8_t *data, std::size_t size,
                           FrameSink &sink)
{
    if (!configured()) {
        sendError("Restore before Hello", sink);
        return;
    }
    if (restoreScratch_.size() != tiles_.size()) {
        restoreScratch_.resize(tiles_.size());
        restorePtrs_.clear();
        for (auto &snapshot : restoreScratch_)
            restorePtrs_.push_back(&snapshot);
    }
    std::uint64_t seq = 0;
    if (!decodeRestore(data, size, shardConfig_, restorePtrs_.data(),
                       tiles_.size(), seq)) {
        sendError("malformed Restore", sink);
        return;
    }
    for (Index t = 0; t < tiles_.size(); ++t)
        tiles_[t]->restoreState(restoreScratch_[t]);
    encodeControlAck(seq, writer_);
    sink.sendFrame(writer_.buffer().data(), writer_.buffer().size());
}

void
ShardWorker::forEach(Index count, const std::function<void(Index)> &fn)
{
    if (pool_ && count > 1) {
        pool_->parallelFor(count, fn);
    } else {
        for (Index t = 0; t < count; ++t)
            fn(t);
    }
}

void
ShardWorker::handleLaneStep(const std::uint8_t *data, std::size_t size,
                            FrameSink &sink)
{
    if (!configured()) {
        sendError("LaneStep before Hello", sink);
        return;
    }
    if (!decodeLaneStep(data, size, shardConfig_, lanes_, globalTiles_,
                        laneStep_)) {
        sendError("malformed LaneStep", sink);
        return;
    }
    // Checked before any tile steps, so a refused frame leaves every
    // lane's state as it was.
    const Index frameLanes = laneStep_.lanes.size();
    for (Index j = 0; j < frameLanes; ++j) {
        if (laneStep_.perTile[j] &&
            !readQueriesBroadcast(&laneStep_.tileIface(j, 0),
                                  globalTiles_)) {
            sendError("LaneStep per-tile read keys or strengths diverge "
                      "from tile 0's",
                      sink);
            return;
        }
    }

    // All named lanes' hosted tiles in one dispatch: frame slot
    // j * hostedTiles + i maps to tile i of lane lanes[j]. Lanes are
    // independent tile sets, so any pool schedule is bit-identical to
    // sequential execution. Every tile of an entry reads with the same
    // keys (queries broadcast), so its kept dots give each flagged
    // head's score in O(N).
    const Index slots = frameLanes * hostedTiles_; // <= readouts_.size()
    if (!laneStepTask_) {
        laneStepTask_ = [this](Index slot) {
            const Index j = slot / hostedTiles_;
            const Index i = slot % hostedTiles_;
            MemoryUnit &tile =
                *tiles_[laneStep_.lanes[j] * hostedTiles_ + i];
            tile.stepInto(laneStep_.tileIface(j, firstGlobalTile_ + i),
                          readouts_[slot]);
            const Index heads = shardConfig_.readHeads;
            for (Index h = 0; h < heads; ++h)
                confidence_[slot * heads + h] =
                    (laneStep_.masks[j] >> h & 1u) ? tile.readConfidence(h)
                                                   : 0.0;
        };
    }
    forEach(slots, laneStepTask_);
    stepsServed_ += frameLanes; // lane-steps served

    FrameScope reply(sink, writer_);
    encodeLaneStepReply(laneStep_.seq, laneStep_.wantWeightings,
                        laneStep_.lanes.data(), frameLanes, hostedTiles_,
                        readouts_, confidence_, shardConfig_,
                        reply.writer());
    reply.commit();
}

void
ShardWorker::handleControl(const std::uint8_t *data, std::size_t size,
                           FrameSink &sink)
{
    if (!configured()) {
        sendError("Control before Hello", sink);
        return;
    }
    ControlMsg msg;
    if (!decodeControl(data, size, msg)) {
        sendError("malformed Control", sink);
        return;
    }
    if (msg.lane == kAllLanes) {
        for (auto &tile : tiles_)
            tile->reset();
    } else if (msg.lane < lanes_) {
        // Per-lane admit/reset: only the named lane's tile set resets,
        // so recycling one serving lane never disturbs its neighbours.
        for (Index t = 0; t < hostedTiles_; ++t)
            tiles_[msg.lane * hostedTiles_ + t]->reset();
    } else {
        sendError("Control names an unhosted lane", sink);
        return;
    }
    if (msg.kind == ControlKind::Admit)
        ++episodesServed_;
    encodeControlAck(msg.seq, writer_);
    sink.sendFrame(writer_.buffer().data(), writer_.buffer().size());
}

void
ShardWorker::serve(Channel &channel)
{
    // Borrowed-view receive: zero-copy transports hand back a pointer
    // into their ring slot (valid until the next receive — exactly one
    // frame is in hand at a time here), so decoders read the broadcast
    // interface straight out of shared memory; copying transports fill
    // frame_ as before.
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    while (channel.recvFrameView(data, size, frame_)) {
        if (!handleFrame(data, size, channel))
            return;
    }
}

} // namespace hima
