#include "shard/pipeline.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace hima {

namespace {

/** Process-wide series for the lane group (registered on first use). */
struct GroupMetrics
{
    obs::Counter *laneSteps;
    obs::Counter *scatters;
    obs::Counter *checkpoints;
    obs::Counter *recoveries;
    obs::Gauge *inFlight;
    obs::Histogram *recoveryNanos;

    GroupMetrics()
    {
        obs::Registry &reg = obs::Registry::instance();
        laneSteps = &reg.counter("shard.lane_steps");
        scatters = &reg.counter("shard.scatters");
        checkpoints = &reg.counter("shard.checkpoints");
        recoveries = &reg.counter("shard.recoveries");
        inFlight = &reg.gauge("shard.in_flight_batches");
        recoveryNanos = &reg.histogram("recover.latency_nanos");
    }

    static GroupMetrics &
    get()
    {
        static GroupMetrics metrics;
        return metrics;
    }
};

std::uint32_t
maskOf(const std::vector<Index> &heads)
{
    std::uint32_t mask = 0;
    for (Index head : heads)
        mask |= 1u << head;
    return mask;
}

} // namespace

ShardLaneGroup::ShardLaneGroup(
    const DncConfig &config, Index tiles, Index lanes, MergePolicy policy,
    std::vector<std::unique_ptr<Channel>> channels, bool wantWeightings)
    : globalConfig_(config), shardConfig_(shardConfigFor(config, tiles)),
      tiles_(tiles), policy_(policy), wantWeightings_(wantWeightings),
      channels_(std::move(channels))
{
    HIMA_ASSERT(!channels_.empty() && channels_.size() <= tiles_,
                "need 1..Nt worker channels (got %zu for %zu tiles)",
                channels_.size(), tiles_);
    HIMA_ASSERT(lanes >= 1, "need at least one lane");
    HIMA_ASSERT(config.readHeads <= 32,
                "scored-head mask supports up to 32 read heads");
    gates_.resize(lanes);
    stepsSinceCheckpoint_.assign(lanes, 0);

    dealTiles();
    // Config handshake: every worker validates shapes, datapath mode
    // and its assignment before any step traffic.
    for (Index k = 0; k < channels_.size(); ++k) {
        FrameScope frame(*channels_[k], writer_);
        encodeHello(wireConfigFor(k), frame.writer());
        frame.commit();
    }
    for (Index k = 0; k < channels_.size(); ++k)
        expectHelloAck(k, "shard handshake");

    localPtrs_.resize(tiles_);
}

void
ShardLaneGroup::dealTiles()
{
    // Deal tiles contiguously and as evenly as possible (the same
    // layout repeated per lane on each worker).
    const Index chans = channels_.size();
    firstTile_.clear();
    tileCount_.clear();
    Index next = 0;
    for (Index k = 0; k < chans; ++k) {
        const Index count = tiles_ / chans + (k < tiles_ % chans ? 1 : 0);
        firstTile_.push_back(next);
        tileCount_.push_back(count);
        next += count;
    }
    replies_.resize(chans);
}

WireConfig
ShardLaneGroup::wireConfigFor(Index k) const
{
    WireConfig wire =
        WireConfig::fromShard(shardConfig_, tileCount_[k], gates_.size());
    wire.tiles = tiles_;
    wire.firstTile = firstTile_[k];
    return wire;
}

void
ShardLaneGroup::expectHelloAck(Index k, const char *who)
{
    HelloAckMsg ack;
    if (!recvFrom(k) || !decodeHelloAck(frameData_, frameSize_, ack))
        HIMA_FATAL("%s: worker %zu sent no valid ack", who, k);
    if (!ack.ok)
        HIMA_FATAL("%s: worker %zu rejected config: %s", who, k,
                   ack.message.c_str());
    if (ack.hostedTiles != tileCount_[k])
        HIMA_FATAL("%s: worker %zu hosts %llu tiles, expected %zu", who, k,
                   static_cast<unsigned long long>(ack.hostedTiles),
                   tileCount_[k]);
}

ShardLaneGroup::~ShardLaneGroup()
{
    for (auto &channel : channels_) {
        FrameScope frame(*channel, writer_);
        encodeShutdown(frame.writer());
        frame.commit();
    }
}

bool
ShardLaneGroup::recvFrom(Index k)
{
    return channels_[k]->recvFrameView(frameData_, frameSize_, frame_);
}

void
ShardLaneGroup::scatter(const std::vector<Index> &lanes,
                        const std::vector<const InterfaceVector *> &ifaces)
{
    HIMA_ASSERT(!lanes.empty() && lanes.size() == ifaces.size(),
                "scatter needs one interface per lane");
    entryScratch_.resize(lanes.size());
    for (Index j = 0; j < lanes.size(); ++j) {
        entryScratch_[j].lane = static_cast<std::uint32_t>(lanes[j]);
        entryScratch_[j].iface = ifaces[j];
        entryScratch_[j].tileIfaces = 0;
    }
    scatterEntries();
}

void
ShardLaneGroup::scatterEntries()
{
    HIMA_ASSERT(pendingCount_ < kMaxInFlight,
                "scatter window full (%zu in flight)", pendingCount_);
    Pending &slot =
        pending_[(pendingHead_ + pendingCount_) % kMaxInFlight];
    slot.lanes.resize(entryScratch_.size());
    for (Index j = 0; j < entryScratch_.size(); ++j) {
        const Index lane = entryScratch_[j].lane;
        HIMA_ASSERT(lane < gates_.size(), "lane %zu out of range", lane);
        HIMA_ASSERT(j == 0 || lane > slot.lanes[j - 1],
                    "scatter lanes must be strictly increasing");
        slot.lanes[j] = lane;
    }
    // A lane in two outstanding batches would race on its tiles and
    // its gate; both lane lists are ascending, so a two-pointer sweep
    // catches the overlap cheaply.
    for (Index b = 0; b < pendingCount_; ++b) {
        const std::vector<Index> &prev =
            pending_[(pendingHead_ + b) % kMaxInFlight].lanes;
        Index i = 0, j = 0;
        while (i < prev.size() && j < slot.lanes.size()) {
            HIMA_ASSERT(prev[i] != slot.lanes[j],
                        "lane %zu is already in an outstanding batch",
                        slot.lanes[j]);
            if (prev[i] < slot.lanes[j])
                ++i;
            else
                ++j;
        }
    }

    // Select the scored heads per lane *now* (alpha history is
    // per-lane, so batches touching disjoint lanes commute) from the
    // interface every tile scores with.
    for (LaneStepEntry &entry : entryScratch_)
        entry.scoredMask = maskOf(gates_[entry.lane].selectHeads(
            *entry.iface, policy_, globalConfig_.readHeads, tiles_));

    obs::TraceSpan span("shard.scatter", entryScratch_.size());
    const std::uint64_t seq = ++seq_;
    slot.seq = seq;
    // The frame is identical on every channel, but zero-copy channels
    // encode straight into their own ring slot, so encode per channel:
    // the encoder's array stores cost exactly what an
    // encode-once-then-memcpy-per-channel scheme would, and the shm hot
    // path moves no extra copy of the Real arrays. SocketChannel's
    // sendFrame is its queueFrame + flush, so the syscall count is one
    // frame per channel per scatter.
    for (Index k = 0; k < channels_.size(); ++k) {
        FrameScope frame(*channels_[k], writer_);
        encodeLaneStep(seq, wantWeightings_, entryScratch_.data(),
                       entryScratch_.size(), frame.writer());
        if (k == 0 && recoveryArmed())
            slot.bytes.assign(frame.writer().data(),
                              frame.writer().data() +
                                  frame.writer().size());
        frame.commit();
    }
    ++pendingCount_;
    GroupMetrics::get().scatters->add();
    GroupMetrics::get().inFlight->set(
        static_cast<std::int64_t>(pendingCount_));
}

void
ShardLaneGroup::gather(const std::vector<MemoryReadout *> &outs)
{
    HIMA_ASSERT(pendingCount_ > 0, "gather with no scatter in flight");
    Pending &p = pending_[pendingHead_];
    HIMA_ASSERT(outs.size() == p.lanes.size(),
                "gather needs one readout per scattered lane");

    const Index r = globalConfig_.readHeads;
    {
        obs::TraceSpan recvSpan("shard.gather_recv", channels_.size());
        for (Index k = 0; k < channels_.size(); ++k) {
            if (!recvFrom(k)) {
                recoverWorker(k, "batch", p.seq); // fatal unless armed
                // The replacement holds the checkpoint + replayed log;
                // resend the whole outstanding window oldest-first. Only
                // the oldest reply is consumed here — the rest queue up
                // for their own gathers, draining the double buffer
                // deterministically (the window never exceeds an shm
                // reply ring's depth). A second loss is fatal.
                for (Index b = 0; b < pendingCount_; ++b) {
                    const Pending &q =
                        pending_[(pendingHead_ + b) % kMaxInFlight];
                    channels_[k]->sendFrame(q.bytes.data(),
                                            q.bytes.size());
                }
                if (!recvFrom(k))
                    shardRecvFailure(*channels_[k], "batch", p.seq, k);
            }
            failOnError(k, "batch", p.seq);
            LaneStepReplyMsg &reply = replies_[k];
            if (!decodeLaneStepReply(frameData_, frameSize_, shardConfig_,
                                     tileCount_[k], p.lanes.size(),
                                     reply))
                HIMA_FATAL("shard batch %llu: worker %zu sent a "
                           "malformed reply",
                           static_cast<unsigned long long>(p.seq), k);
            if (reply.seq != p.seq)
                HIMA_FATAL("shard batch %llu: worker %zu replied out of "
                           "sequence (%llu)",
                           static_cast<unsigned long long>(p.seq), k,
                           static_cast<unsigned long long>(reply.seq));
            if (reply.hasWeightings != wantWeightings_)
                HIMA_FATAL("shard batch %llu: worker %zu weighting flag "
                           "mismatch",
                           static_cast<unsigned long long>(p.seq), k);
            if (reply.lanes.size() != p.lanes.size())
                HIMA_FATAL("shard batch %llu: worker %zu answered %zu "
                           "lanes, expected %zu",
                           static_cast<unsigned long long>(p.seq), k,
                           reply.lanes.size(), p.lanes.size());
            for (Index j = 0; j < p.lanes.size(); ++j)
                if (reply.lanes[j] != p.lanes[j])
                    HIMA_FATAL("shard batch %llu: worker %zu echoed lane "
                               "%u at slot %zu, expected %zu",
                               static_cast<unsigned long long>(p.seq), k,
                               reply.lanes[j], j, p.lanes[j]);
        }
    }

    // Per-lane distributed confidence merge: softmax over the gathered
    // (head x tile) logits, then the Eq. 4 weighted sum — the same gate
    // and mergeTileReadouts the in-process DncD runs, so a lane cannot
    // drift from it.
    {
        obs::TraceSpan mergeSpan("shard.merge", p.lanes.size());
        for (Index j = 0; j < p.lanes.size(); ++j) {
            const Index lane = p.lanes[j];
            ConfidenceGate &gate = gates_[lane];
            for (Index k = 0; k < channels_.size(); ++k)
                for (Index i = 0; i < tileCount_[k]; ++i)
                    localPtrs_[firstTile_[k] + i] =
                        &replies_[k].tiles[j * tileCount_[k] + i];
            const std::vector<Index> &scored = gate.scoredHeads();
            if (!scored.empty()) {
                scoreScratch_.assign(scored.size() * tiles_, 0.0);
                for (Index k = 0; k < channels_.size(); ++k) {
                    for (Index i = 0; i < tileCount_[k]; ++i) {
                        const Index tile = firstTile_[k] + i;
                        const Real *logits =
                            replies_[k].confidence.data() +
                            (j * tileCount_[k] + i) * r;
                        for (Index s = 0; s < scored.size(); ++s)
                            scoreScratch_[s * tiles_ + tile] =
                                logits[scored[s]];
                    }
                }
                gate.applyScores(scoreScratch_, tiles_);
            }
            mergeTileReadouts(localPtrs_, gate.alphas(), globalConfig_,
                              shardConfig_.memoryRows, *outs[j]);
        }
    }

    laneSteps_ += p.lanes.size();
    pendingHead_ = (pendingHead_ + 1) % kMaxInFlight;
    --pendingCount_;
    GroupMetrics::get().laneSteps->add(p.lanes.size());
    GroupMetrics::get().inFlight->set(
        static_cast<std::int64_t>(pendingCount_));

    if (recoveryArmed()) {
        commitLog(p.bytes);
        // The cadence counts steps per lane: pull once any lane has
        // stepped `interval` times since the last pull. Pull only at a
        // gather that empties the window, so the pull never
        // interleaves with an outstanding batch.
        for (Index lane : p.lanes)
            if (++stepsSinceCheckpoint_[lane] >=
                globalConfig_.shardCheckpointIntervalSteps)
                checkpointDue_ = true;
        if (pendingCount_ == 0 && checkpointDue_)
            pullCheckpoints();
    }
}

void
ShardLaneGroup::stepLaneInto(Index lane, const InterfaceVector &iface,
                             MemoryReadout &out)
{
    stepOneLane(lane, &iface, 0, out);
}

void
ShardLaneGroup::stepLaneInto(Index lane,
                             const std::vector<InterfaceVector> &ifaces,
                             MemoryReadout &out)
{
    HIMA_ASSERT(ifaces.size() == tiles_, "need one interface per tile");
    for (Index t = 1; t < tiles_; ++t) {
        HIMA_ASSERT(ifaces[t].readStrengths == ifaces[0].readStrengths,
                    "tile %zu read strengths diverge from the broadcast",
                    t);
        for (Index h = 0; h < globalConfig_.readHeads; ++h)
            HIMA_ASSERT(ifaces[t].readKeys[h] == ifaces[0].readKeys[h],
                        "tile %zu read key %zu diverges from the "
                        "broadcast",
                        t, h);
    }
    stepOneLane(lane, ifaces.data(), tiles_, out);
}

void
ShardLaneGroup::stepOneLane(Index lane, const InterfaceVector *iface,
                            Index tileIfaces, MemoryReadout &out)
{
    HIMA_ASSERT(pendingCount_ == 0,
                "stepLaneInto while %zu batches are in flight",
                pendingCount_);
    entryScratch_.assign(
        1, LaneStepEntry{static_cast<std::uint32_t>(lane), 0, iface,
                         tileIfaces});
    scatterEntries();
    outScratch_.assign(1, &out);
    gather(outScratch_);
}

void
ShardLaneGroup::broadcastFrame()
{
    for (auto &channel : channels_)
        channel->sendFrame(writer_.buffer().data(), writer_.buffer().size());
    if (recoveryArmed())
        resendScratch_.assign(writer_.buffer().begin(),
                              writer_.buffer().end());
}

void
ShardLaneGroup::recvOrRecover(Index k, const char *what, std::uint64_t seq)
{
    if (recvFrom(k))
        return;
    recoverWorker(k, what, seq); // fatal unless armed
    channels_[k]->sendFrame(resendScratch_.data(), resendScratch_.size());
    if (!recvFrom(k))
        shardRecvFailure(*channels_[k], what, seq, k);
}

void
ShardLaneGroup::failOnError(Index k, const char *what,
                            std::uint64_t seq) const
{
    MsgType type;
    if (!peekType(frameData_, frameSize_, type) || type != MsgType::Error)
        return;
    ErrorMsg err;
    decodeError(frameData_, frameSize_, err);
    HIMA_FATAL("shard %s %llu: worker %zu error: %s", what,
               static_cast<unsigned long long>(seq), k,
               err.message.c_str());
}

void
ShardLaneGroup::sendControl(ControlKind kind, std::uint32_t lane)
{
    HIMA_ASSERT(pendingCount_ == 0,
                "shard control while %zu batches are in flight",
                pendingCount_);
    ControlMsg msg;
    msg.kind = kind;
    msg.seq = ++controlSeq_;
    msg.lane = lane;
    encodeControl(msg, writer_);
    broadcastFrame();
    for (Index k = 0; k < channels_.size(); ++k) {
        std::uint64_t seq = 0;
        recvOrRecover(k, "control", msg.seq);
        if (!decodeControlAck(frameData_, frameSize_, seq) ||
            seq != msg.seq)
            HIMA_FATAL("shard control: worker %zu did not acknowledge", k);
    }
    // Controls mutate worker state (tile resets), so a replacement
    // must replay them in order with the lane steps.
    if (recoveryArmed())
        commitLog(resendScratch_);
    if (lane == kAllLanes) {
        for (ConfidenceGate &gate : gates_)
            gate.reset();
    } else {
        gates_[lane].reset();
    }
}

void
ShardLaneGroup::admitLane(Index lane)
{
    HIMA_ASSERT(lane < gates_.size(), "lane %zu out of range", lane);
    sendControl(ControlKind::Admit, static_cast<std::uint32_t>(lane));
}

void
ShardLaneGroup::resetLane(Index lane)
{
    HIMA_ASSERT(lane < gates_.size(), "lane %zu out of range", lane);
    sendControl(ControlKind::EpisodeReset,
                static_cast<std::uint32_t>(lane));
}

void
ShardLaneGroup::resetAll()
{
    sendControl(ControlKind::EpisodeReset, kAllLanes);
}

// --------------------------------------------------------------------
// Fault tolerance: checkpoint pulls, replay log, respawn + restore
// --------------------------------------------------------------------

void
ShardLaneGroup::commitLog(const std::vector<std::uint8_t> &bytes)
{
    if (logCount_ == log_.size())
        log_.emplace_back();
    log_[logCount_++].assign(bytes.begin(), bytes.end());
}

MemoryTileState *const *
ShardLaneGroup::snapshotSlice(Index k)
{
    // Worker k encodes its tiles lane-major (lane * hostedTiles + i);
    // point the slice at the matching rows of the lanes x Nt store.
    const Index laneCount = gates_.size();
    snapshotPtrs_.resize(laneCount * tileCount_[k]);
    for (Index l = 0; l < laneCount; ++l)
        for (Index i = 0; i < tileCount_[k]; ++i)
            snapshotPtrs_[l * tileCount_[k] + i] =
                &checkpoints_[l * tiles_ + firstTile_[k] + i];
    return snapshotPtrs_.data();
}

void
ShardLaneGroup::pullCheckpoints()
{
    HIMA_ASSERT(pendingCount_ == 0,
                "shard checkpoint while %zu batches are in flight",
                pendingCount_);
    obs::TraceSpan span("shard.checkpoint_pull");
    checkpoints_.resize(gates_.size() * tiles_);
    ++checkpointSeq_;
    encodeCheckpointRequest(checkpointSeq_, writer_);
    broadcastFrame();
    for (Index k = 0; k < channels_.size(); ++k) {
        // A loss mid-pull recovers from the *previous* checkpoint plus
        // the still-uncleared log, then re-asks for this one; slices
        // already written for earlier workers are irrelevant to it.
        recvOrRecover(k, "checkpoint", checkpointSeq_);
        failOnError(k, "checkpoint", checkpointSeq_);
        std::uint64_t seq = 0;
        if (!decodeCheckpointState(frameData_, frameSize_,
                                   shardConfig_, snapshotSlice(k),
                                   gates_.size() * tileCount_[k], seq) ||
            seq != checkpointSeq_)
            HIMA_FATAL("shard checkpoint %llu: worker %zu sent a "
                       "malformed snapshot",
                       static_cast<unsigned long long>(checkpointSeq_), k);
    }
    checkpointValid_ = true;
    ++checkpointsTaken_;
    std::fill(stepsSinceCheckpoint_.begin(), stepsSinceCheckpoint_.end(),
              0);
    checkpointDue_ = false;
    logCount_ = 0; // ring buffers kept: the next window reuses them
    GroupMetrics::get().checkpoints->add();
}

void
ShardLaneGroup::scrapeWorkers(std::vector<obs::Snapshot> &perWorker,
                              obs::Snapshot &aggregate)
{
    HIMA_ASSERT(pendingCount_ == 0,
                "shard stats scrape while %zu batches are in flight",
                pendingCount_);
    perWorker.resize(channels_.size());
    ++statsSeq_;
    encodeStatsPull(statsSeq_, writer_);
    broadcastFrame();
    for (Index k = 0; k < channels_.size(); ++k) {
        recvOrRecover(k, "stats scrape", statsSeq_);
        failOnError(k, "stats scrape", statsSeq_);
        std::uint64_t seq = 0;
        if (!decodeStatsReport(frameData_, frameSize_, perWorker[k],
                               seq) ||
            seq != statsSeq_)
            HIMA_FATAL("shard stats scrape %llu: worker %zu sent a "
                       "malformed report",
                       static_cast<unsigned long long>(statsSeq_), k);
    }

    // Fleet view: this process's registry + every worker's report +
    // the coordinator-side wire counters (its tx is the workers' rx).
    obs::processSnapshot(aggregate);
    for (const obs::Snapshot &report : perWorker)
        aggregate.merge(report);
    WireTrafficStats sent, received;
    for (const auto &channel : channels_) {
        sent += channel->sentStats();
        received += channel->receivedStats();
    }
    obs::importWireTraffic(aggregate, sent, received, "shard.wire");
}

void
ShardLaneGroup::checkpointNow()
{
    pullCheckpoints();
}

void
ShardLaneGroup::rejoinWorker(Index k, const char *who)
{
    {
        FrameScope frame(*channels_[k], writer_);
        encodeRejoin(wireConfigFor(k), frame.writer());
        frame.commit();
    }
    expectHelloAck(k, who);
}

void
ShardLaneGroup::restoreWorker(Index k, const char *who)
{
    {
        FrameScope frame(*channels_[k], writer_);
        encodeRestore(checkpointSeq_, snapshotSlice(k),
                      gates_.size() * tileCount_[k], shardConfig_,
                      frame.writer());
        frame.commit();
    }
    std::uint64_t seq = 0;
    if (!recvFrom(k) ||
        !decodeControlAck(frameData_, frameSize_, seq) ||
        seq != checkpointSeq_)
        HIMA_FATAL("%s: worker %zu did not acknowledge the Restore", who,
                   k);
}

void
ShardLaneGroup::recoverWorker(Index k, const char *what, std::uint64_t seq)
{
    const ShardError err = shardRecvError(*channels_[k], what, seq, k);
    if (!recoveryArmed())
        HIMA_FATAL("%s", err.describe().c_str());
    ++recoveries_;
    const std::uint64_t recoverStart = obs::traceNowNanos();
    obs::TraceSpan span("recover.worker", logCount_);
    obs::traceInstant("recover.detected", k);
    HIMA_WARN("%s; respawning and replaying %zu logged frames",
              err.describe().c_str(), logCount_);
    std::unique_ptr<Channel> fresh = respawner_(k);
    if (!fresh)
        HIMA_FATAL("shard recovery: no replacement channel for worker %zu",
                   k);
    channels_[k] = std::move(fresh);

    // The replacement validates shapes and builds zeroed tiles (the
    // t=0 state) exactly like Hello, then takes the lost assignment.
    rejoinWorker(k, "shard recovery");
    // Before the first pull there is nothing to restore: freshly built
    // tiles already hold the t=0 state the log replays from.
    if (checkpointValid_)
        restoreWorker(k, "shard recovery");

    // Replay the logged window; replies are drained and discarded (the
    // per-lane gates already advanced through these frames). Each
    // replayed frame's reply is drained before the next send, so the
    // window can exceed an shm reply ring's slot count without
    // deadlock.
    for (std::size_t e = 0; e < logCount_; ++e) {
        channels_[k]->sendFrame(log_[e].data(), log_[e].size());
        MsgType type;
        if (!recvFrom(k) ||
            !peekType(frameData_, frameSize_, type) ||
            type == MsgType::Error)
            HIMA_FATAL("shard recovery: worker %zu failed replay frame "
                       "%zu/%zu",
                       k, e + 1, static_cast<std::size_t>(logCount_));
    }

    GroupMetrics::get().recoveries->add();
    GroupMetrics::get().recoveryNanos->record(obs::traceNowNanos() -
                                              recoverStart);
}

void
ShardLaneGroup::migrateWorker(Index k, std::unique_ptr<Channel> replacement)
{
    HIMA_ASSERT(k < channels_.size(), "migrate: no worker %zu", k);
    HIMA_ASSERT(replacement != nullptr, "migrate: null replacement");
    HIMA_ASSERT(pendingCount_ == 0,
                "migrate while %zu batches are in flight", pendingCount_);
    // A fresh pull captures the exact current state of every lane (and
    // empties the replay log), so the move needs no replay.
    pullCheckpoints();

    std::unique_ptr<Channel> old = std::move(channels_[k]);
    channels_[k] = std::move(replacement);
    rejoinWorker(k, "shard migration");
    restoreWorker(k, "shard migration");

    // Retire the old worker only after the replacement holds the state.
    FrameScope frame(*old, writer_);
    encodeShutdown(frame.writer());
    frame.commit();
}

void
ShardLaneGroup::rescale(std::vector<std::unique_ptr<Channel>> channels)
{
    HIMA_ASSERT(!channels.empty() && channels.size() <= tiles_,
                "rescale: need 1..Nt worker channels (got %zu for %zu "
                "tiles)",
                channels.size(), tiles_);
    HIMA_ASSERT(pendingCount_ == 0,
                "rescale while %zu batches are in flight", pendingCount_);
    pullCheckpoints();
    for (auto &channel : channels_) {
        FrameScope frame(*channel, writer_);
        encodeShutdown(frame.writer());
        frame.commit();
    }

    channels_ = std::move(channels);
    dealTiles();

    // Rejoin + Restore the new fleet onto the re-dealt slices. Lane
    // gates live coordinator-side and are untouched, so every serving
    // lane survives the scale-out bit-identically — zero drops.
    for (Index k = 0; k < channels_.size(); ++k) {
        rejoinWorker(k, "shard rescale");
        restoreWorker(k, "shard rescale");
    }
}

std::unique_ptr<TileMemory>
ShardLaneGroup::laneMemory(Index lane)
{
    HIMA_ASSERT(lane < gates_.size(), "lane %zu out of range", lane);
    return std::make_unique<ShardLaneMemory>(*this, lane);
}

// --------------------------------------------------------------------
// ShardLaneMemory: one lane behind the TileMemory surface.
// --------------------------------------------------------------------

MemoryReadout
ShardLaneMemory::stepInterface(const InterfaceVector &iface)
{
    MemoryReadout out;
    group_.stepLaneInto(lane_, iface, out);
    return out;
}

MemoryReadout
ShardLaneMemory::stepInterfaces(const std::vector<InterfaceVector> &ifaces)
{
    MemoryReadout out;
    group_.stepLaneInto(lane_, ifaces, out);
    return out;
}

} // namespace hima
