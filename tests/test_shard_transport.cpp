/**
 * @file
 * Transport-layer regression suite: the shared-memory ring channel
 * (rendezvous, wrap-around, in-place frames, timeout/close diagnosis,
 * malformed-slot fuzzing) and the socket bug sweep — send-side timeout
 * diagnosis, the zero-recv-timeout clamp, Unix listener double-bind
 * protection — plus wire-traffic accounting across a v3 recovery
 * (respawn + restore + replay must not double-count frames).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "golden_util.h"
#include "shard/local_cluster.h"

namespace hima {
namespace {

/** Fresh shm name per test so concurrent/retried runs never collide. */
std::string
uniqueShmName(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/hima_test_" + std::string(tag) + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(counter.fetch_add(1));
}

/** Fresh Unix socket path per test (same collision story). */
std::string
uniqueSockPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/hima_test_" + std::string(tag) + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A payload whose bytes encode (tag, index) so frames are tellable. */
std::vector<std::uint8_t>
patternPayload(std::uint8_t tag, std::size_t bytes)
{
    std::vector<std::uint8_t> payload(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        payload[i] = static_cast<std::uint8_t>(tag + i * 131);
    return payload;
}

std::uint64_t
frames(const WireTrafficStats &stats, MsgType type)
{
    return stats.frames[static_cast<std::size_t>(type)];
}

// --------------------------------------------------------------------
// ShmChannel: ring mechanics.
// --------------------------------------------------------------------

TEST(ShmChannelRing, PingPongWrapsPastSlotCountInBothDirections)
{
    const std::string name = uniqueShmName("pingpong");
    auto a = ShmChannel::create(name, /*slotBytes=*/4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, /*timeoutMs=*/2000);
    ASSERT_TRUE(b != nullptr);
    EXPECT_EQ(a->slotBytes(), b->slotBytes());
    EXPECT_EQ(a->slotCount(), b->slotCount());

    // Far more round trips than slots, with frame sizes sweeping from
    // tiny to a full slot: head/tail are monotonic counters, so every
    // slot index is revisited many times and any wrap-around bug in the
    // index arithmetic shows up as a payload mismatch.
    const int rounds = static_cast<int>(3 * a->slotCount() + 5);
    std::vector<std::uint8_t> frame;
    for (int i = 0; i < rounds; ++i) {
        const std::size_t bytes = 1 + (i * 509) % a->slotBytes();
        const auto ping = patternPayload(static_cast<std::uint8_t>(i), bytes);
        a->sendFrame(ping.data(), ping.size());
        ASSERT_TRUE(b->recvFrame(frame)) << "round " << i;
        ASSERT_TRUE(frame == ping) << "ping payload diverged at " << i;

        const auto pong =
            patternPayload(static_cast<std::uint8_t>(i + 7), bytes / 2 + 1);
        b->sendFrame(pong.data(), pong.size());
        ASSERT_TRUE(a->recvFrame(frame)) << "round " << i;
        ASSERT_TRUE(frame == pong) << "pong payload diverged at " << i;
    }
    EXPECT_GT(a->bytesSent(), 0u);
    EXPECT_EQ(a->bytesSent(), b->bytesReceived());
    EXPECT_EQ(b->bytesSent(), a->bytesReceived());
}

TEST(ShmChannelRing, InPlaceFramesLandInsideTheMappingAndDecode)
{
    const std::string name = uniqueShmName("inplace");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    WireWriter staging;
    for (std::uint64_t seq = 1; seq <= 20; ++seq) {
        FrameScope frame(*a, staging);
        encodeCheckpointRequest(seq, frame.writer());
        frame.commit();
        // Zero-copy send: the staging writer must not have been used.
        EXPECT_EQ(staging.size(), 0u);

        const std::uint8_t *data = nullptr;
        std::size_t size = 0;
        std::vector<std::uint8_t> scratch;
        ASSERT_TRUE(b->recvFrameView(data, size, scratch));
        // Zero-copy receive: the borrowed view points into the mapped
        // region, not into the scratch vector.
        const std::uint8_t *lo = b->rawRegionForTest();
        EXPECT_TRUE(data >= lo && data + size <= lo + b->regionBytesForTest())
            << "view does not point into the shm mapping";
        std::uint64_t got = 0;
        ASSERT_TRUE(decodeCheckpointRequest(data, size, got));
        EXPECT_EQ(got, seq);
    }
    EXPECT_EQ(frames(a->sentStats(), MsgType::CheckpointRequest), 20u);
    EXPECT_EQ(frames(b->receivedStats(), MsgType::CheckpointRequest), 20u);
}

TEST(ShmChannelRing, BorrowedViewSurvivesAReplyOnTheOppositeRing)
{
    const std::string name = uniqueShmName("borrow");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    const auto request = patternPayload(3, 777);
    a->sendFrame(request.data(), request.size());

    const std::uint8_t *view = nullptr;
    std::size_t viewSize = 0;
    std::vector<std::uint8_t> scratch;
    ASSERT_TRUE(b->recvFrameView(view, viewSize, scratch));
    ASSERT_EQ(viewSize, request.size());

    // The serve loop's shape: encode the reply while the request view
    // is still on loan. The directions are separate rings, so the send
    // must not recycle the borrowed slot.
    const auto reply = patternPayload(9, 512);
    b->sendFrame(reply.data(), reply.size());
    EXPECT_EQ(std::memcmp(view, request.data(), viewSize), 0)
        << "reply send invalidated the borrowed request view";

    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(a->recvFrame(frame));
    EXPECT_TRUE(frame == reply);
}

TEST(ShmChannelRing, RendezvousRefusalsAreFailClosed)
{
    const std::string name = uniqueShmName("rendezvous");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    // A live name is never displaced: the second create must fail
    // instead of stealing the region out from under `a`.
    EXPECT_TRUE(ShmChannel::create(name, 4096) == nullptr);

    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);
    // The attached end is claimed by CAS; a third peer cannot join an
    // SPSC pair.
    EXPECT_TRUE(ShmChannel::attach(name, 200) == nullptr);

    // Attaching to a name nobody created polls out and returns null.
    EXPECT_TRUE(ShmChannel::attach(uniqueShmName("absent"), 100) == nullptr);

    // The refused rendezvous attempts must not have harmed the pair.
    const auto payload = patternPayload(1, 64);
    a->sendFrame(payload.data(), payload.size());
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(b->recvFrame(frame));
    EXPECT_TRUE(frame == payload);
}

TEST(ShmChannelRing, RecvTimeoutIsDiagnosedAsTimeoutAndSticky)
{
    const std::string name = uniqueShmName("timeout");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    b->setRecvTimeout(50);
    std::vector<std::uint8_t> frame;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(b->recvFrame(frame));
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_GE(waited, std::chrono::milliseconds(40));
    EXPECT_LT(waited, std::chrono::seconds(10));
    EXPECT_TRUE(b->timedOut());
    EXPECT_EQ(shardRecvError(*b, "step", 1, 0).kind,
              ShardError::Kind::RecvTimeout);

    // The expiry is sticky (the peer may have half-published a frame we
    // gave up waiting on): a later send must not resurrect the channel,
    // and the diagnosis must stay "timeout", not morph into "closed".
    const auto late = patternPayload(5, 32);
    a->sendFrame(late.data(), late.size());
    EXPECT_FALSE(b->recvFrame(frame));
    EXPECT_TRUE(b->timedOut());
}

TEST(ShmChannelRing, ZeroRecvTimeoutMeansBoundedNotForever)
{
    const std::string name = uniqueShmName("zerotimeout");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    // POSIX reads a zero timeout as "block forever"; a caller asking
    // for 0 means the opposite. The clamp turns it into the tightest
    // bound instead of an infinite hang.
    b->setRecvTimeout(0);
    std::vector<std::uint8_t> frame;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(b->recvFrame(frame));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_TRUE(b->timedOut());
}

TEST(ShmChannelRing, OrderlyCloseDrainsQueuedFramesThenReportsEof)
{
    const std::string name = uniqueShmName("close");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    const auto first = patternPayload(2, 100);
    const auto second = patternPayload(4, 200);
    a->sendFrame(first.data(), first.size());
    a->sendFrame(second.data(), second.size());
    a.reset(); // peer closes with frames still in the ring

    b->setRecvTimeout(2000);
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(b->recvFrame(frame));
    EXPECT_TRUE(frame == first);
    ASSERT_TRUE(b->recvFrame(frame));
    EXPECT_TRUE(frame == second);
    // Ring drained + peer closed = EOF, and the diagnosis must be
    // "closed", not "timed out" — recovery treats the two differently.
    EXPECT_FALSE(b->recvFrame(frame));
    EXPECT_FALSE(b->timedOut());
    EXPECT_EQ(shardRecvError(*b, "step", 1, 0).kind,
              ShardError::Kind::ChannelClosed);
}

// --------------------------------------------------------------------
// ShmChannel: malformed-slot fuzzing. The payload inside a slot is the
// ordinary wire encoding and the slot framing is validated on receive,
// so a scribbled region degrades to a failed receive or a failed
// decode — never to an out-of-bounds read or a hang.
// --------------------------------------------------------------------

/** Find `needle` inside the mapped region (the slot holding it). */
std::uint8_t *
findInRegion(ShmChannel &chan, const std::vector<std::uint8_t> &needle)
{
    std::uint8_t *lo = chan.rawRegionForTest();
    std::uint8_t *hi = lo + chan.regionBytesForTest();
    for (std::uint8_t *p = lo; p + needle.size() <= hi; ++p)
        if (std::memcmp(p, needle.data(), needle.size()) == 0)
            return p;
    return nullptr;
}

class ShmSlotFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ShmSlotFuzz, OversizedSlotLengthFailsClosed)
{
    const std::string name = uniqueShmName("fuzzlen");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    const auto payload = patternPayload(0x5A, 96);
    a->sendFrame(payload.data(), payload.size());

    // Locate the slot and scribble its u64 length prefix (the 8 bytes
    // before the payload) with a length no honest sender can produce.
    std::uint8_t *slot = findInRegion(*b, payload);
    ASSERT_TRUE(slot != nullptr) << "published payload not found in region";
    const std::uint64_t evil = GetParam();
    std::memcpy(slot - 8, &evil, sizeof(evil));

    b->setRecvTimeout(200);
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(b->recvFrame(frame));
    EXPECT_FALSE(b->timedOut()) << "corruption must read as broken, "
                                   "not as a timeout";
    // Fail-closed is sticky: the ring metadata can no longer be
    // trusted, so later receives keep failing rather than resyncing.
    const auto more = patternPayload(0x11, 16);
    a->sendFrame(more.data(), more.size());
    EXPECT_FALSE(b->recvFrame(frame));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, ShmSlotFuzz,
    // Just past the slot capacity, and far past every sane bound
    // (would also blow kWireMaxFrameBytes) — both must fail closed.
    ::testing::Values(std::uint64_t{4096 + 1}, std::uint64_t{1} << 40));

TEST(ShmSlotFuzzSuite, CorruptPayloadIsRejectedByTheDecoder)
{
    const std::string name = uniqueShmName("fuzzpayload");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    WireWriter staging;
    {
        FrameScope frame(*a, staging);
        encodeCheckpointRequest(42, frame.writer());
        frame.commit();
    }
    // Flip every byte of the published payload (header included) in
    // place — the slot framing stays intact, so the frame is delivered,
    // and the fail-closed codec must refuse it. Locate the slot by
    // re-encoding the identical frame into a staging writer.
    const std::uint8_t *view = nullptr;
    std::size_t size = 0;
    std::vector<std::uint8_t> scratch;
    WireWriter expect;
    encodeCheckpointRequest(42, expect);
    std::vector<std::uint8_t> needle(expect.data(),
                                     expect.data() + expect.size());
    std::uint8_t *slot = findInRegion(*b, needle);
    ASSERT_TRUE(slot != nullptr);
    for (std::size_t i = 0; i < needle.size(); ++i)
        slot[i] = static_cast<std::uint8_t>(~slot[i]);

    ASSERT_TRUE(b->recvFrameView(view, size, scratch));
    MsgType type;
    EXPECT_FALSE(peekType(view, size, type))
        << "corrupted payload parsed as a valid frame header";
    std::uint64_t seq = 0;
    EXPECT_FALSE(decodeCheckpointRequest(view, size, seq));
    // Unparsable frames land in stats slot 0, the wire-health canary.
    EXPECT_EQ(b->receivedStats().frames[0], 1u);
}

TEST(ShmSlotFuzzSuite, GarbageHeadCounterDegradesToFailureNotCorruption)
{
    const std::string name = uniqueShmName("fuzzhead");
    auto a = ShmChannel::create(name, 4096);
    ASSERT_TRUE(a != nullptr);
    auto b = ShmChannel::attach(name, 2000);
    ASSERT_TRUE(b != nullptr);

    const auto payload = patternPayload(0x33, 48);
    a->sendFrame(payload.data(), payload.size());
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(b->recvFrame(frame));

    // Scribble a stale/absurd value over the first cache lines of the
    // rings region (head/tail/eventcount words live there). Whatever
    // lands, the receive path must stay bounded: either a failed
    // receive (timeout / fail-closed length) or a delivered frame the
    // fail-closed codec rejects — never a hang, crash or wild read.
    std::uint8_t *ringWords = b->rawRegionForTest() + 64;
    for (std::size_t i = 0; i < 256; i += 8) {
        const std::uint64_t garbage = 0xFFFFFFFFFFFF0000ull + i;
        std::memcpy(ringWords + i, &garbage, sizeof(garbage));
    }
    b->setRecvTimeout(100);
    const auto start = std::chrono::steady_clock::now();
    if (b->recvFrame(frame)) {
        MsgType type;
        EXPECT_FALSE(peekType(frame.data(), frame.size(), type) &&
                     frame == payload)
            << "stale ring metadata replayed a frame as if it were new";
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
}

// --------------------------------------------------------------------
// Socket sweep: send-side timeout diagnosis, the zero-timeout clamp,
// and Unix listener double-bind protection.
// --------------------------------------------------------------------

/** A connected Unix-domain pair (listener kept alive by the caller). */
struct SocketPair
{
    std::unique_ptr<SocketListener> listener;
    std::unique_ptr<SocketChannel> client;
    std::unique_ptr<SocketChannel> server;
};

SocketPair
makeUnixPair(const char *tag)
{
    SocketPair pair;
    pair.listener = SocketListener::listenUnix(uniqueSockPath(tag));
    EXPECT_TRUE(pair.listener != nullptr);
    if (!pair.listener)
        return pair;
    // The connect completes against the listen backlog, so a single
    // thread can connect first and accept after.
    pair.client = SocketChannel::connectUnix(pair.listener->path());
    EXPECT_TRUE(pair.client != nullptr);
    pair.server = pair.listener->accept();
    EXPECT_TRUE(pair.server != nullptr);
    return pair;
}

TEST(SocketTimeout, BlockedSendExpiresAndIsDiagnosedAsTimeout)
{
    SocketPair pair = makeUnixPair("sendtimeout");
    ASSERT_TRUE(pair.client && pair.server);

    // Bound sends and receives, then write into a peer that never
    // reads. Once both kernel buffers fill, writeFully() blocks and
    // SO_SNDTIMEO must expire it — before the fix the partial-write
    // loop spun on EAGAIN-less blocking writes forever.
    pair.client->setRecvTimeout(50);
    const auto hunk = patternPayload(0x77, std::size_t{1} << 20);
    for (int i = 0; i < 64 && !pair.client->timedOut(); ++i)
        pair.client->sendFrame(hunk.data(), hunk.size());

    EXPECT_TRUE(pair.client->timedOut())
        << "64 MiB queued against a non-reading peer without the "
           "send bound expiring";
    // The wedged-peer diagnosis must read as a timeout (recovery
    // respawns the worker) and not as an orderly close.
    EXPECT_EQ(shardRecvError(*pair.client, "step", 1, 0).kind,
              ShardError::Kind::RecvTimeout);
    // The channel is broken from then on: receives fail immediately.
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(pair.client->recvFrame(frame));
    EXPECT_TRUE(pair.client->timedOut());
}

TEST(SocketTimeout, ZeroRecvTimeoutMeansBoundedNotForever)
{
    SocketPair pair = makeUnixPair("zerotimeout");
    ASSERT_TRUE(pair.client && pair.server);

    // Before the clamp this armed SO_RCVTIMEO with a zero timeval —
    // which the kernel reads as "no timeout" — and recvFrame() hung
    // forever on a silent peer.
    pair.client->setRecvTimeout(0);
    std::vector<std::uint8_t> frame;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(pair.client->recvFrame(frame));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_TRUE(pair.client->timedOut());
}

TEST(SocketTimeoutDeathTest, ZeroConfiguredRecvTimeoutIsRejected)
{
    // The config-side guard: a deployment asking for an unbounded
    // coordinator recv is a deployment that hangs on its first dead
    // worker, so validate() refuses it outright.
    DncConfig cfg;
    cfg.shardRecvTimeoutMs = 0;
    EXPECT_DEATH(cfg.validate(), "shardRecvTimeoutMs");
}

TEST(UnixListener, SecondListenerOnALivePathIsRefused)
{
    const std::string path = uniqueSockPath("doublebind");
    auto first = SocketListener::listenUnix(path);
    ASSERT_TRUE(first != nullptr);

    // A real client connects first (the backlog is FIFO, so the
    // liveness probe below queues behind it and is never accepted
    // here).
    auto client = SocketChannel::connectUnix(path);
    ASSERT_TRUE(client != nullptr);

    // Before the probe-connect fix this unlinked the live socket file
    // and bound a second listener in its place, silently stealing every
    // future connect from `first`.
    EXPECT_TRUE(SocketListener::listenUnix(path) == nullptr);

    // And the refusal must not have damaged the live listener.
    auto server = first->accept();
    ASSERT_TRUE(server != nullptr);
    const auto payload = patternPayload(8, 64);
    client->sendFrame(payload.data(), payload.size());
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(server->recvFrame(frame));
    EXPECT_TRUE(frame == payload);
}

TEST(UnixListener, TrulyStaleSocketFileIsDisplaced)
{
    // A crashed worker leaves a bound-but-dead socket file behind: the
    // probe connect is refused, so the new listener may take the path.
    const std::string path = uniqueSockPath("stale");
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd); // dead socket, file left behind

    auto listener = SocketListener::listenUnix(path);
    ASSERT_TRUE(listener != nullptr)
        << "stale socket file was not displaced";
    auto client = SocketChannel::connectUnix(path);
    ASSERT_TRUE(client != nullptr);
    EXPECT_TRUE(listener->accept() != nullptr);
}

// --------------------------------------------------------------------
// Traffic accounting across a v3 recovery: the respawn + restore +
// replay sequence must account every frame exactly once on the
// replacement channel — no double counting between the replay log and
// the in-flight resend, and the undisturbed worker's counters must not
// move at all beyond its normal stream.
// --------------------------------------------------------------------

class RecoveryTrafficAccounting
    : public ::testing::TestWithParam<ClusterTransport>
{};

TEST_P(RecoveryTrafficAccounting, ReplayCountsEveryFrameExactlyOnce)
{
    const ClusterTransport transport = GetParam();
    DncConfig cfg;
    cfg.memoryRows = 16;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    cfg.shardCheckpointIntervalSteps = 4;
    const Index tiles = 2;

    LocalShardCluster stack = makeLocalCluster(transport, cfg, tiles, 2);
    ASSERT_TRUE(stack.coordinator != nullptr);
    auto harness = armClusterRecovery(stack, transport);
    DncD ref(cfg, tiles);

    // Worker 0 dies receiving its 6th LaneStep frame: one step past the
    // step-4 checkpoint is logged (step 5), and step 6 itself is the
    // in-flight frame the recovery resends after the replay.
    FaultSpec kill;
    kill.killAtStepFrame = 6;
    stack.workers[0]->injectFault(kill);

    Rng rng(808);
    constexpr int kSteps = 12;
    for (int step = 0; step < kSteps; ++step) {
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        const MemoryReadout a = ref.stepInterface(iface);
        const MemoryReadout b = stack.coordinator->stepInterface(iface);
        for (Index h = 0; h < cfg.readHeads; ++h)
            ASSERT_TRUE(a.readVectors[h] == b.readVectors[h])
                << "diverged at step " << step << " head " << h;
    }
    ASSERT_TRUE(stack.workers[0]->faultFired());
    EXPECT_EQ(stack.coordinator->recoveries(), 1u);
    EXPECT_EQ(stack.coordinator->checkpointsTaken(), 3u); // steps 4, 8, 12

    // channel(0) is the replacement: it saw Rejoin + Restore, the
    // replayed step 5, the resent in-flight step 6, live steps 7-12,
    // and the checkpoint pulls at steps 8 and 12. Exactly that — a
    // frame counted during replay AND again on the resend would show
    // up here as LaneStep > 8.
    const Channel &repl = stack.coordinator->channel(0);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::Hello), 0u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::Rejoin), 1u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::Restore), 1u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::LaneStep), 8u);
    EXPECT_EQ(frames(repl.sentStats(), MsgType::CheckpointRequest), 2u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::HelloAck), 1u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::ControlAck), 1u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::LaneStepReply), 8u);
    EXPECT_EQ(frames(repl.receivedStats(), MsgType::CheckpointState), 2u);
    // Every request produced exactly one reply — the ledger balances.
    EXPECT_EQ(repl.sentStats().totalFrames(),
              repl.receivedStats().totalFrames());

    // channel(1) never died: one Hello, one LaneStep per coordinator step,
    // one checkpoint pull per interval — recovery of its neighbour must
    // not have touched its stream.
    const Channel &calm = stack.coordinator->channel(1);
    EXPECT_EQ(frames(calm.sentStats(), MsgType::Hello), 1u);
    EXPECT_EQ(frames(calm.sentStats(), MsgType::Rejoin), 0u);
    EXPECT_EQ(frames(calm.sentStats(), MsgType::LaneStep),
              static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(frames(calm.sentStats(), MsgType::CheckpointRequest), 3u);
    EXPECT_EQ(frames(calm.receivedStats(), MsgType::LaneStepReply),
              static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(frames(calm.receivedStats(), MsgType::CheckpointState), 3u);
    // No unparsable frames anywhere on a healthy wire.
    EXPECT_EQ(repl.receivedStats().frames[0], 0u);
    EXPECT_EQ(calm.receivedStats().frames[0], 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, RecoveryTrafficAccounting,
                         ::testing::Values(ClusterTransport::Loopback,
                                           ClusterTransport::Shm),
                         [](const auto &info) {
                             return info.param == ClusterTransport::Loopback
                                        ? "Loopback"
                                        : "Shm";
                         });

} // namespace
} // namespace hima
