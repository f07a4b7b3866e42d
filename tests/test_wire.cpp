/**
 * @file
 * Wire-codec tests: every message type round-trips bit-exactly, and
 * every malformed input — truncated at any byte, corrupted header,
 * mismatched counts, trailing garbage, adversarial lengths — is
 * rejected by returning false, never by crashing or allocating from
 * attacker-controlled sizes.
 */

#include <gtest/gtest.h>

#include "golden_util.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "shard/worker.h"

namespace hima {
namespace {

DncConfig
shardCfg()
{
    DncConfig cfg;
    cfg.memoryRows = 16; // per-tile
    cfg.memoryWidth = 12;
    cfg.readHeads = 3;
    return cfg;
}

InterfaceVector
sampleIface(const DncConfig &cfg, std::uint64_t seed)
{
    Rng rng(seed);
    return golden::randomIface(cfg, rng);
}

void
expectIfaceEqual(const InterfaceVector &a, const InterfaceVector &b)
{
    ASSERT_EQ(a.readKeys.size(), b.readKeys.size());
    for (Index h = 0; h < a.readKeys.size(); ++h)
        EXPECT_TRUE(a.readKeys[h] == b.readKeys[h]);
    EXPECT_EQ(a.readStrengths, b.readStrengths);
    EXPECT_TRUE(a.writeKey == b.writeKey);
    EXPECT_EQ(a.writeStrength, b.writeStrength);
    EXPECT_TRUE(a.eraseVector == b.eraseVector);
    EXPECT_TRUE(a.writeVector == b.writeVector);
    EXPECT_EQ(a.freeGates, b.freeGates);
    EXPECT_EQ(a.allocationGate, b.allocationGate);
    EXPECT_EQ(a.writeGate, b.writeGate);
    ASSERT_EQ(a.readModes.size(), b.readModes.size());
    for (Index h = 0; h < a.readModes.size(); ++h) {
        EXPECT_EQ(a.readModes[h].backward, b.readModes[h].backward);
        EXPECT_EQ(a.readModes[h].content, b.readModes[h].content);
        EXPECT_EQ(a.readModes[h].forward, b.readModes[h].forward);
    }
}

// --------------------------------------------------------------------
// Round trips.
// --------------------------------------------------------------------

TEST(Wire, HelloRoundTrip)
{
    DncConfig cfg = shardCfg();
    cfg.fixedPoint = true;
    cfg.skimRate = 0.25;
    cfg.approximateSoftmax = true;
    cfg.softmaxSegments = 12;
    cfg.numThreads = 4;
    const WireConfig sent = WireConfig::fromShard(cfg, 3);

    WireWriter w;
    encodeHello(sent, w);
    WireConfig got;
    ASSERT_TRUE(decodeHello(w.buffer().data(), w.buffer().size(), got));
    EXPECT_EQ(sent, got);

    // The reconstructed DncConfig preserves shapes and datapath mode.
    const DncConfig back = got.toShardConfig();
    EXPECT_EQ(back.memoryRows, cfg.memoryRows);
    EXPECT_EQ(back.memoryWidth, cfg.memoryWidth);
    EXPECT_EQ(back.readHeads, cfg.readHeads);
    EXPECT_EQ(back.fixedPoint, cfg.fixedPoint);
    EXPECT_EQ(back.approximateSoftmax, cfg.approximateSoftmax);
    EXPECT_EQ(back.softmaxSegments, cfg.softmaxSegments);
    EXPECT_EQ(back.skimRate, cfg.skimRate);
    EXPECT_EQ(back.numThreads, cfg.numThreads);
}

TEST(Wire, HelloAckRoundTrip)
{
    HelloAckMsg sent;
    sent.ok = false;
    sent.hostedTiles = 7;
    sent.message = "shape mismatch: W=12 vs 16";
    WireWriter w;
    encodeHelloAck(sent, w);
    HelloAckMsg got;
    ASSERT_TRUE(decodeHelloAck(w.buffer().data(), w.buffer().size(), got));
    EXPECT_EQ(got.ok, sent.ok);
    EXPECT_EQ(got.hostedTiles, sent.hostedTiles);
    EXPECT_EQ(got.message, sent.message);
}

TEST(Wire, PerTileLaneStepRoundTripPreservesEveryRealBitExactly)
{
    const DncConfig cfg = shardCfg();
    const std::vector<InterfaceVector> perTile = {sampleIface(cfg, 1),
                                                  sampleIface(cfg, 2)};
    const InterfaceVector broadcast = sampleIface(cfg, 3);
    // A per-tile entry (learned write sharding) next to a broadcast one.
    const LaneStepEntry entries[] = {{1, 0b101, perTile.data(), 2},
                                     {3, 0b010, &broadcast}};

    WireWriter w;
    encodeLaneStep(0xDEADBEEFCAFEull, true, entries, 2, w);
    LaneStepMsg got;
    ASSERT_TRUE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                               /*lanes=*/4, /*tiles=*/2, got));
    EXPECT_EQ(got.seq, 0xDEADBEEFCAFEull);
    EXPECT_TRUE(got.wantWeightings);
    EXPECT_EQ(got.lanes, (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(got.masks, (std::vector<std::uint32_t>{0b101, 0b010}));
    EXPECT_EQ(got.perTile, (std::vector<std::uint8_t>{1, 0}));
    for (Index t = 0; t < 2; ++t) {
        expectIfaceEqual(perTile[t], got.tileIface(0, t));
        expectIfaceEqual(broadcast, got.tileIface(1, t));
    }
}

TEST(Wire, BroadcastEntryDecodesLikePerTileCopiesButShipsOneInterface)
{
    const DncConfig cfg = shardCfg();
    const InterfaceVector iface = sampleIface(cfg, 5);
    const std::vector<InterfaceVector> copies(3, iface);
    const LaneStepEntry broadcast[] = {{0, 0b11, &iface}};
    const LaneStepEntry perTile[] = {{0, 0b11, copies.data(), 3}};

    WireWriter a, b;
    encodeLaneStep(9, false, broadcast, 1, a);
    encodeLaneStep(9, false, perTile, 1, b);
    // The broadcast entry carries the interface once...
    EXPECT_LT(a.buffer().size(), b.buffer().size() / 2);

    // ...but every tile decodes to the identical interface.
    LaneStepMsg fromBroadcast, fromPerTile;
    ASSERT_TRUE(decodeLaneStep(a.buffer().data(), a.buffer().size(), cfg, 1,
                               3, fromBroadcast));
    ASSERT_TRUE(decodeLaneStep(b.buffer().data(), b.buffer().size(), cfg, 1,
                               3, fromPerTile));
    EXPECT_EQ(fromBroadcast.seq, fromPerTile.seq);
    EXPECT_EQ(fromBroadcast.masks, fromPerTile.masks);
    for (Index t = 0; t < 3; ++t)
        expectIfaceEqual(fromBroadcast.tileIface(0, t),
                         fromPerTile.tileIface(0, t));
}

TEST(Wire, LaneStepReplyWithWeightingsRoundTrip)
{
    const DncConfig cfg = shardCfg();
    const Index r = cfg.readHeads;
    const std::uint32_t lanes[] = {0};
    Rng rng(11);
    std::vector<MemoryReadout> tiles(2);
    std::vector<Real> confidence;
    for (MemoryReadout &t : tiles) {
        for (Index h = 0; h < r; ++h) {
            t.readVectors.push_back(rng.normalVector(cfg.memoryWidth));
            t.readWeightings.push_back(rng.uniformVector(cfg.memoryRows));
        }
        t.writeWeighting = rng.uniformVector(cfg.memoryRows);
    }
    for (Index i = 0; i < 2 * r; ++i)
        confidence.push_back(rng.normal());

    WireWriter w;
    encodeLaneStepReply(42, true, lanes, 1, 2, tiles, confidence, cfg, w);
    LaneStepReplyMsg got;
    ASSERT_TRUE(decodeLaneStepReply(w.buffer().data(), w.buffer().size(),
                                    cfg, 2, /*maxLanes=*/1, got));
    EXPECT_EQ(got.seq, 42u);
    EXPECT_TRUE(got.hasWeightings);
    ASSERT_EQ(got.tiles.size(), 2u);
    EXPECT_EQ(got.confidence, confidence);
    for (Index t = 0; t < 2; ++t) {
        for (Index h = 0; h < r; ++h) {
            EXPECT_TRUE(got.tiles[t].readVectors[h] ==
                        tiles[t].readVectors[h]);
            EXPECT_TRUE(got.tiles[t].readWeightings[h] ==
                        tiles[t].readWeightings[h]);
        }
        EXPECT_TRUE(got.tiles[t].writeWeighting ==
                    tiles[t].writeWeighting);
    }
}

TEST(Wire, LaneStepReplyWithoutWeightingsOmitsThem)
{
    const DncConfig cfg = shardCfg();
    const Index r = cfg.readHeads;
    const std::uint32_t lanes[] = {0};
    Rng rng(13);
    std::vector<MemoryReadout> tiles(1);
    for (Index h = 0; h < r; ++h) {
        tiles[0].readVectors.push_back(rng.normalVector(cfg.memoryWidth));
        tiles[0].readWeightings.push_back(rng.uniformVector(cfg.memoryRows));
    }
    tiles[0].writeWeighting = rng.uniformVector(cfg.memoryRows);
    const std::vector<Real> confidence(r, 0.5);

    WireWriter lean, full;
    encodeLaneStepReply(1, false, lanes, 1, 1, tiles, confidence, cfg, lean);
    encodeLaneStepReply(1, true, lanes, 1, 1, tiles, confidence, cfg, full);
    EXPECT_LT(lean.buffer().size(), full.buffer().size());

    LaneStepReplyMsg got;
    ASSERT_TRUE(decodeLaneStepReply(lean.buffer().data(),
                                    lean.buffer().size(), cfg, 1, 1, got));
    EXPECT_FALSE(got.hasWeightings);
    EXPECT_TRUE(got.tiles[0].readWeightings.empty());
}

TEST(Wire, ControlAndAckRoundTrip)
{
    WireWriter w;
    ControlMsg sent;
    sent.kind = ControlKind::Admit;
    sent.seq = 17;
    encodeControl(sent, w);
    ControlMsg got;
    got.lane = 0;
    ASSERT_TRUE(decodeControl(w.buffer().data(), w.buffer().size(), got));
    EXPECT_EQ(got.kind, ControlKind::Admit);
    EXPECT_EQ(got.seq, 17u);
    EXPECT_EQ(got.lane, kAllLanes) << "default control targets every lane";

    sent.lane = 5; // per-lane admit (pipelined serving)
    encodeControl(sent, w);
    ASSERT_TRUE(decodeControl(w.buffer().data(), w.buffer().size(), got));
    EXPECT_EQ(got.lane, 5u);

    encodeControlAck(17, w);
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeControlAck(w.buffer().data(), w.buffer().size(), seq));
    EXPECT_EQ(seq, 17u);
}

// --------------------------------------------------------------------
// Lane-batched frames (the pipelined serving path).
// --------------------------------------------------------------------

TEST(Wire, LaneStepRoundTripPreservesEveryLane)
{
    const DncConfig cfg = shardCfg();
    const InterfaceVector a = sampleIface(cfg, 21);
    const InterfaceVector b = sampleIface(cfg, 22);
    const InterfaceVector c = sampleIface(cfg, 23);
    const LaneStepEntry entries[] = {
        {0, 0b001, &a}, {2, 0b111, &b}, {5, 0b000, &c}};

    WireWriter w;
    encodeLaneStep(0xFEEDu, true, entries, 3, w);
    LaneStepMsg got;
    ASSERT_TRUE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                               /*lanes=*/6, /*tiles=*/2, got));
    EXPECT_EQ(got.seq, 0xFEEDu);
    EXPECT_TRUE(got.wantWeightings);
    ASSERT_EQ(got.lanes.size(), 3u);
    EXPECT_EQ(got.lanes, (std::vector<std::uint32_t>{0, 2, 5}));
    EXPECT_EQ(got.masks, (std::vector<std::uint32_t>{0b001, 0b111, 0b000}));
    expectIfaceEqual(a, got.tileIface(0, 1));
    expectIfaceEqual(b, got.tileIface(1, 1));
    expectIfaceEqual(c, got.tileIface(2, 1));
}

TEST(Wire, LaneStepRejectsBadLaneLists)
{
    const DncConfig cfg = shardCfg();
    const InterfaceVector iface = sampleIface(cfg, 31);
    LaneStepMsg out;

    // Lane id beyond the handshake's lane count.
    const LaneStepEntry outOfRange[] = {{7, 0, &iface}};
    WireWriter w;
    encodeLaneStep(1, false, outOfRange, 1, w);
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                                /*lanes=*/4, /*tiles=*/2, out));

    // Duplicate lane (would race on that lane's tiles).
    const LaneStepEntry dup[] = {{1, 0, &iface}, {1, 0, &iface}};
    encodeLaneStep(2, false, dup, 2, w);
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                                4, 2, out));

    // Descending order.
    const LaneStepEntry desc[] = {{3, 0, &iface}, {1, 0, &iface}};
    encodeLaneStep(3, false, desc, 2, w);
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                                4, 2, out));

    // More lanes than hosted.
    const LaneStepEntry wide[] = {
        {0, 0, &iface}, {1, 0, &iface}, {2, 0, &iface}};
    encodeLaneStep(4, false, wide, 3, w);
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                                2, 2, out));

    // Zero lanes.
    encodeLaneStep(5, false, wide, 0, w);
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg,
                                4, 2, out));
}

TEST(Wire, LaneStepReplyRoundTrip)
{
    const DncConfig cfg = shardCfg();
    const Index r = cfg.readHeads;
    const Index hosted = 2;
    const std::uint32_t lanes[] = {1, 4};
    Rng rng(17);
    std::vector<MemoryReadout> readouts(2 * hosted);
    std::vector<Real> confidence;
    for (MemoryReadout &t : readouts)
        for (Index h = 0; h < r; ++h)
            t.readVectors.push_back(rng.normalVector(cfg.memoryWidth));
    for (Index i = 0; i < 2 * hosted * r; ++i)
        confidence.push_back(rng.normal());

    WireWriter w;
    encodeLaneStepReply(99, false, lanes, 2, hosted, readouts, confidence,
                        cfg, w);
    LaneStepReplyMsg got;
    ASSERT_TRUE(decodeLaneStepReply(w.buffer().data(), w.buffer().size(),
                                    cfg, hosted, /*maxLanes=*/2, got));
    EXPECT_EQ(got.seq, 99u);
    EXPECT_FALSE(got.hasWeightings);
    EXPECT_EQ(got.lanes, (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(got.confidence, confidence);
    ASSERT_EQ(got.tiles.size(), readouts.size());
    for (Index s = 0; s < readouts.size(); ++s)
        for (Index h = 0; h < r; ++h)
            EXPECT_TRUE(got.tiles[s].readVectors[h] ==
                        readouts[s].readVectors[h]);

    // A reply naming more lanes than the coordinator scattered fails.
    EXPECT_FALSE(decodeLaneStepReply(w.buffer().data(), w.buffer().size(),
                                     cfg, hosted, /*maxLanes=*/1, got));
}

TEST(WireMalformed, LaneStepTruncationAtEveryByteIsRejected)
{
    const DncConfig cfg = shardCfg();
    const InterfaceVector a = sampleIface(cfg, 41);
    const InterfaceVector b = sampleIface(cfg, 42);
    const LaneStepEntry entries[] = {{0, 0b11, &a}, {3, 0b01, &b}};
    WireWriter w;
    encodeLaneStep(12, false, entries, 2, w);

    LaneStepMsg out;
    for (std::size_t len = 0; len < w.buffer().size(); ++len)
        EXPECT_FALSE(decodeLaneStep(w.buffer().data(), len, cfg, 4, 2, out))
            << "truncated LaneStep of " << len << " bytes decoded";

    // Trailing garbage after a well-formed frame is rejected too.
    std::vector<std::uint8_t> frame = w.buffer();
    frame.push_back(0xAB);
    EXPECT_FALSE(decodeLaneStep(frame.data(), frame.size(), cfg, 4, 2, out));
}

TEST(WireMalformed, LaneStepReplyTruncationAtEveryByteIsRejected)
{
    const DncConfig cfg = shardCfg();
    const Index r = cfg.readHeads;
    const Index hosted = 1;
    const std::uint32_t lanes[] = {0, 2};
    Rng rng(43);
    std::vector<MemoryReadout> readouts(2);
    for (MemoryReadout &t : readouts)
        for (Index h = 0; h < r; ++h)
            t.readVectors.push_back(rng.normalVector(cfg.memoryWidth));
    const std::vector<Real> confidence(2 * r, 0.25);
    WireWriter w;
    encodeLaneStepReply(13, false, lanes, 2, hosted, readouts, confidence,
                        cfg, w);

    LaneStepReplyMsg out;
    for (std::size_t len = 0; len < w.buffer().size(); ++len)
        EXPECT_FALSE(decodeLaneStepReply(w.buffer().data(), len, cfg,
                                         hosted, 2, out))
            << "truncated LaneStepReply of " << len << " bytes decoded";
}

TEST(WireMalformed, LaneStepAdversarialCountsDoNotAllocate)
{
    // A hand-built LaneStep declaring 4 billion lanes must bounce on
    // the lane-count check before any resize.
    WireWriter w;
    w.clear();
    w.header(MsgType::LaneStep);
    w.putU64(1);          // seq
    w.putU8(0);           // wantWeightings
    w.putU32(0xFFFFFFFF); // laneCount — absurd
    LaneStepMsg out;
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(),
                                shardCfg(), 8, 2, out));

    // Same for a per-tile entry declaring 4 billion interfaces: the
    // count must equal the handshake's Nt before anything resizes.
    w.clear();
    w.header(MsgType::LaneStep);
    w.putU64(1);
    w.putU8(0);
    w.putU32(1);          // one lane entry
    w.putU32(0);          // lane
    w.putU32(0);          // scoredMask
    w.putU8(1);           // per-tile
    w.putU32(0xFFFFFFFF); // interface count — absurd
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(),
                                shardCfg(), 8, 2, out));
}

TEST(WireMalformed, PerTileLaneStepTruncationAtEveryByteIsRejected)
{
    const DncConfig cfg = shardCfg();
    const std::vector<InterfaceVector> perTile = {sampleIface(cfg, 44),
                                                  sampleIface(cfg, 45)};
    const LaneStepEntry entries[] = {{0, 0b11, perTile.data(), 2}};
    WireWriter w;
    encodeLaneStep(14, true, entries, 1, w);

    LaneStepMsg out;
    ASSERT_TRUE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg, 1,
                               2, out));
    for (std::size_t len = 0; len < w.buffer().size(); ++len)
        EXPECT_FALSE(decodeLaneStep(w.buffer().data(), len, cfg, 1, 2, out))
            << "truncated per-tile LaneStep of " << len << " bytes decoded";
}

TEST(WireMalformed, PerTileLaneStepFlagAndCountAreValidated)
{
    const DncConfig cfg = shardCfg();
    const std::vector<InterfaceVector> perTile = {sampleIface(cfg, 46),
                                                  sampleIface(cfg, 47)};
    const LaneStepEntry entries[] = {{0, 0b1, perTile.data(), 2}};
    WireWriter w;
    encodeLaneStep(15, false, entries, 1, w);
    // Header 4, seq 8, wantWeightings 1, lane count 4, lane 4, mask 4:
    // the per-tile flag byte sits at offset 25, the count right after.
    constexpr std::size_t kFlag = 25;
    std::vector<std::uint8_t> frame = w.buffer();
    ASSERT_EQ(frame[kFlag], 1u);
    LaneStepMsg out;
    ASSERT_TRUE(decodeLaneStep(frame.data(), frame.size(), cfg, 1, 2, out));

    // A flag byte other than 0 or 1 is rejected.
    for (std::uint8_t flag : {2, 0x80, 0xFF}) {
        frame[kFlag] = flag;
        EXPECT_FALSE(decodeLaneStep(frame.data(), frame.size(), cfg, 1, 2,
                                    out))
            << "per-tile flag " << static_cast<int>(flag) << " decoded";
    }

    // A per-tile count that differs from the handshake's Nt is rejected,
    // whether the frame's own count is off or the receiver's Nt is.
    frame = w.buffer();
    EXPECT_FALSE(decodeLaneStep(frame.data(), frame.size(), cfg, 1, 3, out));
    EXPECT_FALSE(decodeLaneStep(frame.data(), frame.size(), cfg, 1, 1, out));
    frame[kFlag + 1] = 1; // count u32 little-endian: 2 -> 1
    EXPECT_FALSE(decodeLaneStep(frame.data(), frame.size(), cfg, 1, 2, out));
}

TEST(Wire, ErrorRoundTripAndPeek)
{
    WireWriter w;
    encodeError("tile exploded", w);
    MsgType type;
    ASSERT_TRUE(peekType(w.buffer().data(), w.buffer().size(), type));
    EXPECT_EQ(type, MsgType::Error);
    ErrorMsg msg;
    ASSERT_TRUE(decodeError(w.buffer().data(), w.buffer().size(), msg));
    EXPECT_EQ(msg.message, "tile exploded");

    encodeShutdown(w);
    ASSERT_TRUE(peekType(w.buffer().data(), w.buffer().size(), type));
    EXPECT_EQ(type, MsgType::Shutdown);
}

// --------------------------------------------------------------------
// Malformed frames.
// --------------------------------------------------------------------

TEST(WireMalformed, HeaderCorruptionIsRejected)
{
    WireWriter w;
    encodeControlAck(5, w);
    std::vector<std::uint8_t> frame = w.buffer();
    std::uint64_t seq;

    frame[0] ^= 0xFF; // magic
    EXPECT_FALSE(decodeControlAck(frame.data(), frame.size(), seq));
    frame[0] ^= 0xFF;

    frame[2] += 1; // version
    EXPECT_FALSE(decodeControlAck(frame.data(), frame.size(), seq));
    frame[2] -= 1;

    frame[3] = static_cast<std::uint8_t>(MsgType::Error); // type
    EXPECT_FALSE(decodeControlAck(frame.data(), frame.size(), seq));

    MsgType type;
    frame[3] = 200; // unknown type
    EXPECT_FALSE(peekType(frame.data(), frame.size(), type));
}

TEST(WireMalformed, WrongShapesAreRejected)
{
    const DncConfig cfg = shardCfg();
    const InterfaceVector iface = sampleIface(cfg, 9);
    const LaneStepEntry entries[] = {{0, 0, &iface}};
    WireWriter w;
    encodeLaneStep(1, false, entries, 1, w);

    LaneStepMsg out;
    ASSERT_TRUE(decodeLaneStep(w.buffer().data(), w.buffer().size(), cfg, 1,
                               1, out));
    // Shape mismatch: the receiver expects a wider W.
    DncConfig wide = cfg;
    wide.memoryWidth = cfg.memoryWidth + 4;
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), wide,
                                1, 1, out));
    // Head-count mismatch.
    DncConfig heads = cfg;
    heads.readHeads = cfg.readHeads + 1;
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(), heads,
                                1, 1, out));
}

TEST(WireMalformed, TrailingGarbageIsRejected)
{
    WireWriter w;
    encodeControlAck(5, w);
    std::vector<std::uint8_t> frame = w.buffer();
    frame.push_back(0x00);
    std::uint64_t seq;
    EXPECT_FALSE(decodeControlAck(frame.data(), frame.size(), seq));
}

TEST(WireMalformed, AdversarialCountsDoNotAllocate)
{
    // A hand-built LaneStep declaring 4 billion read keys: the decoder
    // must reject on the count check, not resize first.
    WireWriter w;
    w.header(MsgType::LaneStep);
    w.putU64(1);          // seq
    w.putU8(0);           // wantWeightings
    w.putU32(1);          // one lane entry
    w.putU32(0);          // lane
    w.putU32(0);          // scoredMask
    w.putU8(0);           // broadcast
    w.putU32(0xFFFFFFFF); // readKeys count — absurd
    LaneStepMsg out;
    EXPECT_FALSE(decodeLaneStep(w.buffer().data(), w.buffer().size(),
                                shardCfg(), 1, 1, out));

    // Same for a vector length beyond the remaining bytes.
    WireWriter v;
    v.header(MsgType::LaneStepReply);
    v.putU64(1);
    v.putU8(0);
    v.putU32(1);          // one lane
    v.putU32(0);          // lane id
    v.putU32(0x40000000); // first read vector claims 2^30 reals
    LaneStepReplyMsg reply;
    EXPECT_FALSE(decodeLaneStepReply(v.buffer().data(), v.buffer().size(),
                                     shardCfg(), 1, 1, reply));
}

// --------------------------------------------------------------------
// Fault-tolerance frames (wire v3): checkpoint pull/push, Rejoin.
// --------------------------------------------------------------------

TEST(Wire, CheckpointRequestAndRejoinRoundTrip)
{
    WireWriter w;
    encodeCheckpointRequest(77, w);
    MsgType type;
    ASSERT_TRUE(peekType(w.buffer().data(), w.buffer().size(), type));
    EXPECT_EQ(type, MsgType::CheckpointRequest);
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeCheckpointRequest(w.buffer().data(),
                                        w.buffer().size(), seq));
    EXPECT_EQ(seq, 77u);

    DncConfig cfg = shardCfg();
    cfg.fixedPoint = true;
    WireConfig sent = WireConfig::fromShard(cfg, 3, /*lanes=*/2);
    sent.tiles = 8;
    sent.firstTile = 5;
    encodeRejoin(sent, w);
    WireConfig got;
    ASSERT_TRUE(decodeRejoin(w.buffer().data(), w.buffer().size(), got));
    EXPECT_EQ(got, sent);
    EXPECT_EQ(got.tiles, 8u);
    EXPECT_EQ(got.firstTile, 5u);
}

TEST(Wire, CheckpointStateRestoresABitExactReplica)
{
    // The full cycle a recovery performs: run live tiles, pull their
    // state over the wire, push it into fresh units, then drive both
    // with the same interface stream — every subsequent readout must
    // match bit for bit.
    const DncConfig cfg = shardCfg();
    const Index count = 2;
    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    std::vector<std::unique_ptr<MemoryUnit>> replicas;
    for (Index t = 0; t < count; ++t) {
        tiles.push_back(std::make_unique<MemoryUnit>(cfg));
        replicas.push_back(std::make_unique<MemoryUnit>(cfg));
    }
    Rng rng(51);
    MemoryReadout scratch;
    for (int step = 0; step < 5; ++step)
        for (auto &tile : tiles)
            tile->stepInto(golden::randomIface(cfg, rng), scratch);

    WireWriter w;
    encodeCheckpointState(33, tiles, cfg, w);
    std::vector<MemoryTileState> snapshots(count);
    std::vector<MemoryTileState *> slots = {&snapshots[0], &snapshots[1]};
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeCheckpointState(w.buffer().data(), w.buffer().size(),
                                      cfg, slots.data(), count, seq));
    EXPECT_EQ(seq, 33u);

    MemoryTileState want, got;
    for (Index t = 0; t < count; ++t) {
        replicas[t]->restoreState(snapshots[t]);
        tiles[t]->captureState(want);
        replicas[t]->captureState(got);
        EXPECT_TRUE(want.memory == got.memory);
        EXPECT_TRUE(want.rowNorms == got.rowNorms);
        EXPECT_TRUE(want.usage == got.usage);
        EXPECT_TRUE(want.linkage == got.linkage);
        EXPECT_TRUE(want.precedence == got.precedence);
        EXPECT_TRUE(want.writeWeighting == got.writeWeighting);
        ASSERT_EQ(want.readWeightings.size(), got.readWeightings.size());
        for (Index h = 0; h < want.readWeightings.size(); ++h)
            EXPECT_TRUE(want.readWeightings[h] == got.readWeightings[h]);
    }

    MemoryReadout a, b;
    for (int step = 0; step < 4; ++step)
        for (Index t = 0; t < count; ++t) {
            const InterfaceVector iface = golden::randomIface(cfg, rng);
            tiles[t]->stepInto(iface, a);
            replicas[t]->stepInto(iface, b);
            ASSERT_EQ(a.readVectors.size(), b.readVectors.size());
            for (Index h = 0; h < a.readVectors.size(); ++h)
                EXPECT_TRUE(a.readVectors[h] == b.readVectors[h])
                    << "tile " << t << " head " << h << " diverged after "
                       "restore at step "
                    << step;
        }
}

TEST(Wire, RestoreRoundTripCarriesSnapshotsBitExactly)
{
    const DncConfig cfg = shardCfg();
    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    Rng rng(52);
    MemoryReadout scratch;
    for (int step = 0; step < 3; ++step)
        tiles[0]->stepInto(golden::randomIface(cfg, rng), scratch);
    MemoryTileState sent;
    tiles[0]->captureState(sent);
    const MemoryTileState *sendSlots[] = {&sent};

    WireWriter w;
    encodeRestore(21, sendSlots, 1, cfg, w);
    MsgType type;
    ASSERT_TRUE(peekType(w.buffer().data(), w.buffer().size(), type));
    EXPECT_EQ(type, MsgType::Restore);

    MemoryTileState got;
    MemoryTileState *recvSlots[] = {&got};
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeRestore(w.buffer().data(), w.buffer().size(), cfg,
                              recvSlots, 1, seq));
    EXPECT_EQ(seq, 21u);
    EXPECT_TRUE(got.memory == sent.memory);
    EXPECT_TRUE(got.rowNorms == sent.rowNorms);
    EXPECT_TRUE(got.usage == sent.usage);
    EXPECT_TRUE(got.linkage == sent.linkage);
    EXPECT_TRUE(got.precedence == sent.precedence);
    EXPECT_TRUE(got.writeWeighting == sent.writeWeighting);
    ASSERT_EQ(got.readWeightings.size(), sent.readWeightings.size());
    for (Index h = 0; h < sent.readWeightings.size(); ++h)
        EXPECT_TRUE(got.readWeightings[h] == sent.readWeightings[h]);
}

TEST(WireMalformed, CheckpointFrameTruncationAtEveryByteIsRejected)
{
    const DncConfig cfg = shardCfg();
    std::uint64_t seq = 0;

    WireWriter req;
    encodeCheckpointRequest(3, req);
    for (std::size_t len = 0; len < req.buffer().size(); ++len)
        EXPECT_FALSE(decodeCheckpointRequest(req.buffer().data(), len, seq))
            << "truncated CheckpointRequest of " << len << " bytes decoded";

    WireWriter rejoin;
    encodeRejoin(WireConfig::fromShard(cfg, 2), rejoin);
    WireConfig outCfg;
    for (std::size_t len = 0; len < rejoin.buffer().size(); ++len)
        EXPECT_FALSE(decodeRejoin(rejoin.buffer().data(), len, outCfg))
            << "truncated Rejoin of " << len << " bytes decoded";

    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    MemoryTileState snapshot;
    MemoryTileState *slots[] = {&snapshot};
    WireWriter state;
    encodeCheckpointState(4, tiles, cfg, state);
    for (std::size_t len = 0; len < state.buffer().size(); ++len)
        EXPECT_FALSE(decodeCheckpointState(state.buffer().data(), len, cfg,
                                           slots, 1, seq))
            << "truncated CheckpointState of " << len << " bytes decoded";

    tiles[0]->captureState(snapshot);
    const MemoryTileState *sendSlots[] = {&snapshot};
    MemoryTileState back;
    MemoryTileState *recvSlots[] = {&back};
    WireWriter restore;
    encodeRestore(5, sendSlots, 1, cfg, restore);
    for (std::size_t len = 0; len < restore.buffer().size(); ++len)
        EXPECT_FALSE(decodeRestore(restore.buffer().data(), len, cfg,
                                   recvSlots, 1, seq))
            << "truncated Restore of " << len << " bytes decoded";

    // Trailing garbage after well-formed frames is rejected too.
    std::vector<std::uint8_t> frame = state.buffer();
    frame.push_back(0xCD);
    EXPECT_FALSE(decodeCheckpointState(frame.data(), frame.size(), cfg,
                                       slots, 1, seq));
    frame = restore.buffer();
    frame.push_back(0xCD);
    EXPECT_FALSE(
        decodeRestore(frame.data(), frame.size(), cfg, recvSlots, 1, seq));
}

TEST(WireMalformed, CheckpointCountAndShapeMismatchesAreRejected)
{
    const DncConfig cfg = shardCfg();
    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    WireWriter w;
    encodeCheckpointState(6, tiles, cfg, w);

    std::vector<MemoryTileState> snapshots(2);
    std::vector<MemoryTileState *> slots = {&snapshots[0], &snapshots[1]};
    std::uint64_t seq = 0;
    // Tile-count mismatch: the frame carries 2 snapshots, not 1.
    EXPECT_FALSE(decodeCheckpointState(w.buffer().data(), w.buffer().size(),
                                       cfg, slots.data(), 1, seq));
    // Shape mismatch: a wider W changes every field length.
    DncConfig wide = cfg;
    wide.memoryWidth = cfg.memoryWidth + 4;
    EXPECT_FALSE(decodeCheckpointState(w.buffer().data(), w.buffer().size(),
                                       wide, slots.data(), 2, seq));
}

TEST(WireVersionSkew, V2PeerIsRejectedAtEveryDecoder)
{
    // A v2 peer's frames carry version byte 2 at offset 2: every v3
    // decoder (and peekType itself) must fail closed, so a mixed-version
    // fleet dies at the handshake instead of misreading state frames.
    const DncConfig cfg = shardCfg();
    WireWriter w;
    encodeHello(WireConfig::fromShard(cfg, 2), w);
    std::vector<std::uint8_t> frame = w.buffer();
    ASSERT_EQ(frame[2], kWireVersion);
    frame[2] = 2;

    MsgType type;
    EXPECT_FALSE(peekType(frame.data(), frame.size(), type));
    WireConfig got;
    EXPECT_FALSE(decodeHello(frame.data(), frame.size(), got));

    encodeRejoin(WireConfig::fromShard(cfg, 2), w);
    frame = w.buffer();
    frame[2] = 2;
    EXPECT_FALSE(decodeRejoin(frame.data(), frame.size(), got));

    std::uint64_t seq = 0;
    encodeCheckpointRequest(9, w);
    frame = w.buffer();
    frame[2] = 2;
    EXPECT_FALSE(decodeCheckpointRequest(frame.data(), frame.size(), seq));
}

TEST(WireVersionSkew, V6PeerIsRejectedAtTheHandshakeAndStepFrames)
{
    // v7 changed the handshake body and the LaneStep entry layout, and
    // v8 and v9 the handshake body and the checkpoint tile body, so a
    // v6, v7 or v8 peer must fail closed at peekType and at every
    // decoder that would otherwise misread its frames.
    ASSERT_EQ(kWireVersion, 9u);
    const DncConfig cfg = shardCfg();
    const InterfaceVector iface = sampleIface(cfg, 61);
    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    for (const std::uint8_t version :
         {std::uint8_t(6), std::uint8_t(7), std::uint8_t(8)}) {
        SCOPED_TRACE(::testing::Message() << "peer v" << int(version));
        WireWriter w;
        encodeHello(WireConfig::fromShard(cfg, 2), w);
        std::vector<std::uint8_t> frame = w.buffer();
        frame[2] = version;
        MsgType type;
        EXPECT_FALSE(peekType(frame.data(), frame.size(), type));
        WireConfig got;
        EXPECT_FALSE(decodeHello(frame.data(), frame.size(), got));

        const LaneStepEntry entries[] = {{0, 0b1, &iface}};
        encodeLaneStep(1, false, entries, 1, w);
        frame = w.buffer();
        frame[2] = version;
        LaneStepMsg step;
        EXPECT_FALSE(peekType(frame.data(), frame.size(), type));
        EXPECT_FALSE(
            decodeLaneStep(frame.data(), frame.size(), cfg, 1, 2, step));

        const std::uint32_t lanes[] = {0};
        std::vector<MemoryReadout> readouts(1);
        readouts[0].readVectors.assign(cfg.readHeads,
                                       Vector(cfg.memoryWidth));
        const std::vector<Real> confidence(cfg.readHeads, 0.0);
        encodeLaneStepReply(1, false, lanes, 1, 1, readouts, confidence,
                            cfg, w);
        frame = w.buffer();
        frame[2] = version;
        LaneStepReplyMsg reply;
        EXPECT_FALSE(
            decodeLaneStepReply(frame.data(), frame.size(), cfg, 1, 1, reply));

        encodeCheckpointState(2, tiles, cfg, w);
        frame = w.buffer();
        frame[2] = version;
        MemoryTileState snap;
        MemoryTileState *slots[] = {&snap};
        std::uint64_t seq = 0;
        EXPECT_FALSE(peekType(frame.data(), frame.size(), type));
        EXPECT_FALSE(decodeCheckpointState(frame.data(), frame.size(), cfg,
                                           slots, 1, seq));
    }
}

// --------------------------------------------------------------------
// Loopback framing.
// --------------------------------------------------------------------

TEST(Transport, LoopbackDeliversInOrderAndCountsBytes)
{
    // Echo service: every frame comes straight back.
    LoopbackChannel chan(
        [](const std::uint8_t *data, std::size_t size, FrameSink &reply) {
            reply.sendFrame(data, size);
        });

    const std::vector<std::uint8_t> a = {1, 2, 3};
    const std::vector<std::uint8_t> b = {9, 8};
    chan.sendFrame(a.data(), a.size());
    chan.sendFrame(b.data(), b.size());
    EXPECT_EQ(chan.bytesSent(), 5u);
    EXPECT_EQ(chan.bytesReceived(), 5u);

    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(chan.recvFrame(frame));
    EXPECT_EQ(frame, a);
    ASSERT_TRUE(chan.recvFrame(frame));
    EXPECT_EQ(frame, b);
    EXPECT_FALSE(chan.recvFrame(frame)) << "empty inbox must report false";

    // Per-type stats classified the garbage as slot 0 (unparseable).
    EXPECT_EQ(chan.sentStats().totalFrames(), 2u);
    EXPECT_EQ(chan.sentStats().frames[0], 2u);
    EXPECT_EQ(chan.receivedStats().bytes[0], 5u);
}

// --------------------------------------------------------------------
// LoopbackChannel inbox-ring reuse across a worker's serving life:
// multiple outstanding LaneSteps, Admit controls mid-stream, back-to-back
// episodes on the same channel — the reply ring must hand frames back
// in order through every transition.
// --------------------------------------------------------------------

TEST(Transport, LoopbackInboxRingSurvivesEpisodesAndOutstandingSteps)
{
    DncConfig cfg = shardCfg();
    auto worker = std::make_shared<ShardWorker>();
    LoopbackChannel chan(
        [worker](const std::uint8_t *data, std::size_t size,
                 FrameSink &reply) { worker->handleFrame(data, size, reply); });

    const Index hosted = 2;
    WireWriter w;
    encodeHello(WireConfig::fromShard(cfg, hosted, /*lanes=*/1), w);
    chan.sendFrame(w.buffer().data(), w.buffer().size());
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(chan.recvFrame(frame));
    HelloAckMsg ack;
    ASSERT_TRUE(decodeHelloAck(frame.data(), frame.size(), ack));
    ASSERT_TRUE(ack.ok);

    Rng rng(3);
    const InterfaceVector iface = golden::randomIface(cfg, rng);
    std::uint64_t seq = 0;
    std::uint64_t controlSeq = 0;

    for (int episode = 0; episode < 3; ++episode) {
        // Admit mid-stream: episodes ride the same channel back to
        // back, exercising ring reuse across control frames.
        ControlMsg admit;
        admit.kind = ControlKind::Admit;
        admit.seq = ++controlSeq;
        encodeControl(admit, w);
        chan.sendFrame(w.buffer().data(), w.buffer().size());
        ASSERT_TRUE(chan.recvFrame(frame));
        std::uint64_t ackSeq = 0;
        ASSERT_TRUE(decodeControlAck(frame.data(), frame.size(), ackSeq));
        EXPECT_EQ(ackSeq, admit.seq);

        // Three LaneSteps queued before any reply is popped: the inbox ring
        // must hold multiple outstanding replies and deliver them in
        // send order with the matching sequence ids.
        const std::uint64_t firstSeq = seq + 1;
        const LaneStepEntry entry[] = {{0, 0b1, &iface}};
        for (int burst = 0; burst < 3; ++burst) {
            encodeLaneStep(++seq, false, entry, 1, w);
            chan.sendFrame(w.buffer().data(), w.buffer().size());
        }
        for (int burst = 0; burst < 3; ++burst) {
            ASSERT_TRUE(chan.recvFrame(frame));
            LaneStepReplyMsg reply;
            ASSERT_TRUE(decodeLaneStepReply(frame.data(), frame.size(), cfg,
                                            hosted, 1, reply));
            EXPECT_EQ(reply.seq, firstSeq + burst)
                << "episode " << episode << " reply out of order";
        }
        EXPECT_FALSE(chan.recvFrame(frame)) << "ring drained";
    }
    EXPECT_EQ(worker->episodesServed(), 3u);
    EXPECT_EQ(worker->stepsServed(), 9u);

    // The channel classified traffic per message type.
    EXPECT_EQ(chan.sentStats()
                  .frames[static_cast<std::size_t>(MsgType::LaneStep)],
              9u);
    EXPECT_EQ(chan.receivedStats()
                  .frames[static_cast<std::size_t>(MsgType::LaneStepReply)],
              9u);
    EXPECT_EQ(chan.sentStats()
                  .frames[static_cast<std::size_t>(MsgType::Control)],
              3u);
}

// --------------------------------------------------------------------
// Row-sparse checkpoint tile bodies.
//
// Frame byte offsets used below (no transport length prefix in the
// writer buffer): header 4 (magic u16, version u8, type u8), seq u64 at
// 4, tile count u32 at 12, shape echo N/W/R u32s at 16/20/24, first
// tile body at 28: [u32 memRows][(u32 row, Real x W)...][u32 linkRows]...
// --------------------------------------------------------------------

/** One allocation-gated one-hot write (touches exactly one fresh slot). */
InterfaceVector
allocIface(const DncConfig &cfg, std::uint64_t seed)
{
    InterfaceVector iface = sampleIface(cfg, seed);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    return iface;
}

constexpr std::size_t kFirstTileOffset = 28;

/** Rows of an n x width block holding a nonzero entry. */
std::size_t
nonzeroRows(const Vector &flat, Index n, Index width)
{
    std::size_t rows = 0;
    for (Index i = 0; i < n; ++i)
        for (Index c = 0; c < width; ++c)
            if (flat[i * width + c] != 0.0) {
                ++rows;
                break;
            }
    return rows;
}

/** Byte size of one tile body holding `state` (see encodeCheckpointState). */
std::size_t
tileBodyBytes(const MemoryTileState &state, const DncConfig &cfg)
{
    const std::size_t n = cfg.memoryRows;
    const std::size_t w = cfg.memoryWidth;
    const std::size_t r = cfg.readHeads;
    return 8 + nonzeroRows(state.memory, n, w) * (4 + 8 * w) +
           nonzeroRows(state.linkage, n, n) * (4 + 8 * n) + 8 * n * (3 + r);
}

void
expectStatesEqual(const MemoryTileState &decoded,
                  const MemoryTileState &captured)
{
    EXPECT_TRUE(decoded.memory == captured.memory);
    EXPECT_TRUE(decoded.rowNorms == captured.rowNorms);
    EXPECT_TRUE(decoded.usage == captured.usage);
    EXPECT_TRUE(decoded.linkage == captured.linkage);
    EXPECT_TRUE(decoded.precedence == captured.precedence);
    EXPECT_TRUE(decoded.writeWeighting == captured.writeWeighting);
    ASSERT_EQ(decoded.readWeightings.size(), captured.readWeightings.size());
    for (Index h = 0; h < decoded.readWeightings.size(); ++h)
        EXPECT_TRUE(decoded.readWeightings[h] == captured.readWeightings[h]);
}

/**
 * Restore a replica from `decoded`, check that the touched set it
 * derives is the live tile's, and lockstep it with `live`.
 */
void
expectReplicaLocksteps(MemoryUnit &live, const MemoryTileState &decoded,
                       const DncConfig &cfg, std::uint64_t seed)
{
    MemoryUnit replica(cfg);
    replica.restoreState(decoded);
    EXPECT_EQ(replica.linkage().touchedSlots(),
              live.linkage().touchedSlots());
    MemoryReadout a, b;
    for (int step = 0; step < 4; ++step) {
        const InterfaceVector iface = sampleIface(cfg, seed + step);
        live.stepInto(iface, a);
        replica.stepInto(iface, b);
        for (Index h = 0; h < cfg.readHeads; ++h)
            EXPECT_TRUE(a.readVectors[h] == b.readVectors[h])
                << "head " << h << " step " << step;
        EXPECT_TRUE(a.writeWeighting == b.writeWeighting) << "step " << step;
    }
}

TEST(WireV8, EarlyEpisodeBodyShipsOnlyNonzeroRows)
{
    const DncConfig cfg = shardCfg();
    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    MemoryReadout out;
    for (int step = 0; step < 3; ++step)
        tiles[0]->stepInto(allocIface(cfg, 40 + step), out);

    WireWriter frame;
    encodeCheckpointState(9, tiles, cfg, frame);

    // 3 of 16 memory rows and 2 linkage rows hold mass: the body ships
    // exactly those rows plus the raw usage/precedence/weightings.
    MemoryTileState captured;
    tiles[0]->captureState(captured);
    EXPECT_EQ(tiles[0]->linkage().touchedSlots().size(), 3u);
    EXPECT_EQ(nonzeroRows(captured.memory, cfg.memoryRows,
                          cfg.memoryWidth),
              3u);
    EXPECT_EQ(nonzeroRows(captured.linkage, cfg.memoryRows, cfg.memoryRows),
              2u);
    EXPECT_EQ(frame.buffer().size(),
              kFirstTileOffset + tileBodyBytes(captured, cfg));

    // The frame decodes to the exact captured state (row norms rebuilt)
    // and restores a bit-exact replica.
    MemoryTileState decoded;
    MemoryTileState *slots[] = {&decoded};
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeCheckpointState(frame.buffer().data(),
                                      frame.buffer().size(), cfg, slots, 1,
                                      seq));
    EXPECT_EQ(seq, 9u);
    expectStatesEqual(decoded, captured);
    expectReplicaLocksteps(*tiles[0], decoded, cfg, 90);
}

/**
 * The worst case of the one tile body: every memory and linkage row
 * holds mass and every slot is touched. Each frame must round-trip
 * bit-exactly and fit the shm slot sized for its shape, in a one-tile
 * frame and in a multi-tile, multi-lane one.
 */
TEST(WireV8, SaturatedTileRoundTripsAndFitsItsShmSlot)
{
    struct Shape
    {
        Index hosted;
        Index lanes;
    };
    for (Index rows : {Index(16), Index(128)}) {
        DncConfig cfg = shardCfg();
        cfg.memoryRows = rows;
        for (const Shape shape : {Shape{1, 1}, Shape{2, 3}}) {
            SCOPED_TRACE(::testing::Message()
                         << "N=" << rows << " hosted=" << shape.hosted
                         << " lanes=" << shape.lanes);
            const Index count = shape.hosted * shape.lanes;
            std::vector<std::unique_ptr<MemoryUnit>> tiles;
            for (Index t = 0; t < count; ++t)
                tiles.push_back(std::make_unique<MemoryUnit>(cfg));
            MemoryReadout out;
            for (int step = 0; step < 4; ++step)
                for (Index t = 0; t < count; ++t)
                    tiles[t]->stepInto(sampleIface(cfg, 60 + 7 * t + step),
                                       out);

            WireWriter frame;
            encodeCheckpointState(3, tiles, cfg, frame);

            std::vector<MemoryTileState> captured(count);
            std::size_t expectedBytes = kFirstTileOffset;
            for (Index t = 0; t < count; ++t) {
                tiles[t]->captureState(captured[t]);
                ASSERT_EQ(tiles[t]->linkage().touchedSlots().size(), rows);
                ASSERT_EQ(nonzeroRows(captured[t].memory, rows,
                                      cfg.memoryWidth),
                          rows);
                ASSERT_EQ(nonzeroRows(captured[t].linkage, rows, rows), rows);
                expectedBytes += tileBodyBytes(captured[t], cfg);
            }
            EXPECT_EQ(frame.buffer().size(), expectedBytes);
            EXPECT_LE(frame.buffer().size(),
                      shmSlotBytesFor(cfg, shape.hosted, shape.hosted,
                                      shape.lanes));

            std::vector<MemoryTileState> decoded(count);
            std::vector<MemoryTileState *> slots;
            for (MemoryTileState &d : decoded)
                slots.push_back(&d);
            std::uint64_t seq = 0;
            ASSERT_TRUE(decodeCheckpointState(frame.buffer().data(),
                                              frame.buffer().size(), cfg,
                                              slots.data(), count, seq));
            for (Index t = 0; t < count; ++t) {
                expectStatesEqual(decoded[t], captured[t]);
                expectReplicaLocksteps(*tiles[t], decoded[t], cfg, 90 + t);
            }
        }
    }
}

TEST(WireV6Malformed, SparseFrameValidationFailsClosed)
{
    const DncConfig cfg = shardCfg();
    std::vector<std::unique_ptr<MemoryUnit>> tiles;
    tiles.push_back(std::make_unique<MemoryUnit>(cfg));
    MemoryReadout out;
    for (int step = 0; step < 3; ++step)
        tiles[0]->stepInto(allocIface(cfg, 40 + step), out);

    WireWriter w;
    encodeCheckpointState(7, tiles, cfg, w);

    MemoryTileState snap;
    MemoryTileState *slots[] = {&snap};
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeCheckpointState(w.buffer().data(), w.buffer().size(),
                                      cfg, slots, 1, seq));

    // The memory-row section opens the tile body: its count is capped
    // by N, and its first row index must be in range.
    const std::size_t memRowsAt = kFirstTileOffset;
    std::vector<std::uint8_t> frame = w.buffer();
    frame[memRowsAt] = static_cast<std::uint8_t>(cfg.memoryRows + 1);
    EXPECT_FALSE(decodeCheckpointState(frame.data(), frame.size(), cfg,
                                       slots, 1, seq));
    frame = w.buffer();
    frame[memRowsAt + 4] = 0xFF;
    EXPECT_FALSE(decodeCheckpointState(frame.data(), frame.size(), cfg,
                                       slots, 1, seq));

    // Non-ascending memory rows: overwrite the second row index with
    // the first (the strictly-ascending check must reject equality).
    const std::size_t secondRowAt = memRowsAt + 4 + 4 + 8 * cfg.memoryWidth;
    frame = w.buffer();
    for (int i = 0; i < 4; ++i)
        frame[secondRowAt + i] = frame[memRowsAt + 4 + i];
    EXPECT_FALSE(decodeCheckpointState(frame.data(), frame.size(), cfg,
                                       slots, 1, seq));

    // Shape-echo mismatch (memory width at offset 20): sparse bodies are
    // variable-length, so this is the check that keeps a mismatched
    // peer's frames out even when the byte count happens to line up.
    frame = w.buffer();
    frame[20] ^= 0x01;
    EXPECT_FALSE(decodeCheckpointState(frame.data(), frame.size(), cfg,
                                       slots, 1, seq));
}

} // namespace
} // namespace hima
