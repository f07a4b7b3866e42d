/**
 * @file
 * Wire protocol for multi-process sharded DNC-D (the scale-out axis of
 * Sec. 5.1 / Fig. 8): a versioned, endian-safe binary codec with
 * length-prefixed framing.
 *
 * The protocol carries exactly the traffic the paper's tile arrangement
 * implies. Per step the coordinator scatters one interface vector per
 * tile and gathers each tile's R read vectors plus R confidence logits
 * (strength x best row cosine, computed tile-locally against the tile's
 * own memory) — so the *distributed* confidence merge needs only a
 * softmax over Nt gathered scalars per scored head, never the remote
 * memory contents. Control frames cover episode reset / admit; a config
 * handshake validates shapes and the fixed-point mode at connect time.
 *
 * Layout rules (all multi-byte values little-endian on the wire,
 * regardless of host order):
 *
 *   frame   := [u32 payload length] [payload]        (Channel framing)
 *   payload := [u16 magic] [u8 version] [u8 type] [body...]
 *   Real    := IEEE-754 binary64, bit-cast to u64    (lossless: the
 *              bit-exactness contract survives serialization)
 *   vector  := [u32 count] [Real x count]
 *
 * Real arrays move through a bulk little-endian path (one memcpy on LE
 * hosts, byte-assembled elsewhere) so serialization cost does not
 * dominate lane-batched frames; the bit pattern on the wire is
 * identical either way.
 *
 * Decoders are destination-passing (buffers resize in place, so a
 * steady-state worker round trip performs zero heap allocations) and
 * fail-closed: every read is bounds-checked, declared counts are
 * validated against the handshake config *before* any resize, and any
 * malformed frame yields `false` from decode — never UB, never an
 * attacker-sized allocation (tests/test_wire.cpp truncates and corrupts
 * frames byte by byte).
 *
 * Version 2 adds the pipelined serving surface: a `lanes` field in the
 * handshake (a worker hosts `lanes x hostedTiles` independent tile
 * sets), a lane id on Control frames (admit/reset one lane without
 * touching the rest), and the lane-batched LaneStep/LaneStepReply pair
 * — one frame carries k lanes' broadcast interfaces per worker, the
 * reply carries k lanes' readouts + confidence logits, and sequence ids
 * correlate replies with requests so multiple frames can be in flight
 * per channel.
 *
 * Version 3 adds the fault-tolerance surface: CheckpointRequest pulls a
 * CheckpointState frame carrying the complete recurrent state of every
 * hosted (lane, tile) pair — memory rows, the row-norm cache, usage,
 * linkage, precedence, and the previous write/read weightings, i.e.
 * exactly a MemoryTileState per tile — Restore pushes such a snapshot
 * back into a worker, and Rejoin is a Hello variant that re-attaches a
 * fresh worker process to an existing session with its tile assignment.
 * Shapes ride the handshake, not the frame, so checkpoint bodies are
 * raw Real arrays (one memcpy per field on LE hosts) and every decoder
 * stays fail-closed: a v2 peer is rejected at the header check, counts
 * are validated before any resize, truncation at any byte returns
 * false.
 *
 * Version 6 makes checkpoint traffic active-set sparse. Every tile
 * body now opens with an encoding byte and the linkage's monotone
 * touched-slot list (the column set the sparse sweeps iterate — not
 * derivable from the matrix at positive skip thresholds, so it must
 * ride the frame for a restore to reproduce an undisturbed run).
 * Encoding 0 is the dense v5 field sequence; encoding 1 ships only the
 * nonzero memory rows and nonzero linkage rows as (u32 index, row)
 * pairs and omits the row-norm cache entirely (the decoder rebuilds it
 * from the shipped rows with the memory write's own summation order,
 * bit-identically). The encoder picks per tile whichever encoding is
 * byte-smaller. Sparse decoders stay fail-closed: counts are capped
 * by the handshake shapes, indices must be strictly ascending and in
 * range, and truncation anywhere returns false. The handshake grows
 * the read skip threshold so coordinator and worker agree on the
 * sparse datapath.
 *
 * Version 7 retires the single-lane Step/StepReply pair: LaneStep is
 * the only step frame, and a one-lane LaneStep is the synchronous
 * coordinator's step. Each LaneStep entry now carries a per-tile flag
 * byte: 0 means one broadcast interface (the serving path), 1 means a
 * [u32 Nt] count and all Nt per-tile interfaces of DNC-D's learned
 * write sharding, so every worker still receives identical bytes and
 * steps its own slice. For that the handshake (Hello and Rejoin alike)
 * carries the tile assignment: the global tile count Nt and the
 * worker's first global tile. The remaining message types are
 * renumbered densely.
 *
 * Version 8 keeps one tile body. The encoding byte and the dense v5
 * field sequence are gone: every body is the row-sparse one, which
 * costs at most 8 bytes more than dense at full occupancy. The
 * handshake drops the dense-sweep byte with the configuration field
 * it carried.
 */

#ifndef HIMA_SHARD_WIRE_H
#define HIMA_SHARD_WIRE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dnc/interface.h"
#include "dnc/memory_unit.h"
#include "obs/metrics.h"

namespace hima {

/** Protocol magic ("HM") — first two payload bytes of every message. */
constexpr std::uint16_t kWireMagic = 0x484D;

/** Protocol version; bumped on any layout change (v8: one row-sparse
 * tile body; handshake without the dense-sweep byte). */
constexpr std::uint8_t kWireVersion = 8;

/** Largest legal payload (guards framing against garbage lengths). */
constexpr std::uint32_t kWireMaxFrameBytes = 64u << 20;

/** Message types. */
enum class MsgType : std::uint8_t
{
    Hello = 1,      ///< coordinator -> worker: config handshake
    HelloAck = 2,   ///< worker -> coordinator: accept/reject + detail
    Control = 3,    ///< coordinator -> worker: episode reset / admit
    ControlAck = 4, ///< worker -> coordinator: control completed
    Shutdown = 5,   ///< coordinator -> worker: stop serving
    Error = 6,      ///< worker -> coordinator: protocol failure detail
    LaneStep = 7,   ///< coordinator -> worker: k lanes' interfaces
    LaneStepReply = 8, ///< worker -> coordinator: k lanes' readouts
    CheckpointRequest = 9, ///< coordinator -> worker: pull all tile state
    CheckpointState = 10,  ///< worker -> coordinator: lane-major snapshots
    Restore = 11,          ///< coordinator -> worker: push tile snapshots
    Rejoin = 12, ///< coordinator -> replacement worker: re-attach handshake
    StatsPull = 13,   ///< coordinator -> worker: scrape the telemetry registry
    StatsReport = 14, ///< worker -> coordinator: obs::Snapshot of the process
};

/** Number of distinct message-type slots (for per-type counters). */
constexpr std::size_t kMsgTypeCount =
    static_cast<std::size_t>(MsgType::StatsReport) + 1;

/** Human-readable message-type name ("?" for out-of-range values). */
const char *msgTypeName(MsgType type);

/** Control-frame lane id meaning "every hosted lane". */
constexpr std::uint32_t kAllLanes = 0xFFFFFFFFu;

/** Control message kinds. */
enum class ControlKind : std::uint8_t
{
    EpisodeReset = 0, ///< zero all hosted tile state (episode boundary)
    Admit = 1,        ///< same reset, marking the start of a new episode
};

/**
 * The shard-relevant configuration the coordinator sends at connect.
 * memoryRows here is the *local* (per-tile) row count; the worker
 * validates every field against what it can serve and constructs its
 * tiles from them, so coordinator and worker can never silently run
 * different shapes or datapaths (fixed point, skimming, softmax mode).
 */
struct WireConfig
{
    std::uint64_t memoryRows = 0;  ///< per-tile N
    std::uint64_t memoryWidth = 0; ///< W
    std::uint64_t readHeads = 0;   ///< R
    std::uint64_t numThreads = 1;  ///< worker tile-pool threads
    std::uint64_t hostedTiles = 0; ///< tiles this worker hosts, per lane
    std::uint64_t lanes = 1;       ///< independent lane tile sets hosted
    std::uint8_t approximateSoftmax = 0;
    std::uint32_t softmaxSegments = 8;
    std::uint8_t fixedPoint = 0;
    Real skimRate = 0.0;
    Real writeSkipThreshold = 0.0;
    Real linkageSkipThreshold = 0.0;
    Real readSkipThreshold = 0.0;
    std::uint64_t tiles = 0;     ///< global tile count Nt per lane
    std::uint64_t firstTile = 0; ///< first global tile this worker hosts

    /**
     * Build from a per-shard DncConfig plus the hosted-tile count. The
     * assignment defaults to the whole fleet (firstTile 0, tiles =
     * hostedTiles); a coordinator dealing tiles over several workers
     * overwrites both.
     */
    static WireConfig fromShard(const DncConfig &shard, Index hostedTiles,
                                Index lanes = 1);

    /** Reconstruct the per-shard DncConfig a worker should run. */
    DncConfig toShardConfig() const;

    bool operator==(const WireConfig &other) const = default;
};

/** Handshake reply. */
struct HelloAckMsg
{
    bool ok = false;
    std::uint64_t hostedTiles = 0; ///< echo of the accepted assignment
    std::string message;           ///< failure detail when !ok
};

/** Episode control. */
struct ControlMsg
{
    ControlKind kind = ControlKind::EpisodeReset;
    std::uint64_t seq = 0;
    std::uint32_t lane = kAllLanes; ///< target lane (kAllLanes = every)
};

/**
 * One lane's slice of a lane-batched scatter: the lane id, the heads
 * needing fresh confidence logits, and the interfaces the lane's tiles
 * step with. A broadcast entry (tileIfaces == 0, the serving path)
 * carries one interface for every tile. A per-tile entry carries all
 * Nt interfaces of DNC-D's learned write sharding (tileIfaces == Nt,
 * iface[t] for global tile t); every worker gets them all and steps
 * its own slice, so the frame stays identical on every channel. Both
 * kinds score confidence with iface[0]'s read keys, as DncD does.
 */
struct LaneStepEntry
{
    std::uint32_t lane = 0;
    std::uint32_t scoredMask = 0;
    const InterfaceVector *iface = nullptr;
    Index tileIfaces = 0; ///< 0 = broadcast; else Nt per-tile interfaces
};

/**
 * Decoded lane-batched scatter: `laneCount` parallel arrays. Buffers
 * resize in place (ifaces only ever grows), so a steady-state worker
 * decode allocates nothing. Lane ids are validated strictly increasing
 * (and < the handshake's lane count), which rules out duplicates — a
 * frame stepping the same lane twice would race on that lane's tiles.
 */
struct LaneStepMsg
{
    std::uint64_t seq = 0;
    bool wantWeightings = false;
    std::vector<std::uint32_t> lanes;
    std::vector<std::uint32_t> masks;
    std::vector<std::uint8_t> perTile; ///< entry carries Nt interfaces
    std::vector<Index> firstIface;     ///< entry j's first ifaces slot
    std::vector<InterfaceVector> ifaces; ///< entries' interfaces, packed

    /** The interface global tile `tile` of entry j steps with. */
    const InterfaceVector &
    tileIface(Index j, Index tile) const
    {
        return ifaces[firstIface[j] + (perTile[j] ? tile : 0)];
    }
};

/**
 * Decoded lane-batched gather: per frame lane j and hosted tile i, the
 * readout lives at tiles[j * hostedTiles + i] and its R confidence
 * logits at confidence[(j * hostedTiles + i) * R ...]. Lane ids echo
 * the request's.
 */
struct LaneStepReplyMsg
{
    std::uint64_t seq = 0;
    bool hasWeightings = false;
    std::vector<std::uint32_t> lanes;
    /**
     * Lane j's hosted tile i at [j * hostedTiles + i]. A reused message
     * keeps entries past lanes.size() * hostedTiles from larger earlier
     * batches; they are stale storage, not part of this reply.
     */
    std::vector<MemoryReadout> tiles;
    std::vector<Real> confidence;
};

/** Protocol failure detail. */
struct ErrorMsg
{
    std::string message;
};

/**
 * Append-only little-endian serializer over a reusable byte buffer.
 * clear() keeps capacity, so steady-state encoding never allocates.
 *
 * attachExternal() redirects the writer into a caller-owned span — the
 * shared-memory transport points it at a ring slot so encoders write
 * their bytes straight into transport memory (zero-copy publish). The
 * wire bytes are identical in either mode.
 */
class WireWriter
{
  public:
    void
    clear()
    {
        if (ext_ != nullptr)
            extSize_ = 0;
        else
            buf_.clear();
    }

    /** Encoded bytes so far (valid in both modes). */
    const std::uint8_t *
    data() const
    {
        return ext_ != nullptr ? ext_ : buf_.data();
    }

    std::size_t
    size() const
    {
        return ext_ != nullptr ? extSize_ : buf_.size();
    }

    /** The internal buffer (internal mode only; prefer data()/size()). */
    const std::vector<std::uint8_t> &buffer() const { return buf_; }

    /**
     * Redirect encoding into `slot` (clear() implied). Exceeding
     * `capacity` is fatal: slots are pre-sized from the config
     * handshake, so an overflow is a sizing bug, never traffic.
     */
    void attachExternal(std::uint8_t *slot, std::size_t capacity);

    /** Return to the internal buffer (clear() implied). */
    void detachExternal();

    bool external() const { return ext_ != nullptr; }

    void putU8(std::uint8_t v) { push(v); }
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putReal(Real v);
    void putVector(const Vector &v);
    void putString(const std::string &s);

    /**
     * Append `count` Reals as little-endian u64 bit patterns — one
     * memcpy on little-endian hosts, byte-assembled elsewhere. The wire
     * bytes are identical to `count` putReal() calls.
     */
    void putRealArray(const Real *values, Index count);

    /** Start a message: magic, version, type. */
    void header(MsgType type);

  private:
    void push(std::uint8_t b);
    void append(const void *src, std::size_t n);

    std::vector<std::uint8_t> buf_;
    std::uint8_t *ext_ = nullptr; ///< external span (null = internal)
    std::size_t extCap_ = 0;
    std::size_t extSize_ = 0;
};

/**
 * Bounds-checked little-endian reader with a sticky failure flag: any
 * out-of-range read (or failed validation recorded via fail()) makes
 * every subsequent read return zero and ok() return false, so decoders
 * can run straight-line and check once at the end.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool ok() const { return ok_; }
    void fail() { ok_ = false; }
    bool atEnd() const { return ok_ && pos_ == size_; }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    Real real();

    /** Read a vector whose count must equal `expected`. */
    void vector(Vector &out, Index expected);

    /** Read `count` Reals into `out` (bulk form of real()). */
    void realArray(Real *out, Index count);

    /** Read a length-prefixed string (capped at the remaining bytes). */
    void string(std::string &out);

    /** Consume and validate the message header against `expected`. */
    void header(MsgType expected);

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Peek a payload's message type; false on short/invalid header. */
bool peekType(const std::uint8_t *data, std::size_t size, MsgType &type);

// --- encoders (writer is cleared first; result is writer.buffer()) ---

void encodeHello(const WireConfig &config, WireWriter &out);
void encodeHelloAck(const HelloAckMsg &msg, WireWriter &out);
/**
 * Encode a lane-batched step: one frame carries `count` lane entries
 * (ordered by strictly increasing lane id). Entry layout: [u32 lane]
 * [u32 scoredMask] [u8 perTile], then one interface (perTile 0) or
 * [u32 Nt] and Nt interfaces (perTile 1).
 */
void encodeLaneStep(std::uint64_t seq, bool wantWeightings,
                    const LaneStepEntry *entries, Index count,
                    WireWriter &out);

/**
 * Encode a lane-batched reply straight from the worker's lane-major
 * scratch: readout (j, i) at readouts[j * hostedTiles + i], logits at
 * confidence[(j * hostedTiles + i) * R ...].
 */
void encodeLaneStepReply(std::uint64_t seq, bool withWeightings,
                         const std::uint32_t *lanes, Index laneCount,
                         Index hostedTiles,
                         const std::vector<MemoryReadout> &readouts,
                         const std::vector<Real> &confidence,
                         const DncConfig &shard, WireWriter &out);

void encodeControl(const ControlMsg &msg, WireWriter &out);
void encodeControlAck(std::uint64_t seq, WireWriter &out);
void encodeShutdown(WireWriter &out);
void encodeError(const std::string &message, WireWriter &out);

/** Pull every hosted (lane, tile) snapshot; answered by CheckpointState. */
void encodeCheckpointRequest(std::uint64_t seq, WireWriter &out);

/**
 * Encode all hosted tile state straight from the worker's lane-major
 * tile array — no intermediate snapshot object, one bulk Real-array
 * append per field. The body opens with a [u32 N] [u32 W] [u32 R]
 * shape echo after the tile count: sparse tile bodies are
 * variable-length (an all-zero tile carries no W-dependent field at
 * all), so decoders validate the echoed shapes against their own
 * config instead of inferring a mismatch from frame length.
 * Body layout per tile, one encoding for every occupancy:
 * [u32 touchedCount] [u32 slot x touchedCount, strictly ascending]
 * [u32 memRows] [(u32 row, Real x W) x memRows] [u32 linkRows]
 * [(u32 row, Real x N) x linkRows] — both row lists strictly ascending
 * and covering exactly the rows holding a nonzero entry — then usage
 * N, precedence N, writeWeighting N and readWeightings R*N as raw
 * arrays (shapes from the handshake, no per-field counts). The
 * row-norm cache is not shipped; the decoder rebuilds it from the
 * memory rows bit-identically. A saturated tile costs 8 bytes more
 * than the pre-v8 dense body (its 2N row indices cost what the omitted
 * norm block did; the two section counts add 8); shmSlotBytesFor
 * bounds that worst case.
 */
void encodeCheckpointState(std::uint64_t seq,
                           const std::vector<std::unique_ptr<MemoryUnit>>
                               &tiles,
                           const DncConfig &shard, WireWriter &out);

/**
 * Encode a Restore carrying `count` tile snapshots (lane-major slice of
 * the coordinator's checkpoint store). The body layout matches
 * CheckpointState exactly; the worker acks with ControlAck(seq).
 */
void encodeRestore(std::uint64_t seq,
                   const MemoryTileState *const *snapshots, Index count,
                   const DncConfig &shard, WireWriter &out);

/** Pull the worker's telemetry registry; answered by StatsReport. */
void encodeStatsPull(std::uint64_t seq, WireWriter &out);

/**
 * Encode one process's scrape: per entry, the '.'-path name, the kind,
 * and a kind-dependent body; histogram buckets go sparse — [u16 index]
 * [u64 count] pairs with strictly increasing indices — since a scrape
 * window rarely touches more than a few octaves of the 496 buckets.
 */
void encodeStatsReport(std::uint64_t seq, const obs::Snapshot &snapshot,
                       WireWriter &out);

/**
 * Re-attach handshake for a replacement worker: the Hello body under
 * its own type, so the wire shows which workers are replacements.
 * Answered by HelloAck like Hello.
 */
void encodeRejoin(const WireConfig &config, WireWriter &out);

// --- decoders (false on any malformed input; outputs resize in place) ---

bool decodeHello(const std::uint8_t *data, std::size_t size,
                 WireConfig &config);
bool decodeHelloAck(const std::uint8_t *data, std::size_t size,
                    HelloAckMsg &msg);
/**
 * Decode a lane-batched step. `lanes` and `tiles` are the worker's
 * hosted lane count and the global tile count Nt from the handshake:
 * frames naming more lanes than that, lane ids out of range or not
 * strictly increasing, a per-tile flag above 1, or a per-tile count
 * other than Nt are rejected.
 */
bool decodeLaneStep(const std::uint8_t *data, std::size_t size,
                    const DncConfig &shard, Index lanes, Index tiles,
                    LaneStepMsg &msg);

/**
 * Decode a lane-batched reply. `maxLanes` bounds the declared lane
 * count (the coordinator knows how many lanes it scattered).
 */
bool decodeLaneStepReply(const std::uint8_t *data, std::size_t size,
                         const DncConfig &shard, Index hostedTiles,
                         Index maxLanes, LaneStepReplyMsg &msg);

bool decodeControl(const std::uint8_t *data, std::size_t size,
                   ControlMsg &msg);
bool decodeControlAck(const std::uint8_t *data, std::size_t size,
                      std::uint64_t &seq);
bool decodeError(const std::uint8_t *data, std::size_t size, ErrorMsg &msg);

bool decodeCheckpointRequest(const std::uint8_t *data, std::size_t size,
                             std::uint64_t &seq);

/**
 * Decode a CheckpointState into `count` caller-owned snapshot slots
 * (destination-passing: the coordinator points the slots straight at
 * its lane-major checkpoint store, so the state lands where migration
 * and restore re-slice it). The declared tile count must equal `count`
 * and every buffer resize reuses capacity — a steady-state checkpoint
 * pull allocates nothing.
 */
bool decodeCheckpointState(const std::uint8_t *data, std::size_t size,
                           const DncConfig &shard,
                           MemoryTileState *const *snapshots, Index count,
                           std::uint64_t &seq);

/** Decode a Restore into `count` caller-owned snapshot slots. */
bool decodeRestore(const std::uint8_t *data, std::size_t size,
                   const DncConfig &shard,
                   MemoryTileState *const *snapshots, Index count,
                   std::uint64_t &seq);

bool decodeRejoin(const std::uint8_t *data, std::size_t size,
                  WireConfig &config);

bool decodeStatsPull(const std::uint8_t *data, std::size_t size,
                     std::uint64_t &seq);

/**
 * Decode a StatsReport into `snapshot` (cleared first). Fail-closed:
 * the declared entry count is capped, names are length-checked against
 * the remaining bytes, kinds must be known, and sparse histogram
 * bucket indices must be strictly increasing and in range.
 */
bool decodeStatsReport(const std::uint8_t *data, std::size_t size,
                       obs::Snapshot &snapshot, std::uint64_t &seq);

} // namespace hima

#endif // HIMA_SHARD_WIRE_H
