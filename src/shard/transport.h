/**
 * @file
 * Transport abstraction for the sharded DNC-D wire protocol: how framed
 * messages move between the coordinator and its tile workers.
 *
 * Three implementations cover the deployment spectrum:
 *
 *   - LoopbackChannel: in-process, synchronous. sendFrame() delivers the
 *     frame straight into a registered service (the worker's frame
 *     handler); the service's replies land in a reusable inbox ring that
 *     recvFrame() pops. Fully deterministic, no threads, no kernel —
 *     this is the test and golden-harness transport, and it still
 *     serializes every byte through the same codec the sockets use, so
 *     "bit-identical over loopback" implies "bit-identical over TCP".
 *
 *   - SocketChannel: a connected stream socket (Unix-domain or TCP,
 *     TCP_NODELAY on both ends), with [u32 length]-framed payloads,
 *     full-write/full-read loops and EINTR handling. SocketListener
 *     binds/accepts (TCP port 0 picks an ephemeral port, so tests never
 *     collide). setRecvTimeout() bounds every recvFrame() so a dead or
 *     wedged peer surfaces as a step error instead of hanging the
 *     coordinator forever.
 *
 *   - ShmChannel: same-host zero-copy. One shm_open() + mmap() region
 *     holds a pair of single-producer/single-consumer frame-slot rings
 *     (one per direction), futex-signalled with a bounded spin before
 *     every sleep. Senders encode straight into the next free slot
 *     (beginFrame()/endFrame() via FrameScope) and receivers borrow the
 *     slot in place (recvFrameView()), so a step moves zero hot-path
 *     memcpys of Real arrays. The payload inside each slot is the
 *     ordinary wire encoding — decoders stay fail-closed and the socket
 *     codec remains the cross-host fallback.
 *
 * Channels support multiple outstanding frames: sendFrame()/queueFrame()
 * never wait for a reply, so a pipelined coordinator can keep a window
 * of step frames in flight per channel. queueFrame() + flush() is the
 * batched form — SocketChannel coalesces queued frames into a single
 * send() (writev-style: one syscall flushes the whole window),
 * LoopbackChannel services frames immediately in queue order, keeping
 * in-process runs deterministic.
 *
 * Channels count frames and bytes per message type in both directions
 * (WireTrafficStats); bench_shard and shard_demo report wire cost per
 * step from these counters.
 */

#ifndef HIMA_SHARD_TRANSPORT_H
#define HIMA_SHARD_TRANSPORT_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "shard/wire.h"

namespace hima {

/**
 * Per-message-type frame/byte counters for one direction of a channel.
 * Indexed by the raw MsgType value; slot 0 aggregates frames whose
 * header did not parse (never expected in a healthy deployment).
 * Byte counts are payload bytes (framing overhead excluded).
 */
struct WireTrafficStats
{
    std::array<std::uint64_t, kMsgTypeCount> frames{};
    std::array<std::uint64_t, kMsgTypeCount> bytes{};

    void
    note(const std::uint8_t *data, std::size_t size)
    {
        MsgType type;
        const std::size_t slot =
            peekType(data, size, type) ? static_cast<std::size_t>(type) : 0;
        ++frames[slot];
        bytes[slot] += size;
    }

    std::uint64_t
    totalFrames() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t f : frames)
            sum += f;
        return sum;
    }

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t b : bytes)
            sum += b;
        return sum;
    }

    /** Zero every counter (bench loops differencing a fresh window). */
    void
    reset()
    {
        frames.fill(0);
        bytes.fill(0);
    }

    /** Aggregate another channel's (or direction's) counters in. */
    WireTrafficStats &
    operator+=(const WireTrafficStats &other)
    {
        for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
            frames[t] += other.frames[t];
            bytes[t] += other.bytes[t];
        }
        return *this;
    }

    /**
     * Counters accumulated since `base`, an earlier reading of the
     * same channel direction (monotone, so per-slot subtraction).
     */
    WireTrafficStats
    diffFrom(const WireTrafficStats &base) const
    {
        WireTrafficStats out;
        for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
            out.frames[t] = frames[t] - base.frames[t];
            out.bytes[t] = bytes[t] - base.bytes[t];
        }
        return out;
    }
};

/** One non-zero per-message-type row of an aggregated traffic table. */
struct WireTrafficRow
{
    MsgType type;
    const char *name;       ///< msgTypeName(type)
    double framesPerStep;   ///< both directions combined
    double bytesOutPerStep; ///< payload bytes sent
    double bytesInPerStep;  ///< payload bytes received
};

/**
 * The non-zero message-type rows of a (sent, received) counter pair,
 * normalized by `steps` — the shared core of every per-type wire
 * report (shard_demo's console table, bench_shard's JSON rows).
 * Slot 0 (unparsed headers) is skipped; healthy runs never hit it.
 */
std::vector<WireTrafficRow> wireTrafficRows(const WireTrafficStats &sent,
                                            const WireTrafficStats &received,
                                            double steps);

/**
 * Human-readable per-type table of wireTrafficRows, one line per type
 * ("  LaneStepReply   2.0 frames   1024.0 B out  ..."), appended to
 * `out`.
 */
void formatWireTrafficTable(const WireTrafficStats &sent,
                            const WireTrafficStats &received, double steps,
                            std::string &out);

/** Anything that accepts outbound frames (channels, loopback inboxes). */
class FrameSink
{
  public:
    virtual ~FrameSink() = default;

    /** Queue/transmit one framed payload. */
    virtual void sendFrame(const std::uint8_t *data, std::size_t size) = 0;

    /**
     * Begin an in-place outbound frame: a writer whose bytes land
     * directly in transport memory (ShmChannel's next free ring slot),
     * or null when this sink has no zero-copy path and the caller
     * should encode into its own writer and sendFrame() as usual.
     * Every beginFrame() must be paired with one endFrame(); FrameScope
     * wraps the branch so call sites stay transport-agnostic.
     */
    virtual WireWriter *beginFrame() { return nullptr; }

    /** Publish the frame encoded into beginFrame()'s writer. */
    virtual void endFrame() {}
};

/**
 * One outbound frame, encoded in place when the sink supports it:
 *
 *     FrameScope frame(sink, writer_);
 *     encodeLaneStepReply(..., frame.writer());
 *     frame.commit();
 *
 * On a zero-copy sink (ShmChannel) writer() targets the transport's own
 * slot and commit() publishes it; elsewhere writer() is the caller's
 * staging writer and commit() is a plain sendFrame(). Either way the
 * encoder sees a cleared WireWriter and produces identical wire bytes.
 */
class FrameScope
{
  public:
    FrameScope(FrameSink &sink, WireWriter &staging)
        : sink_(sink), inPlace_(sink.beginFrame()),
          writer_(inPlace_ != nullptr ? inPlace_ : &staging)
    {
        if (inPlace_ == nullptr)
            writer_->clear();
    }

    WireWriter &writer() { return *writer_; }

    void
    commit()
    {
        if (inPlace_ != nullptr)
            sink_.endFrame();
        else
            sink_.sendFrame(writer_->data(), writer_->size());
    }

  private:
    FrameSink &sink_;
    WireWriter *inPlace_;
    WireWriter *writer_;
};

/** A bidirectional framed message channel. */
class Channel : public FrameSink
{
  public:
    /**
     * Receive the next frame into `frame` (resized in place; capacity is
     * reused, so a steady-state receive allocates nothing).
     *
     * @return false on orderly close / nothing pending (loopback) /
     *         recv-timeout expiry, or on a malformed length prefix
     */
    virtual bool recvFrame(std::vector<std::uint8_t> &frame) = 0;

    /**
     * Zero-copy receive: deliver the next frame as a borrowed view,
     * valid until the next receive on this channel (sends do not
     * invalidate it — the opposite direction is a separate ring). The
     * default copies via recvFrame() into `scratch`; ShmChannel points
     * straight into its ring slot so decoders read Real arrays in
     * place.
     */
    virtual bool
    recvFrameView(const std::uint8_t *&data, std::size_t &size,
                  std::vector<std::uint8_t> &scratch)
    {
        if (!recvFrame(scratch))
            return false;
        data = scratch.data();
        size = scratch.size();
        return true;
    }

    /**
     * Queue one frame for a later flush(). The default transmits
     * immediately (loopback service order stays deterministic);
     * SocketChannel buffers so a flush() moves the whole batch in one
     * syscall.
     */
    virtual void
    queueFrame(const std::uint8_t *data, std::size_t size)
    {
        sendFrame(data, size);
    }

    /** Transmit every queued frame (no-op when nothing is buffered). */
    virtual void flush() {}

    /**
     * Bound every subsequent receive (and blocking send) to `ms`
     * milliseconds. `ms` must be positive; 0 is clamped up to 1ms —
     * POSIX reads a zero timeout as "block forever", the opposite of
     * the immediate bound a caller asking for 0 means — and a negative
     * value is fatal. The default (loopback) has nothing to bound.
     */
    virtual void setRecvTimeout(int ms) { (void)ms; }

    /**
     * True when the last receive or send failure on this channel was a
     * timeout expiry (as opposed to peer death / orderly close).
     */
    virtual bool timedOut() const { return false; }

    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesReceived() const { return bytesReceived_; }

    /** Per-message-type counters for frames handed to sendFrame/queue. */
    const WireTrafficStats &sentStats() const { return sentStats_; }

    /** Per-message-type counters for frames recvFrame() delivered. */
    const WireTrafficStats &receivedStats() const { return receivedStats_; }

  protected:
    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;
    WireTrafficStats sentStats_;
    WireTrafficStats receivedStats_;
};

/**
 * In-process synchronous channel: the coordinator-side endpoint of a
 * worker served by direct function call.
 */
class LoopbackChannel final : public Channel
{
  public:
    /**
     * The served peer: receives one frame, emits any number of reply
     * frames into the sink (which is this channel's inbox).
     */
    using Service = std::function<void(const std::uint8_t *data,
                                       std::size_t size, FrameSink &reply)>;

    explicit LoopbackChannel(Service service);

    void sendFrame(const std::uint8_t *data, std::size_t size) override;
    bool recvFrame(std::vector<std::uint8_t> &frame) override;

  private:
    /** Reply sink: appends into the ring without exposing sendFrame. */
    class Inbox final : public FrameSink
    {
      public:
        explicit Inbox(LoopbackChannel &owner) : owner_(owner) {}
        void sendFrame(const std::uint8_t *data, std::size_t size) override;

      private:
        LoopbackChannel &owner_;
    };

    void push(const std::uint8_t *data, std::size_t size);

    Service service_;
    Inbox inbox_;
    // Ring of reusable frame buffers: grows only when depth exceeds the
    // historical maximum, so steady-state round trips never allocate.
    std::vector<std::vector<std::uint8_t>> ring_;
    std::size_t head_ = 0;  ///< next frame to pop
    std::size_t count_ = 0; ///< frames pending
};

/** A connected stream socket carrying length-prefixed frames. */
class SocketChannel final : public Channel
{
  public:
    /** Adopt a connected socket fd (takes ownership). */
    explicit SocketChannel(int fd);
    ~SocketChannel() override;

    SocketChannel(const SocketChannel &) = delete;
    SocketChannel &operator=(const SocketChannel &) = delete;

    void sendFrame(const std::uint8_t *data, std::size_t size) override;
    bool recvFrame(std::vector<std::uint8_t> &frame) override;

    /** Buffer a frame; flush() sends the whole batch with one send(). */
    void queueFrame(const std::uint8_t *data, std::size_t size) override;
    void flush() override;

    /**
     * Bound every subsequent recvFrame() to `ms` milliseconds
     * (SO_RCVTIMEO); 0 is clamped to 1ms (a zero timeval means "block
     * forever" to the kernel — the opposite of the immediate bound a
     * caller asking for 0 means) and a negative value is fatal. On
     * expiry recvFrame() returns false and timedOut() reports true, so
     * the caller can fail the step with a worker-death diagnosis
     * instead of hanging. Any recv failure (timeout, close, garbage
     * length) is sticky: the stream position is unknown afterwards, so
     * the channel reports broken from then on rather than misparsing
     * payload as framing.
     *
     * Also bounds blocking sends (SO_SNDTIMEO): with multiple frames in
     * flight both peers can be mid-write at once, and if the kernel
     * buffers ever filled up on both sides a write-write deadlock would
     * otherwise hang forever. A send that cannot complete within the
     * bound marks the channel broken — and timedOut() true, so recovery
     * diagnoses a wedged-but-alive peer as a timeout, not peer death —
     * and surfaces on the next receive.
     */
    void setRecvTimeout(int ms) override;

    /**
     * True when the last failure was a timeout expiry — either the last
     * recvFrame() (reset on each receive) or a send that blew
     * SO_SNDTIMEO (sticky, like the broken channel state it implies).
     */
    bool timedOut() const override { return timedOut_ || sendTimedOut_; }

    /** Connect to a Unix-domain socket path; null on failure. */
    static std::unique_ptr<SocketChannel>
    connectUnix(const std::string &path);

    /** Connect to a TCP endpoint (IPv4 dotted quad); null on failure. */
    static std::unique_ptr<SocketChannel> connectTcp(const std::string &host,
                                                     std::uint16_t port);

  private:
    int fd_;
    bool broken_ = false;   ///< peer died mid-send; reads report failure
    bool timedOut_ = false; ///< last recv failure was SO_RCVTIMEO expiry
    bool sendTimedOut_ = false; ///< a send blew SO_SNDTIMEO (sticky)
    std::vector<std::uint8_t> sendBuf_; ///< queued [len][payload] frames
};

/** Default shm ring slot capacity when no config is available to size it. */
constexpr std::size_t kShmDefaultSlotBytes = std::size_t{1} << 20;

/** Frame slots per shm ring direction (the in-flight window bound). */
constexpr std::size_t kShmDefaultSlots = 8;

/**
 * Slot capacity (bytes) that fits every frame the protocol can produce
 * for this shard shape: the checkpoint/restore snapshot of all hosted
 * (lane, tile) memory state is the largest, followed by lane-batched
 * replies with weightings and the scatter (up to `lanes` broadcast
 * interfaces, or all `tiles` interfaces of a per-tile step). Rounded
 * up to a page and capped at kWireMaxFrameBytes (a frame too big for a
 * slot is too big for the socket transports as well).
 */
std::size_t shmSlotBytesFor(const DncConfig &shard, Index tiles,
                            Index hostedTiles, Index lanes = 1);

/**
 * Same-host zero-copy channel: a pair of single-producer /
 * single-consumer frame-slot rings in one shared-memory region.
 *
 * Layout (one shm_open() + mmap() region, offsets fixed at create()):
 * a header carrying the geometry and liveness flags, then one ring per
 * direction — head/tail frame counters on their own cache lines, futex
 * words for data/space signalling, and `slotCount` fixed-stride slots
 * of [u64 length][payload]. The payload bytes are the ordinary wire
 * encoding, so receivers decode exactly as they would a socket frame
 * (fail-closed on anything malformed) — the transport removes copies,
 * not validation.
 *
 * Zero-copy contract:
 *   - send side: beginFrame() waits for a free slot and returns a
 *     WireWriter attached to it; the encoder's bytes land directly in
 *     shared memory and endFrame() publishes them with a release store
 *     of the ring head (plus a futex wake when the peer sleeps).
 *   - recv side: recvFrameView() borrows the slot in place; the slot is
 *     returned (tail advance + space wake) on the next receive, so a
 *     decoder may read Real arrays straight out of the mapping.
 *   - sendFrame()/recvFrame() remain available as the copying forms for
 *     pre-encoded frames (recovery replay) and copy-out callers.
 *
 * Waits spin briefly before sleeping on the futex (the peer is
 * typically mid-encode for only microseconds), and every sleep is
 * bounded by setRecvTimeout() so a dead peer surfaces as a timeout or,
 * when it closed its end, as an orderly close once the ring drains.
 *
 * Rendezvous: create() builds and owns the named region (refusing to
 * displace an existing name, O_EXCL); attach() polls for the name,
 * validates the geometry, and claims the worker end with a CAS so a
 * second attacher fails instead of corrupting SPSC ownership. The
 * creator unlinks the name as soon as a peer has attached (the mapping
 * keeps the region alive), so crashed runs leave nothing behind except
 * a name the next create() refuses — callers pick fresh names per
 * worker incarnation, which is also what makes recovery work: a
 * respawned worker maps a fresh ring and the coordinator replays into
 * it.
 */
class ShmChannel final : public Channel
{
  public:
    ~ShmChannel() override;

    ShmChannel(const ShmChannel &) = delete;
    ShmChannel &operator=(const ShmChannel &) = delete;

    void sendFrame(const std::uint8_t *data, std::size_t size) override;
    bool recvFrame(std::vector<std::uint8_t> &frame) override;
    bool recvFrameView(const std::uint8_t *&data, std::size_t &size,
                       std::vector<std::uint8_t> &scratch) override;
    WireWriter *beginFrame() override;
    void endFrame() override;
    void setRecvTimeout(int ms) override;
    bool timedOut() const override { return timedOut_; }

    /**
     * Create and own a named region (`name` must start with '/'), sized
     * for `slotCount` slots of `slotBytes` per direction. Null when the
     * name already exists (a live region is never displaced) or the
     * region cannot be built. The creator end is usable immediately —
     * frames queue in the ring until a peer attaches.
     */
    static std::unique_ptr<ShmChannel>
    create(const std::string &name, std::size_t slotBytes,
           std::size_t slotCount = kShmDefaultSlots);

    /**
     * Attach to a created region, polling up to `timeoutMs` for the
     * name to appear and initialize. Null on timeout, on geometry /
     * version mismatch, or when another peer already claimed the
     * attached end.
     */
    static std::unique_ptr<ShmChannel> attach(const std::string &name,
                                              int timeoutMs);

    const std::string &name() const { return name_; }
    std::size_t slotBytes() const { return slotBytes_; }
    std::size_t slotCount() const { return slotCount_; }

    /**
     * The raw mapped region. Only for tests, which corrupt ring
     * metadata and slot framing through it to prove the receive path
     * fails closed; not part of the transport surface.
     */
    std::uint8_t *rawRegionForTest() { return base_; }
    std::size_t regionBytesForTest() const { return regionBytes_; }

  private:
    ShmChannel(std::uint8_t *base, std::size_t regionBytes, int role,
               bool creator, std::string name);

    /** Wait until the recv ring holds a frame (spin, then futex). */
    bool waitForFrame();
    /** Wait until the send ring has a free slot (spin, then futex). */
    bool waitForSpace();
    /** Return the slot borrowed by the previous recvFrameView(). */
    void releaseBorrowedSlot();
    /** Stamp the length prefix and release-publish the head slot. */
    void publish(std::size_t payloadBytes);
    /** Mark this end closed and wake any sleeping peer. */
    void markClosed();
    /** Creator side: unlink the name once a peer has attached. */
    void maybeUnlink();

    std::uint8_t *base_ = nullptr;
    std::size_t regionBytes_ = 0;
    int role_ = 0; ///< 0 = creator (coordinator end), 1 = attached end
    bool creator_ = false;
    bool unlinked_ = false;
    std::string name_;
    std::size_t slotBytes_ = 0;
    std::size_t slotCount_ = 0;
    int recvTimeoutMs_ = 0; ///< 0 = unbounded (worker side idles freely)
    bool broken_ = false;   ///< fail-closed: all later I/O reports failure
    bool timedOut_ = false; ///< last failure was a bounded-wait expiry
    bool borrowed_ = false; ///< recv slot on loan until the next receive
    bool inPlaceOpen_ = false;    ///< between beginFrame and endFrame
    bool inPlaceDropped_ = false; ///< in-place frame targets discard_
    WireWriter slotWriter_; ///< attached to the send slot by beginFrame()
    std::vector<std::uint8_t> discard_; ///< beginFrame target when broken
};

/**
 * Recoverable diagnosis of a coordinator-side receive failure: names
 * the worker and distinguishes a recv-timeout expiry (dead or wedged
 * worker) from a closed channel. The recovery path acts on this status
 * (respawn + restore + replay) instead of dying; shardRecvFailure() is
 * the fatal form kept for fail-hard deployments and no-recovery
 * configurations.
 */
struct ShardError
{
    enum class Kind
    {
        RecvTimeout,   ///< SO_RCVTIMEO expired: dead or wedged worker
        ChannelClosed, ///< orderly close / broken stream / empty loopback
    };

    Kind kind = Kind::ChannelClosed;
    Index worker = 0;
    std::uint64_t seq = 0;
    const char *what = "step"; ///< protocol unit being gathered

    /** The human-readable diagnosis shardRecvFailure() would print. */
    std::string describe() const;
};

/** Classify a receive failure without dying (the recovery path). */
ShardError shardRecvError(const Channel &channel, const char *what,
                          std::uint64_t seq, Index worker);

/**
 * Replacement-channel factory installed by the cluster harness: spawn
 * (or accept) a fresh worker process for slot `worker` and return a
 * connected channel to it, or null when no replacement can be produced
 * (which makes the loss fatal after all). The returned worker must be
 * unconfigured — the coordinator drives the Rejoin/Restore/replay
 * sequence itself.
 */
using ShardRespawnFn = std::function<std::unique_ptr<Channel>(Index worker)>;

/**
 * Fatal form of shardRecvError(): prints the same diagnosis and dies.
 * Used when no recovery is configured (no respawner, checkpointing
 * off) or when the caller explicitly asked to fail hard.
 */
[[noreturn]] void shardRecvFailure(const Channel &channel, const char *what,
                                   std::uint64_t seq, Index worker);

/** Bound+listening server socket that accepts SocketChannels. */
class SocketListener
{
  public:
    ~SocketListener();

    SocketListener(const SocketListener &) = delete;
    SocketListener &operator=(const SocketListener &) = delete;

    /**
     * Listen on a Unix-domain path; null on error. A stale socket file
     * left by a crashed worker is unlinked, but only after a probe
     * connect proves nobody is accepting on it — a second listener on a
     * live path fails instead of silently stealing the first one's
     * socket out from under its clients.
     */
    static std::unique_ptr<SocketListener>
    listenUnix(const std::string &path);

    /** Listen on 127.0.0.1:port (0 = ephemeral); null on error. */
    static std::unique_ptr<SocketListener> listenTcp(std::uint16_t port);

    /** Block until one peer connects; null on error. */
    std::unique_ptr<SocketChannel> accept();

    /**
     * Accept with a bounded wait: null when no peer connects within
     * `ms` milliseconds (EINTR-safe — signal interruptions re-wait with
     * the remaining budget). Bounds the coordinator's respawn/rejoin
     * wait so a replacement worker that never comes back surfaces as a
     * recovery failure instead of a hang.
     */
    std::unique_ptr<SocketChannel> acceptWithTimeout(int ms);

    /** Actual bound TCP port (after port-0 resolution); 0 for Unix. */
    std::uint16_t port() const { return port_; }

    const std::string &path() const { return path_; }

  private:
    SocketListener(int fd, std::uint16_t port, std::string path)
        : fd_(fd), port_(port), path_(std::move(path))
    {}

    int fd_;
    std::uint16_t port_;
    std::string path_; ///< unlinked on destruction (Unix only)
};

} // namespace hima

#endif // HIMA_SHARD_TRANSPORT_H
