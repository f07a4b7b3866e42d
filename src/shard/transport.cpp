#include "shard/transport.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "obs/obs.h"
#include "shard/wire.h"

namespace hima {

namespace {

/** Transport wait/timeout series (slow paths only — never per frame). */
struct WaitMetrics
{
    obs::Counter *sendTimeouts;
    obs::Counter *recvTimeouts;
    obs::Counter *futexWaits;
    obs::Counter *spinExhausted;

    WaitMetrics()
    {
        obs::Registry &reg = obs::Registry::instance();
        sendTimeouts = &reg.counter("wire.timeout.send");
        recvTimeouts = &reg.counter("wire.timeout.recv");
        futexWaits = &reg.counter("wire.shm.futex_waits");
        spinExhausted = &reg.counter("wire.shm.spin_exhausted");
    }

    static WaitMetrics &
    get()
    {
        static WaitMetrics metrics;
        return metrics;
    }
};

// Waits fire data-dependently (a spin budget runs out under load), so
// they cannot rely on a warm-up call to do the one-time registration
// the zero-alloc contract pushes out of steady state; register at load.
[[maybe_unused]] const WaitMetrics &g_waitMetricsInit = WaitMetrics::get();

} // namespace

// --------------------------------------------------------------------
// Wire traffic reporting
// --------------------------------------------------------------------

std::vector<WireTrafficRow>
wireTrafficRows(const WireTrafficStats &sent,
                const WireTrafficStats &received, double steps)
{
    std::vector<WireTrafficRow> rows;
    if (steps <= 0.0)
        steps = 1.0;
    for (std::size_t t = 1; t < kMsgTypeCount; ++t) {
        const std::uint64_t frames = sent.frames[t] + received.frames[t];
        if (frames == 0)
            continue;
        WireTrafficRow row;
        row.type = static_cast<MsgType>(t);
        row.name = msgTypeName(row.type);
        row.framesPerStep = static_cast<double>(frames) / steps;
        row.bytesOutPerStep = static_cast<double>(sent.bytes[t]) / steps;
        row.bytesInPerStep =
            static_cast<double>(received.bytes[t]) / steps;
        rows.push_back(row);
    }
    return rows;
}

void
formatWireTrafficTable(const WireTrafficStats &sent,
                       const WireTrafficStats &received, double steps,
                       std::string &out)
{
    for (const WireTrafficRow &row :
         wireTrafficRows(sent, received, steps)) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %-17s %7.1f frames  %10.1f B out  %10.1f B in\n",
                      row.name, row.framesPerStep, row.bytesOutPerStep,
                      row.bytesInPerStep);
        out += line;
    }
}

// --------------------------------------------------------------------
// LoopbackChannel
// --------------------------------------------------------------------

LoopbackChannel::LoopbackChannel(Service service)
    : service_(std::move(service)), inbox_(*this)
{
    HIMA_ASSERT(static_cast<bool>(service_),
                "LoopbackChannel: null service");
}

void
LoopbackChannel::Inbox::sendFrame(const std::uint8_t *data, std::size_t size)
{
    owner_.push(data, size);
}

void
LoopbackChannel::push(const std::uint8_t *data, std::size_t size)
{
    receivedStats_.note(data, size);
    if (count_ == ring_.size()) {
        // Depth record: grow the ring (the only allocating path).
        ring_.emplace_back();
        // Keep the pending window contiguous after the growth point.
        if (head_ != 0) {
            std::rotate(ring_.begin(), ring_.begin() + head_,
                        ring_.end() - 1);
            head_ = 0;
        }
    }
    std::vector<std::uint8_t> &slot = ring_[(head_ + count_) % ring_.size()];
    slot.assign(data, data + size); // reuses capacity
    ++count_;
    bytesReceived_ += size;
}

void
LoopbackChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    bytesSent_ += size;
    sentStats_.note(data, size);
    service_(data, size, inbox_);
}

bool
LoopbackChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    if (count_ == 0)
        return false;
    frame.assign(ring_[head_].begin(), ring_[head_].end());
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return true;
}

// --------------------------------------------------------------------
// Socket plumbing
// --------------------------------------------------------------------

namespace {

/** Like readFully below, reports an SO_SNDTIMEO expiry via `timedOut`. */
bool
writeFully(int fd, const std::uint8_t *data, std::size_t size,
           bool &timedOut)
{
    std::size_t done = 0;
    while (done < size) {
        // MSG_NOSIGNAL: a peer that died must surface as a recv/send
        // error the caller can report, not as a SIGPIPE process kill.
        const ssize_t n =
            ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                timedOut = true; // SO_SNDTIMEO expiry: the peer is
                                 // wedged (not reading), not dead
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** Like readFully, but reports an SO_RCVTIMEO expiry via `timedOut`. */
bool
readFully(int fd, std::uint8_t *data, std::size_t size, bool &timedOut)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, data + done, size - done);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                timedOut = true; // bounded-recv expiry, not peer death
            return false; // timeout, EOF or hard error
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

void
setNoDelay(int fd)
{
    // The protocol is strict request/response with small frames; Nagle
    // only adds latency to the gather. Harmlessly fails on AF_UNIX.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

SocketChannel::SocketChannel(int fd) : fd_(fd)
{
    HIMA_ASSERT(fd_ >= 0, "SocketChannel: bad fd");
}

SocketChannel::~SocketChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SocketChannel::queueFrame(const std::uint8_t *data, std::size_t size)
{
    HIMA_ASSERT(size <= kWireMaxFrameBytes, "frame too large: %zu", size);
    sentStats_.note(data, size);
    std::uint8_t len[4];
    for (int b = 0; b < 4; ++b)
        len[b] = static_cast<std::uint8_t>(size >> (8 * b));
    sendBuf_.insert(sendBuf_.end(), len, len + 4);
    sendBuf_.insert(sendBuf_.end(), data, data + size);
}

void
SocketChannel::flush()
{
    if (sendBuf_.empty())
        return;
    obs::TraceSpan span("wire.flush", sendBuf_.size());
    if (!broken_ &&
        !writeFully(fd_, sendBuf_.data(), sendBuf_.size(),
                    sendTimedOut_)) {
        if (sendTimedOut_)
            WaitMetrics::get().sendTimeouts->add();
        // Dead peer: drop the batch and let the next recvFrame() report
        // the failure in context (the coordinator turns it into a fatal
        // protocol error; a best-effort Shutdown in a destructor is
        // allowed to fail silently). An SO_SNDTIMEO expiry lands in
        // sendTimedOut_ so timedOut() diagnoses a wedged-but-alive peer
        // as a timeout rather than peer death.
        broken_ = true;
    }
    if (!broken_)
        bytesSent_ += sendBuf_.size();
    sendBuf_.clear(); // keeps capacity: steady-state sends allocate nothing
}

void
SocketChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    // One buffered [len][payload] write per frame — a single syscall
    // instead of two even in the unbatched path.
    queueFrame(data, size);
    flush();
}

void
SocketChannel::setRecvTimeout(int ms)
{
    HIMA_ASSERT(ms >= 0, "SocketChannel: negative recv timeout %d", ms);
    // A zero timeval means "block forever" to the kernel — the exact
    // opposite of the immediate bound a caller asking for 0 means.
    // Clamp to the smallest representable bound instead.
    ms = std::max(ms, 1);
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Bound sends with the same budget: with frames in flight on both
    // directions, mutually full kernel buffers would otherwise turn
    // into an unbounded write-write deadlock. writeFully treats the
    // expiry (EAGAIN) as a failure, which flush() makes sticky.
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool
SocketChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    timedOut_ = false;
    if (broken_)
        return false;
    obs::TraceSpan span("wire.recv");
    // Every failure is sticky: a partial read leaves the stream
    // position unknown, so a later retry would misparse payload bytes
    // as a length prefix. The protocol has no mid-stream resync.
    std::uint8_t len[4];
    if (!readFully(fd_, len, 4, timedOut_)) {
        if (timedOut_)
            WaitMetrics::get().recvTimeouts->add();
        broken_ = true;
        return false;
    }
    std::uint32_t size = 0;
    for (int b = 0; b < 4; ++b)
        size |= static_cast<std::uint32_t>(len[b]) << (8 * b);
    if (size > kWireMaxFrameBytes) {
        broken_ = true; // garbage length: refuse to allocate
        return false;
    }
    frame.resize(size);
    if (size > 0 && !readFully(fd_, frame.data(), size, timedOut_)) {
        if (timedOut_)
            WaitMetrics::get().recvTimeouts->add();
        broken_ = true;
        return false;
    }
    bytesReceived_ += size + 4u;
    receivedStats_.note(frame.data(), frame.size());
    return true;
}

std::unique_ptr<SocketChannel>
SocketChannel::connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return nullptr;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return nullptr;
    }
    return std::make_unique<SocketChannel>(fd);
}

std::unique_ptr<SocketChannel>
SocketChannel::connectTcp(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return nullptr;
    }
    setNoDelay(fd);
    return std::make_unique<SocketChannel>(fd);
}

std::string
ShardError::describe() const
{
    char buf[160];
    if (kind == Kind::RecvTimeout)
        std::snprintf(buf, sizeof(buf),
                      "shard %s %llu: worker %zu exceeded the recv timeout "
                      "(dead or wedged worker)",
                      what, static_cast<unsigned long long>(seq), worker);
    else
        std::snprintf(buf, sizeof(buf),
                      "shard %s %llu: worker %zu closed the channel", what,
                      static_cast<unsigned long long>(seq), worker);
    return buf;
}

ShardError
shardRecvError(const Channel &channel, const char *what, std::uint64_t seq,
               Index worker)
{
    ShardError err;
    // Every transport self-reports timeout expiry through the Channel
    // virtual (loopback never times out; sockets and shm both do), so
    // the diagnosis needs no downcast and new backends classify
    // correctly for free.
    err.kind = channel.timedOut() ? ShardError::Kind::RecvTimeout
                                  : ShardError::Kind::ChannelClosed;
    err.worker = worker;
    err.seq = seq;
    err.what = what;
    return err;
}

void
shardRecvFailure(const Channel &channel, const char *what,
                 std::uint64_t seq, Index worker)
{
    HIMA_FATAL("%s",
               shardRecvError(channel, what, seq, worker).describe().c_str());
}

// --------------------------------------------------------------------
// SocketListener
// --------------------------------------------------------------------

SocketListener::~SocketListener()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!path_.empty())
        ::unlink(path_.c_str());
}

std::unique_ptr<SocketListener>
SocketListener::listenUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return nullptr;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // A socket file already on the path is either a stale leftover from
    // a crashed worker (safe to unlink) or a *live* listener that must
    // not be stolen out from under its clients. Probe-connect to tell
    // them apart: a successful connect means someone is accepting, so
    // fail the double-bind; ECONNREFUSED/ENOENT mean nobody is home.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe < 0) {
            ::close(fd);
            return nullptr;
        }
        const bool alive = ::connect(probe,
                                     reinterpret_cast<sockaddr *>(&addr),
                                     sizeof(addr)) == 0;
        ::close(probe);
        if (alive) {
            ::close(fd);
            return nullptr; // live listener on this path: refuse
        }
        ::unlink(path.c_str()); // confirmed-stale socket file
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<SocketListener>(
        new SocketListener(fd, 0, path));
}

std::unique_ptr<SocketListener>
SocketListener::listenTcp(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return nullptr;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        ::close(fd);
        return nullptr;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<SocketListener>(
        new SocketListener(fd, ntohs(addr.sin_port), ""));
}

std::unique_ptr<SocketChannel>
SocketListener::accept()
{
    while (true) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            if (path_.empty()) // TCP listener: disable Nagle both ends
                setNoDelay(fd);
            return std::make_unique<SocketChannel>(fd);
        }
        if (errno != EINTR)
            return nullptr;
    }
}

// --------------------------------------------------------------------
// ShmChannel
// --------------------------------------------------------------------

namespace {

/**
 * One direction of the shared region: a single-producer /
 * single-consumer ring of fixed-stride frame slots. head/tail count
 * frames monotonically (slot index = count % slotCount; full = head -
 * tail == slotCount) and live on their own cache lines. dataSeq /
 * spaceSeq are eventcount futex words — bumped after every publish /
 * consume — and the waiter counters let the fast path skip the wake
 * syscall entirely while the peer is still spinning.
 */
struct alignas(64) ShmRing
{
    std::atomic<std::uint64_t> head; ///< frames published (producer-owned)
    char padHead[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint64_t> tail; ///< frames consumed (consumer-owned)
    char padTail[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint32_t> dataSeq; ///< futex word: frame published
    std::atomic<std::uint32_t> dataWaiters;
    char padData[64 - 2 * sizeof(std::atomic<std::uint32_t>)];
    std::atomic<std::uint32_t> spaceSeq; ///< futex word: slot freed
    std::atomic<std::uint32_t> spaceWaiters;
    char padSpace[64 - 2 * sizeof(std::atomic<std::uint32_t>)];
};

constexpr std::uint64_t kShmMagic = 0x31414D4948534D48ull; // "HMSHIMA1"
constexpr std::uint32_t kShmLayoutVersion = 1;

/**
 * Spin budget before sleeping on the futex. The peer is typically
 * mid-encode or mid-step for only microseconds, so a short spin dodges
 * the sleep/wake round trip on the hot path entirely — but only when
 * the peer can actually run in parallel. On a single-CPU box every
 * spin iteration delays the very thread that would publish the data,
 * so shmSpinIters() collapses the budget to zero there and waits go
 * straight to the futex (an immediate, scheduler-friendly handoff).
 */
constexpr int kShmSpinIters = 2048;

int
shmSpinIters()
{
    static const int iters =
        std::thread::hardware_concurrency() > 1 ? kShmSpinIters : 0;
    return iters;
}

/**
 * Yield budget between the spin and the futex sleep. sched_yield()
 * hands the core to the runnable peer — on a single CPU that is
 * exactly the thread that will publish the data we are waiting for —
 * so the common synchronous round trip completes with no futex
 * syscalls at all on either side (the sleeper never registers as a
 * waiter, so the producer skips its wake too). A peer that is truly
 * idle or dead exhausts the budget quickly and the wait falls through
 * to the deadline-bounded futex exactly as before.
 */
constexpr int kShmYieldTries = 64;

struct ShmHeader
{
    std::atomic<std::uint64_t> magic; ///< stored last by create(): a
                                      ///< half-built region is invisible
    std::uint32_t layoutVersion;
    std::uint32_t slotBytes;
    std::uint32_t slotCount;
    std::uint32_t pad;
    std::atomic<std::uint32_t> attached;  ///< CAS 0->1 claims the worker end
    std::atomic<std::uint32_t> closed[2]; ///< per role: this end hung up
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings need lock-free 64-bit atomics");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "futex words need lock-free 32-bit atomics");

constexpr std::size_t
roundUpTo(std::size_t v, std::size_t a)
{
    return (v + a - 1) / a * a;
}

constexpr std::size_t
shmSlotStride(std::size_t slotBytes)
{
    return 8 + roundUpTo(slotBytes, 8); // [u64 length][payload]
}

constexpr std::size_t
shmRingSpan(std::size_t slotBytes, std::size_t slotCount)
{
    return roundUpTo(sizeof(ShmRing) + slotCount * shmSlotStride(slotBytes),
                     64);
}

std::size_t
shmRegionSpan(std::size_t slotBytes, std::size_t slotCount)
{
    return roundUpTo(sizeof(ShmHeader), 64) +
           2 * shmRingSpan(slotBytes, slotCount);
}

ShmHeader *
shmHeader(std::uint8_t *base)
{
    return reinterpret_cast<ShmHeader *>(base);
}

/** Ring 0 carries creator→attached traffic; ring 1 the reverse. */
ShmRing *
shmRingAt(std::uint8_t *base, std::size_t slotBytes, std::size_t slotCount,
          int which)
{
    return reinterpret_cast<ShmRing *>(
        base + roundUpTo(sizeof(ShmHeader), 64) +
        static_cast<std::size_t>(which) * shmRingSpan(slotBytes, slotCount));
}

std::uint8_t *
shmSlotAt(ShmRing *ring, std::size_t slotBytes, std::size_t slotCount,
          std::uint64_t index)
{
    return reinterpret_cast<std::uint8_t *>(ring) + sizeof(ShmRing) +
           static_cast<std::size_t>(index % slotCount) *
               shmSlotStride(slotBytes);
}

long
futexWait(std::atomic<std::uint32_t> *word, std::uint32_t expected,
          const timespec *relTimeout)
{
    return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(word),
                     FUTEX_WAIT, expected, relTimeout, nullptr, 0);
}

void
futexWakeAll(std::atomic<std::uint32_t> *word)
{
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(word), FUTEX_WAKE,
              INT_MAX, nullptr, nullptr, 0);
}

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

} // namespace

std::size_t
shmSlotBytesFor(const DncConfig &shard, Index tiles, Index hostedTiles,
                Index lanes)
{
    const auto n = static_cast<std::size_t>(shard.memoryRows);
    const auto w = static_cast<std::size_t>(shard.memoryWidth);
    const auto r = static_cast<std::size_t>(shard.readHeads);
    const std::size_t hosted = std::max<std::size_t>(1, hostedTiles);
    const std::size_t laneCount = std::max<std::size_t>(1, lanes);
    const std::size_t states = hosted * laneCount;
    // CheckpointState / Restore carry full MemoryUnit state per
    // (lane, tile), by far the largest frame the protocol produces.
    // The row-sparse tile body peaks at full occupancy: memory N*W and
    // linkage N*N with a u32 index per row (8N), usage + precedence +
    // write weighting 3N, read weightings R*N, and two u32 counts. The
    // bound below — (4 + R)N Reals and 16 bytes of counts per state —
    // covers that worst case with 8 bytes to spare.
    const std::size_t snapshot =
        states * (8 * (n * w + n * n + (4 + r) * n) + 16);
    // Scatter: one interface vector (+ per-entry framing) per lane, or
    // a per-tile step's Nt interfaces.
    const std::size_t iface = 8 * (r * w + 3 * w + 8 * r + 16) + 64;
    const std::size_t scatter =
        std::max<std::size_t>(laneCount, tiles) * iface;
    // Replies with weightings: reads R*W, weightings (1+R)*N, scores.
    const std::size_t reply = 8 * states * (r * w + (1 + r) * n + r + 8);
    // StatsReport scrapes are name+counter rows plus sparse histogram
    // buckets — small next to state frames, but tiny-tile configs can
    // shrink `snapshot` below a fleet scrape, so give stats a floor.
    const std::size_t stats = 64 * 1024;
    std::size_t bytes = std::max({snapshot, scatter, reply, stats}) + 512;
    bytes = roundUpTo(bytes, 4096);
    return std::min<std::size_t>(bytes, kWireMaxFrameBytes);
}

ShmChannel::ShmChannel(std::uint8_t *base, std::size_t regionBytes, int role,
                       bool creator, std::string name)
    : base_(base), regionBytes_(regionBytes), role_(role), creator_(creator),
      name_(std::move(name))
{
    const ShmHeader *hdr = shmHeader(base_);
    slotBytes_ = hdr->slotBytes;
    slotCount_ = hdr->slotCount;
}

ShmChannel::~ShmChannel()
{
    if (base_ == nullptr)
        return;
    releaseBorrowedSlot();
    markClosed();
    if (creator_ && !unlinked_)
        ::shm_unlink(name_.c_str());
    ::munmap(base_, regionBytes_);
}

std::unique_ptr<ShmChannel>
ShmChannel::create(const std::string &name, std::size_t slotBytes,
                   std::size_t slotCount)
{
    HIMA_ASSERT(!name.empty() && name.front() == '/',
                "ShmChannel: shm names start with '/'");
    HIMA_ASSERT(slotCount >= 2, "ShmChannel: need at least 2 slots");
    slotBytes = std::clamp<std::size_t>(roundUpTo(slotBytes, 8), 256,
                                        kWireMaxFrameBytes);
    const std::size_t regionBytes = shmRegionSpan(slotBytes, slotCount);
    // O_EXCL: never displace an existing name — a collision is either a
    // live channel (stealing it would corrupt SPSC ownership) or a
    // crashed run's leftover the operator should clear deliberately.
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0)
        return nullptr;
    if (::ftruncate(fd, static_cast<off_t>(regionBytes)) != 0) {
        ::close(fd);
        ::shm_unlink(name.c_str());
        return nullptr;
    }
    void *map = ::mmap(nullptr, regionBytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps the region alive
    if (map == MAP_FAILED) {
        ::shm_unlink(name.c_str());
        return nullptr;
    }
    auto *base = static_cast<std::uint8_t *>(map);
    ShmHeader *hdr = shmHeader(base);
    // Fresh tmpfs pages are zero-filled, so head/tail/seq/attached/
    // closed already hold their initial values; stamp the geometry and
    // then publish the region with a release store of the magic.
    hdr->layoutVersion = kShmLayoutVersion;
    hdr->slotBytes = static_cast<std::uint32_t>(slotBytes);
    hdr->slotCount = static_cast<std::uint32_t>(slotCount);
    hdr->magic.store(kShmMagic, std::memory_order_release);
    return std::unique_ptr<ShmChannel>(
        new ShmChannel(base, regionBytes, /*role=*/0, /*creator=*/true,
                       name));
}

std::unique_ptr<ShmChannel>
ShmChannel::attach(const std::string &name, int timeoutMs)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(std::max(timeoutMs, 0));
    while (true) {
        const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
        if (fd >= 0) {
            struct stat st{};
            const bool statOk = ::fstat(fd, &st) == 0;
            if (statOk &&
                static_cast<std::size_t>(st.st_size) >= sizeof(ShmHeader)) {
                const auto regionBytes =
                    static_cast<std::size_t>(st.st_size);
                void *map = ::mmap(nullptr, regionBytes,
                                   PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                                   0);
                ::close(fd);
                if (map != MAP_FAILED) {
                    auto *base = static_cast<std::uint8_t *>(map);
                    ShmHeader *hdr = shmHeader(base);
                    if (hdr->magic.load(std::memory_order_acquire) ==
                        kShmMagic) {
                        const bool sane =
                            hdr->layoutVersion == kShmLayoutVersion &&
                            regionBytes == shmRegionSpan(hdr->slotBytes,
                                                         hdr->slotCount);
                        std::uint32_t unclaimed = 0;
                        if (sane &&
                            hdr->attached.compare_exchange_strong(
                                unclaimed, 1, std::memory_order_acq_rel))
                            return std::unique_ptr<ShmChannel>(new ShmChannel(
                                base, regionBytes, /*role=*/1,
                                /*creator=*/false, name));
                        // Wrong layout or a peer already claimed the
                        // attached end: permanently unusable for us.
                        ::munmap(map, regionBytes);
                        return nullptr;
                    }
                    // Magic not published yet: creator mid-init, retry.
                    ::munmap(map, regionBytes);
                }
            } else {
                ::close(fd); // ftruncate pending: retry
            }
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return nullptr;
        ::usleep(1000);
    }
}

void
ShmChannel::setRecvTimeout(int ms)
{
    HIMA_ASSERT(ms >= 0, "ShmChannel: negative recv timeout %d", ms);
    recvTimeoutMs_ = std::max(ms, 1); // 0 would mean "wait forever"
}

void
ShmChannel::maybeUnlink()
{
    if (!creator_ || unlinked_)
        return;
    if (shmHeader(base_)->attached.load(std::memory_order_acquire) != 0) {
        // A peer holds its own mapping now, so the name has done its
        // rendezvous job; unlinking here means a crashed run leaves no
        // /dev/shm litter behind.
        ::shm_unlink(name_.c_str());
        unlinked_ = true;
    }
}

void
ShmChannel::markClosed()
{
    ShmHeader *hdr = shmHeader(base_);
    hdr->closed[role_].store(1, std::memory_order_release);
    for (int which = 0; which < 2; ++which) {
        ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, which);
        // Bump both eventcounts so any sleeper's futex compare fails
        // even if the wake races its registration.
        ring->dataSeq.fetch_add(1, std::memory_order_seq_cst);
        futexWakeAll(&ring->dataSeq);
        ring->spaceSeq.fetch_add(1, std::memory_order_seq_cst);
        futexWakeAll(&ring->spaceSeq);
    }
}

bool
ShmChannel::waitForFrame()
{
    ShmHeader *hdr = shmHeader(base_);
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, 1 - role_);
    const std::uint64_t t = ring->tail.load(std::memory_order_relaxed);
    for (int spin = 0, budget = shmSpinIters(); spin < budget; ++spin) {
        if (ring->head.load(std::memory_order_acquire) > t)
            return true;
        if (hdr->closed[1 - role_].load(std::memory_order_acquire) != 0 &&
            ring->head.load(std::memory_order_acquire) == t)
            return false; // peer closed and the ring is drained: EOF
        cpuRelax();
    }
    WaitMetrics::get().spinExhausted->add();
    const bool bounded = recvTimeoutMs_ > 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(recvTimeoutMs_);
    int yields = kShmYieldTries;
    while (true) {
        const std::uint32_t seq = ring->dataSeq.load(std::memory_order_acquire);
        if (ring->head.load(std::memory_order_acquire) > t)
            return true;
        if (hdr->closed[1 - role_].load(std::memory_order_acquire) != 0 &&
            ring->head.load(std::memory_order_acquire) == t)
            return false;
        if (yields > 0) {
            --yields;
            ::sched_yield();
            continue;
        }
        timespec rel{};
        timespec *relPtr = nullptr;
        if (bounded) {
            const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline - std::chrono::steady_clock::now());
            if (left.count() <= 0) {
                WaitMetrics::get().recvTimeouts->add();
                timedOut_ = true;
                broken_ = true; // sticky, like a socket recv expiry
                return false;
            }
            rel.tv_sec = static_cast<time_t>(left.count() / 1000000000);
            rel.tv_nsec = static_cast<long>(left.count() % 1000000000);
            relPtr = &rel;
        }
        ring->dataWaiters.fetch_add(1, std::memory_order_seq_cst);
        // Re-check while registered: a publish that raced the
        // registration either shows up here or moved dataSeq, in which
        // case the futex compare below fails immediately.
        if (ring->head.load(std::memory_order_seq_cst) > t ||
            hdr->closed[1 - role_].load(std::memory_order_seq_cst) != 0) {
            ring->dataWaiters.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        WaitMetrics::get().futexWaits->add();
        const long rc = futexWait(&ring->dataSeq, seq, relPtr);
        ring->dataWaiters.fetch_sub(1, std::memory_order_relaxed);
        if (rc == -1 && errno == ETIMEDOUT) {
            WaitMetrics::get().recvTimeouts->add();
            timedOut_ = true;
            broken_ = true;
            return false;
        }
        // Woken, EAGAIN (the eventcount already moved) or EINTR:
        // re-evaluate against the deadline.
    }
}

bool
ShmChannel::waitForSpace()
{
    ShmHeader *hdr = shmHeader(base_);
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, role_);
    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    for (int spin = 0, budget = shmSpinIters(); spin < budget; ++spin) {
        if (hdr->closed[1 - role_].load(std::memory_order_acquire) != 0) {
            broken_ = true; // nobody will ever drain the ring
            return false;
        }
        if (h - ring->tail.load(std::memory_order_acquire) < slotCount_)
            return true;
        cpuRelax();
    }
    WaitMetrics::get().spinExhausted->add();
    const bool bounded = recvTimeoutMs_ > 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(recvTimeoutMs_);
    int yields = kShmYieldTries;
    while (true) {
        const std::uint32_t seq =
            ring->spaceSeq.load(std::memory_order_acquire);
        if (hdr->closed[1 - role_].load(std::memory_order_acquire) != 0) {
            broken_ = true;
            return false;
        }
        if (h - ring->tail.load(std::memory_order_acquire) < slotCount_)
            return true;
        if (yields > 0) {
            --yields;
            ::sched_yield();
            continue;
        }
        timespec rel{};
        timespec *relPtr = nullptr;
        if (bounded) {
            const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline - std::chrono::steady_clock::now());
            if (left.count() <= 0) {
                // The peer is alive enough to keep the region mapped
                // but is not consuming: the send-side analogue of an
                // SO_SNDTIMEO expiry (wedged, not dead).
                WaitMetrics::get().sendTimeouts->add();
                timedOut_ = true;
                broken_ = true;
                return false;
            }
            rel.tv_sec = static_cast<time_t>(left.count() / 1000000000);
            rel.tv_nsec = static_cast<long>(left.count() % 1000000000);
            relPtr = &rel;
        }
        ring->spaceWaiters.fetch_add(1, std::memory_order_seq_cst);
        if (hdr->closed[1 - role_].load(std::memory_order_seq_cst) != 0 ||
            h - ring->tail.load(std::memory_order_seq_cst) < slotCount_) {
            ring->spaceWaiters.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        WaitMetrics::get().futexWaits->add();
        const long rc = futexWait(&ring->spaceSeq, seq, relPtr);
        ring->spaceWaiters.fetch_sub(1, std::memory_order_relaxed);
        if (rc == -1 && errno == ETIMEDOUT) {
            WaitMetrics::get().sendTimeouts->add();
            timedOut_ = true;
            broken_ = true;
            return false;
        }
    }
}

void
ShmChannel::publish(std::size_t payloadBytes)
{
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, role_);
    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    std::uint8_t *slot = shmSlotAt(ring, slotBytes_, slotCount_, h);
    const auto len = static_cast<std::uint64_t>(payloadBytes);
    std::memcpy(slot, &len, sizeof(len)); // invisible until head moves
    ring->head.store(h + 1, std::memory_order_release);
    ring->dataSeq.fetch_add(1, std::memory_order_seq_cst);
    if (ring->dataWaiters.load(std::memory_order_seq_cst) != 0)
        futexWakeAll(&ring->dataSeq);
}

void
ShmChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    obs::TraceSpan span("wire.send", size);
    sentStats_.note(data, size);
    maybeUnlink();
    if (broken_)
        return; // dropped; surfaces on the next receive (socket semantics)
    HIMA_ASSERT(size <= slotBytes_,
                "ShmChannel: %zu-byte frame exceeds the %zu-byte slots "
                "(size the region with shmSlotBytesFor)",
                size, slotBytes_);
    if (!waitForSpace())
        return;
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, role_);
    std::uint8_t *slot = shmSlotAt(ring, slotBytes_, slotCount_,
                                   ring->head.load(std::memory_order_relaxed));
    std::memcpy(slot + 8, data, size);
    publish(size);
    bytesSent_ += size + 8;
}

WireWriter *
ShmChannel::beginFrame()
{
    HIMA_ASSERT(!inPlaceOpen_, "ShmChannel: beginFrame without endFrame");
    inPlaceOpen_ = true;
    maybeUnlink();
    if (broken_ || !waitForSpace()) {
        // No slot will ever come (peer dead or wedged): hand the
        // encoder a discard target so call sites stay branch-free; the
        // frame is dropped at endFrame() and the failure surfaces on
        // the next receive, exactly like a socket flush to a dead peer.
        inPlaceDropped_ = true;
        discard_.resize(slotBytes_);
        slotWriter_.attachExternal(discard_.data(), discard_.size());
        return &slotWriter_;
    }
    inPlaceDropped_ = false;
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, role_);
    std::uint8_t *slot = shmSlotAt(ring, slotBytes_, slotCount_,
                                   ring->head.load(std::memory_order_relaxed));
    slotWriter_.attachExternal(slot + 8, slotBytes_);
    return &slotWriter_;
}

void
ShmChannel::endFrame()
{
    HIMA_ASSERT(inPlaceOpen_, "ShmChannel: endFrame without beginFrame");
    inPlaceOpen_ = false;
    const std::size_t size = slotWriter_.size();
    sentStats_.note(slotWriter_.data(), size);
    if (!inPlaceDropped_) {
        publish(size);
        bytesSent_ += size + 8;
    }
    inPlaceDropped_ = false;
    slotWriter_.detachExternal();
}

void
ShmChannel::releaseBorrowedSlot()
{
    if (!borrowed_)
        return;
    borrowed_ = false;
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, 1 - role_);
    const std::uint64_t t = ring->tail.load(std::memory_order_relaxed);
    ring->tail.store(t + 1, std::memory_order_release);
    ring->spaceSeq.fetch_add(1, std::memory_order_seq_cst);
    if (ring->spaceWaiters.load(std::memory_order_seq_cst) != 0)
        futexWakeAll(&ring->spaceSeq);
}

bool
ShmChannel::recvFrameView(const std::uint8_t *&data, std::size_t &size,
                          std::vector<std::uint8_t> &scratch)
{
    (void)scratch; // zero-copy path: the ring slot itself is the buffer
    obs::TraceSpan span("wire.recv");
    releaseBorrowedSlot();
    maybeUnlink();
    // broken_ freezes timedOut_: once the channel failed, the cause of
    // that first failure (send-wait expiry vs close) is the diagnosis,
    // and later receives must not relabel a wedged peer as dead.
    if (broken_)
        return false;
    timedOut_ = false;
    if (!waitForFrame())
        return false;
    ShmRing *ring = shmRingAt(base_, slotBytes_, slotCount_, 1 - role_);
    const std::uint64_t t = ring->tail.load(std::memory_order_relaxed);
    const std::uint8_t *slot = shmSlotAt(ring, slotBytes_, slotCount_, t);
    std::uint64_t len = 0;
    std::memcpy(&len, slot, sizeof(len));
    if (len > slotBytes_ || len > kWireMaxFrameBytes) {
        broken_ = true; // corrupt framing: refuse the slot, fail closed
        return false;
    }
    data = slot + 8;
    size = static_cast<std::size_t>(len);
    borrowed_ = true; // the slot stays on loan until the next receive
    bytesReceived_ += size + 8;
    receivedStats_.note(data, size);
    return true;
}

bool
ShmChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    if (!recvFrameView(data, size, frame))
        return false;
    frame.assign(data, data + size);
    releaseBorrowedSlot(); // copy taken: hand the slot back immediately
    return true;
}

std::unique_ptr<SocketChannel>
SocketListener::acceptWithTimeout(int ms)
{
    // A signal mid-wait must not shrink-or-reset the budget: re-poll
    // with whatever time remains against a fixed deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (true) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        const int budget = static_cast<int>(std::max<long long>(
            0, static_cast<long long>(left.count())));
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, budget);
        if (rc > 0)
            return accept(); // a pending connection: accept won't block
        if (rc == 0)
            return nullptr; // bounded wait expired
        if (errno != EINTR)
            return nullptr;
    }
}

} // namespace hima
