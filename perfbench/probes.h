/**
 * @file
 * Out-of-library timing probes for the serving benchmark's traced run.
 *
 * The library is measured from the outside: a forwarding LaneEngine
 * decorator sits between the Router and its engine, and a forwarding
 * Channel decorator sits on every coordinator-side shard channel. Each
 * forwarded call opens a span in a SpanLog, which keeps per-layer
 * inclusive and child-covered nanoseconds (so self time = inclusive -
 * children) and a bounded in-memory span record that is written out as
 * a Chrome trace only when the benchmark ends. Untraced runs do not
 * build these decorators at all, so they measure the library as
 * shipped.
 */

#ifndef HIMA_PERFBENCH_PROBES_H
#define HIMA_PERFBENCH_PROBES_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "shard/transport.h"

namespace hima::perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layer boundaries the benchmark times. */
enum class Layer : std::uint8_t
{
    RouterStep,
    EngineStep,
    EngineAdmit,
    EngineDrain,
    EngineRelease,
    ChannelSend,
    ChannelRecv,
    Count,
};

const char *layerName(Layer layer);

/**
 * Nested span recorder for one thread (the serving loop's). Aggregates
 * are kept for every span; the span records themselves stop at the
 * capacity fixed at construction, so recording never allocates.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity);

    /** Open a span of `layer` under the innermost open span. */
    void open(Layer layer, std::uint64_t arg);

    /** Close the innermost open span. */
    void close();

    /** Zero the aggregates and drop recorded spans. */
    void clear();

    std::uint64_t inclusiveNs(Layer l) const { return incl_[idx(l)]; }
    std::uint64_t childNs(Layer l) const { return child_[idx(l)]; }
    std::uint64_t selfNs(Layer l) const { return incl_[idx(l)] - child_[idx(l)]; }
    std::uint64_t calls(Layer l) const { return calls_[idx(l)]; }
    std::size_t recorded() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Write the recorded spans as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

    struct Span
    {
        std::int64_t start;
        std::int64_t end;
        std::int32_t parent; ///< index into spans_, -1 at the root
        Layer layer;
        std::uint64_t arg;
    };
    struct Open
    {
        Layer layer;
        std::int64_t start;
        std::int32_t record; ///< index into spans_, -1 when not stored
    };

    static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);
    static constexpr std::size_t kMaxDepth = 8;

    std::vector<Span> spans_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::array<Open, kMaxDepth> stack_{};
    std::size_t depth_ = 0;
    std::array<std::uint64_t, kLayers> incl_{};
    std::array<std::uint64_t, kLayers> child_{};
    std::array<std::uint64_t, kLayers> calls_{};
};

/** RAII span on a SpanLog. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, Layer layer, std::uint64_t arg = 0) : log_(log)
    {
        log_.open(layer, arg);
    }
    ~SpanScope() { log_.close(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
};

/** Virtual calls of LaneEngine, counted by the decorator's self-test. */
enum class EngineCall : std::uint8_t
{
    StepInto,
    Admit,
    MarkDraining,
    Release,
    LaneState,
    ActiveLanes,
    DrainingLanes,
    FreeLanes,
    Capacity,
    Reset,
    Config,
    Count,
};

/**
 * Forwarding LaneEngine: every call goes to the wrapped engine; the
 * stepping and lifecycle calls are timed into the SpanLog, and the
 * lanes each step covered are counted.
 */
class TimedEngine final : public LaneEngine
{
  public:
    TimedEngine(std::unique_ptr<LaneEngine> inner, SpanLog &log);

    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override;
    Index admit() override;
    void markDraining(Index slot) override;
    void release(Index slot) override;
    LaneState laneState(Index slot) const override;
    Index activeLanes() const override;
    Index drainingLanes() const override;
    Index freeLanes() const override;
    Index capacity() const override;
    void reset() override;
    const DncConfig &config() const override;

    /** Lane-steps the wrapped engine ran (active lanes summed per step). */
    std::uint64_t laneSteps() const { return laneSteps_; }
    void clearCounts();

    std::uint64_t
    callCount(EngineCall c) const
    {
        return calls_[static_cast<std::size_t>(c)];
    }

  private:
    void note(EngineCall c) const { ++calls_[static_cast<std::size_t>(c)]; }

    std::unique_ptr<LaneEngine> inner_;
    SpanLog &log_;
    std::uint64_t laneSteps_ = 0;
    mutable std::array<std::uint64_t, static_cast<std::size_t>(EngineCall::Count)>
        calls_{};
};

/** Virtual calls of Channel, counted by the decorator's self-test. */
enum class ChannelCall : std::uint8_t
{
    SendFrame,
    RecvFrame,
    RecvFrameView,
    QueueFrame,
    Flush,
    BeginFrame,
    EndFrame,
    SetRecvTimeout,
    TimedOut,
    Count,
};

/**
 * Forwarding Channel: sends (sendFrame, queueFrame, flush, and the
 * beginFrame/endFrame zero-copy pair) and receives (recvFrame,
 * recvFrameView) are timed into the SpanLog. beginFrame and endFrame
 * are timed as two spans, so encoding into a zero-copy slot stays
 * caller (codec) time. The wrapped channel keeps its own traffic
 * counters; read them through inner().
 */
class TimedChannel final : public Channel
{
  public:
    TimedChannel(std::unique_ptr<Channel> inner, SpanLog &log);

    void sendFrame(const std::uint8_t *data, std::size_t size) override;
    bool recvFrame(std::vector<std::uint8_t> &frame) override;
    bool recvFrameView(const std::uint8_t *&data, std::size_t &size,
                       std::vector<std::uint8_t> &scratch) override;
    void queueFrame(const std::uint8_t *data, std::size_t size) override;
    void flush() override;
    WireWriter *beginFrame() override;
    void endFrame() override;
    void setRecvTimeout(int ms) override;
    bool timedOut() const override;

    const Channel &inner() const { return *inner_; }

    std::uint64_t
    callCount(ChannelCall c) const
    {
        return calls_[static_cast<std::size_t>(c)];
    }

    /** recvFrameView results that pointed outside the caller's scratch. */
    std::uint64_t zeroCopyViews() const { return zeroCopyViews_; }

  private:
    void note(ChannelCall c) const { ++calls_[static_cast<std::size_t>(c)]; }

    std::unique_ptr<Channel> inner_;
    SpanLog &log_;
    std::uint64_t zeroCopyViews_ = 0;
    mutable std::array<std::uint64_t, static_cast<std::size_t>(ChannelCall::Count)>
        calls_{};
};

/**
 * Check that both decorators forward every virtual call: counting
 * fakes behind each decorator, then a live shared-memory pair whose
 * received view must still point into the ring, not the caller's
 * scratch. Returns an empty string on success, else what failed.
 */
std::string checkDecoratorForwarding();

} // namespace hima::perfbench

#endif // HIMA_PERFBENCH_PROBES_H
