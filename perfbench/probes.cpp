#include "probes.h"

#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/logging.h"

namespace hima::perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::RouterStep: return "router.step";
    case Layer::EngineStep: return "engine.step";
    case Layer::EngineAdmit: return "engine.admit";
    case Layer::EngineDrain: return "engine.mark_draining";
    case Layer::EngineRelease: return "engine.release";
    case Layer::ChannelSend: return "channel.send";
    case Layer::ChannelRecv: return "channel.recv";
    case Layer::Count: break;
    }
    return "?";
}

// --------------------------------------------------------------------
// SpanLog
// --------------------------------------------------------------------

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity_);
}

void
SpanLog::open(Layer layer, std::uint64_t arg)
{
    HIMA_ASSERT(depth_ < kMaxDepth, "SpanLog: spans nested too deeply");
    std::int32_t record = -1;
    const std::int64_t start = nowNs();
    if (spans_.size() < capacity_) {
        record = static_cast<std::int32_t>(spans_.size());
        const std::int32_t parent = depth_ > 0 ? stack_[depth_ - 1].record : -1;
        spans_.push_back(Span{start, start, parent, layer, arg});
    } else {
        ++dropped_;
    }
    stack_[depth_++] = Open{layer, start, record};
}

void
SpanLog::close()
{
    HIMA_ASSERT(depth_ > 0, "SpanLog: close without open");
    const std::int64_t end = nowNs();
    const Open top = stack_[--depth_];
    const auto dur = static_cast<std::uint64_t>(end - top.start);
    incl_[idx(top.layer)] += dur;
    ++calls_[idx(top.layer)];
    if (depth_ > 0)
        child_[idx(stack_[depth_ - 1].layer)] += dur;
    if (top.record >= 0)
        spans_[static_cast<std::size_t>(top.record)].end = end;
}

void
SpanLog::clear()
{
    HIMA_ASSERT(depth_ == 0, "SpanLog: clear with open spans");
    spans_.clear();
    dropped_ = 0;
    incl_.fill(0);
    child_.fill(0);
    calls_.fill(0);
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"otherData\":"
                      "{\"dropped_spans\":%llu},\"traceEvents\":[",
                 static_cast<unsigned long long>(dropped_));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"arg\":%llu}}",
                     i == 0 ? "" : ",", layerName(s.layer),
                     static_cast<double>(s.start - origin) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                     static_cast<unsigned long long>(s.arg));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

// --------------------------------------------------------------------
// TimedEngine
// --------------------------------------------------------------------

TimedEngine::TimedEngine(std::unique_ptr<LaneEngine> inner, SpanLog &log)
    : inner_(std::move(inner)), log_(log)
{
    HIMA_ASSERT(inner_ != nullptr, "TimedEngine: null engine");
}

void
TimedEngine::stepInto(const std::vector<Vector> &inputs,
                      std::vector<Vector> &outputs)
{
    note(EngineCall::StepInto);
    const Index lanes = inner_->activeLanes();
    laneSteps_ += lanes;
    SpanScope span(log_, Layer::EngineStep, lanes);
    inner_->stepInto(inputs, outputs);
}

Index
TimedEngine::admit()
{
    note(EngineCall::Admit);
    SpanScope span(log_, Layer::EngineAdmit);
    return inner_->admit();
}

void
TimedEngine::markDraining(Index slot)
{
    note(EngineCall::MarkDraining);
    SpanScope span(log_, Layer::EngineDrain, slot);
    inner_->markDraining(slot);
}

void
TimedEngine::release(Index slot)
{
    note(EngineCall::Release);
    SpanScope span(log_, Layer::EngineRelease, slot);
    inner_->release(slot);
}

LaneState
TimedEngine::laneState(Index slot) const
{
    note(EngineCall::LaneState);
    return inner_->laneState(slot);
}

Index
TimedEngine::activeLanes() const
{
    note(EngineCall::ActiveLanes);
    return inner_->activeLanes();
}

Index
TimedEngine::drainingLanes() const
{
    note(EngineCall::DrainingLanes);
    return inner_->drainingLanes();
}

Index
TimedEngine::freeLanes() const
{
    note(EngineCall::FreeLanes);
    return inner_->freeLanes();
}

Index
TimedEngine::capacity() const
{
    note(EngineCall::Capacity);
    return inner_->capacity();
}

void
TimedEngine::reset()
{
    note(EngineCall::Reset);
    inner_->reset();
}

const DncConfig &
TimedEngine::config() const
{
    note(EngineCall::Config);
    return inner_->config();
}

void
TimedEngine::clearCounts()
{
    laneSteps_ = 0;
    calls_.fill(0);
}

// --------------------------------------------------------------------
// TimedChannel
// --------------------------------------------------------------------

TimedChannel::TimedChannel(std::unique_ptr<Channel> inner, SpanLog &log)
    : inner_(std::move(inner)), log_(log)
{
    HIMA_ASSERT(inner_ != nullptr, "TimedChannel: null channel");
}

void
TimedChannel::sendFrame(const std::uint8_t *data, std::size_t size)
{
    note(ChannelCall::SendFrame);
    SpanScope span(log_, Layer::ChannelSend, size);
    inner_->sendFrame(data, size);
}

bool
TimedChannel::recvFrame(std::vector<std::uint8_t> &frame)
{
    note(ChannelCall::RecvFrame);
    SpanScope span(log_, Layer::ChannelRecv);
    return inner_->recvFrame(frame);
}

bool
TimedChannel::recvFrameView(const std::uint8_t *&data, std::size_t &size,
                            std::vector<std::uint8_t> &scratch)
{
    note(ChannelCall::RecvFrameView);
    bool ok = false;
    {
        SpanScope span(log_, Layer::ChannelRecv);
        ok = inner_->recvFrameView(data, size, scratch);
    }
    if (ok && data != scratch.data())
        ++zeroCopyViews_;
    return ok;
}

void
TimedChannel::queueFrame(const std::uint8_t *data, std::size_t size)
{
    note(ChannelCall::QueueFrame);
    SpanScope span(log_, Layer::ChannelSend, size);
    inner_->queueFrame(data, size);
}

void
TimedChannel::flush()
{
    note(ChannelCall::Flush);
    SpanScope span(log_, Layer::ChannelSend);
    inner_->flush();
}

WireWriter *
TimedChannel::beginFrame()
{
    note(ChannelCall::BeginFrame);
    SpanScope span(log_, Layer::ChannelSend);
    return inner_->beginFrame();
}

void
TimedChannel::endFrame()
{
    note(ChannelCall::EndFrame);
    SpanScope span(log_, Layer::ChannelSend);
    inner_->endFrame();
}

void
TimedChannel::setRecvTimeout(int ms)
{
    note(ChannelCall::SetRecvTimeout);
    inner_->setRecvTimeout(ms);
}

bool
TimedChannel::timedOut() const
{
    note(ChannelCall::TimedOut);
    return inner_->timedOut();
}

// --------------------------------------------------------------------
// Forwarding self-test
// --------------------------------------------------------------------

namespace {

/** LaneEngine that only counts which virtual reached it. */
class CountingEngine final : public LaneEngine
{
  public:
    mutable std::array<std::uint64_t, static_cast<std::size_t>(EngineCall::Count)> hits{};

    void stepInto(const std::vector<Vector> &, std::vector<Vector> &) override
    {
        hit(EngineCall::StepInto);
    }
    Index admit() override { hit(EngineCall::Admit); return 3; }
    void markDraining(Index) override { hit(EngineCall::MarkDraining); }
    void release(Index) override { hit(EngineCall::Release); }
    LaneState laneState(Index) const override
    {
        hit(EngineCall::LaneState);
        return LaneState::Draining;
    }
    Index activeLanes() const override { hit(EngineCall::ActiveLanes); return 5; }
    Index drainingLanes() const override { hit(EngineCall::DrainingLanes); return 6; }
    Index freeLanes() const override { hit(EngineCall::FreeLanes); return 7; }
    Index capacity() const override { hit(EngineCall::Capacity); return 8; }
    void reset() override { hit(EngineCall::Reset); }
    const DncConfig &config() const override
    {
        hit(EngineCall::Config);
        return config_;
    }

  private:
    void hit(EngineCall c) const { ++hits[static_cast<std::size_t>(c)]; }
    DncConfig config_;
};

/** Channel that only counts which virtual reached it. */
class CountingChannel final : public Channel
{
  public:
    mutable std::array<std::uint64_t, static_cast<std::size_t>(ChannelCall::Count)> hits{};
    WireWriter slot;
    std::vector<std::uint8_t> held{1, 2, 3};
    int timeoutMs = 0;

    void sendFrame(const std::uint8_t *, std::size_t) override
    {
        hit(ChannelCall::SendFrame);
    }
    bool recvFrame(std::vector<std::uint8_t> &frame) override
    {
        hit(ChannelCall::RecvFrame);
        frame = held;
        return true;
    }
    bool recvFrameView(const std::uint8_t *&data, std::size_t &size,
                       std::vector<std::uint8_t> &) override
    {
        hit(ChannelCall::RecvFrameView);
        data = held.data();
        size = held.size();
        return true;
    }
    void queueFrame(const std::uint8_t *, std::size_t) override
    {
        hit(ChannelCall::QueueFrame);
    }
    void flush() override { hit(ChannelCall::Flush); }
    WireWriter *beginFrame() override
    {
        hit(ChannelCall::BeginFrame);
        return &slot;
    }
    void endFrame() override { hit(ChannelCall::EndFrame); }
    void setRecvTimeout(int ms) override
    {
        hit(ChannelCall::SetRecvTimeout);
        timeoutMs = ms;
    }
    bool timedOut() const override
    {
        hit(ChannelCall::TimedOut);
        return true;
    }

  private:
    void hit(ChannelCall c) const { ++hits[static_cast<std::size_t>(c)]; }
};

std::string
checkEngineForwarding()
{
    SpanLog log(16);
    auto fake = std::make_unique<CountingEngine>();
    CountingEngine *inner = fake.get();
    TimedEngine engine(std::move(fake), log);
    std::vector<Vector> in, out;
    engine.stepInto(in, out);
    const bool values = engine.admit() == 3 &&
                        engine.laneState(0) == LaneState::Draining &&
                        engine.activeLanes() == 5 &&
                        engine.drainingLanes() == 6 &&
                        engine.freeLanes() == 7 && engine.capacity() == 8 &&
                        &engine.config() == &inner->config();
    engine.markDraining(1);
    engine.release(1);
    engine.reset();
    if (!values)
        return "TimedEngine returned a value its engine did not";
    for (std::size_t c = 0; c < inner->hits.size(); ++c) {
        // config() is called once above by the comparison itself.
        const std::uint64_t want =
            c == static_cast<std::size_t>(EngineCall::Config) ? 2 : 1;
        // stepInto() reads activeLanes() once to count lane-steps.
        const std::uint64_t extra =
            c == static_cast<std::size_t>(EngineCall::ActiveLanes) ? 1 : 0;
        if (inner->hits[c] != want + extra)
            return "TimedEngine did not forward engine call #" +
                   std::to_string(c);
    }
    if (engine.laneSteps() != 5 || log.calls(Layer::EngineStep) != 1 ||
        log.calls(Layer::EngineAdmit) != 1 ||
        log.calls(Layer::EngineDrain) != 1 ||
        log.calls(Layer::EngineRelease) != 1)
        return "TimedEngine did not time the stepping/lifecycle calls";
    return "";
}

std::string
checkChannelForwarding()
{
    SpanLog log(16);
    auto fake = std::make_unique<CountingChannel>();
    CountingChannel *inner = fake.get();
    TimedChannel chan(std::move(fake), log);
    const std::uint8_t byte = 9;
    chan.sendFrame(&byte, 1);
    chan.queueFrame(&byte, 1);
    chan.flush();
    std::vector<std::uint8_t> frame, scratch;
    const bool recvOk = chan.recvFrame(frame) && frame == inner->held;
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    const bool viewOk = chan.recvFrameView(data, size, scratch) &&
                        data == inner->held.data() && size == 3;
    const bool frameOk = chan.beginFrame() == &inner->slot;
    chan.endFrame();
    chan.setRecvTimeout(17);
    const bool timeoutOk = chan.timedOut() && inner->timeoutMs == 17;
    if (!recvOk || !viewOk || !frameOk || !timeoutOk)
        return "TimedChannel returned a value its channel did not";
    for (std::size_t c = 0; c < inner->hits.size(); ++c)
        if (inner->hits[c] != 1)
            return "TimedChannel did not forward channel call #" +
                   std::to_string(c);
    if (log.calls(Layer::ChannelSend) != 5 ||
        log.calls(Layer::ChannelRecv) != 2 || chan.zeroCopyViews() != 1)
        return "TimedChannel did not time its sends/receives";
    return "";
}

/** Live shm pair: the decorated receive must stay zero-copy. */
std::string
checkShmZeroCopy()
{
    const std::string name =
        "/hima_perfbench_selftest_" + std::to_string(::getpid());
    SpanLog log(16);
    auto created = ShmChannel::create(name, std::size_t{1} << 16);
    if (!created)
        return "cannot create a shared-memory channel";
    auto attached = ShmChannel::attach(name, 1000);
    if (!attached)
        return "cannot attach the shared-memory channel";
    TimedChannel sender(std::move(created), log);
    TimedChannel receiver(std::move(attached), log);

    WireWriter staging;
    FrameScope frame(sender, staging);
    if (&frame.writer() == &staging)
        return "TimedChannel lost the shm zero-copy beginFrame()";
    encodeShutdown(frame.writer());
    frame.commit();
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    std::vector<std::uint8_t> scratch;
    MsgType type;
    if (!receiver.recvFrameView(data, size, scratch) ||
        !peekType(data, size, type) || type != MsgType::Shutdown)
        return "shm frame did not survive the decorators";
    if (receiver.zeroCopyViews() != 1)
        return "TimedChannel turned the shm receive into a copy";
    if (sender.inner().sentStats().totalFrames() != 1 ||
        receiver.inner().receivedStats().totalFrames() != 1)
        return "shm traffic counters missed the decorated frame";
    return "";
}

} // namespace

std::string
checkDecoratorForwarding()
{
    for (auto check : {checkEngineForwarding, checkChannelForwarding,
                       checkShmZeroCopy}) {
        const std::string failure = check();
        if (!failure.empty())
            return failure;
    }
    return "";
}

} // namespace hima::perfbench
