/**
 * @file
 * Tests for the unified telemetry layer: histogram bucket/percentile
 * edges, registry sharding and snapshot merges, trace-ring wraparound
 * and the balanced Chrome-JSON export (with a real parse gate), the
 * StatsPull/StatsReport wire pair, the fleet scrape over every local
 * transport, and the zero-allocation steady-state contract with
 * metrics and tracing both live.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "golden_util.h"
#include "obs/obs.h"
#include "shard/local_cluster.h"
#include "shard/sharded_dnc.h"
#include "shard/wire.h"

// --------------------------------------------------------------------
// Global operator-new hook (same shape as test_tensor_inplace's): the
// zero-allocation assertions read the counter delta around steady-
// state telemetry writes.
// --------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocationCount{0};
}

void *
operator new(std::size_t size)
{
    g_allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// std::stable_sort's temporary buffer (the trace exporter) allocates
// through the nothrow form. Route it through malloc as well: the
// replaced operator delete below frees it, and a sanitizer runtime's
// own nothrow new would not match that free.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocationCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocationCount.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hima {
namespace {

/** Every test leaves the process at the library defaults. */
struct TelemetryGuard
{
    ~TelemetryGuard()
    {
        obs::setMetricsEnabled(true);
        obs::setTracingEnabled(false);
    }
};

// --------------------------------------------------------------------
// Histogram buckets and percentiles.
// --------------------------------------------------------------------

TEST(HistogramBuckets, FirstEightAreExact)
{
    for (std::uint64_t v = 0; v < 8; ++v) {
        EXPECT_EQ(obs::histogramBucket(v), v);
        EXPECT_EQ(obs::histogramBucketUpperBound(
                      obs::histogramBucket(v)),
                  v);
    }
}

TEST(HistogramBuckets, MonotoneAndInverse)
{
    unsigned last = 0;
    for (std::uint64_t v = 1; v != 0 && v < (1ull << 62); v = v * 3 + 1) {
        const unsigned b = obs::histogramBucket(v);
        EXPECT_GE(b, last);
        last = b;
        ASSERT_LT(b, obs::kHistogramBuckets);
        // The bucket's upper bound bounds the sample...
        EXPECT_GE(obs::histogramBucketUpperBound(b), v);
        // ...within the documented 12.5% log-bucket width.
        EXPECT_LE(static_cast<double>(obs::histogramBucketUpperBound(b)),
                  static_cast<double>(v) * 1.125 + 1.0);
        // And the upper bound itself maps back to the same bucket.
        EXPECT_EQ(obs::histogramBucket(obs::histogramBucketUpperBound(b)),
                  b);
    }
    EXPECT_LT(obs::histogramBucket(~0ull), obs::kHistogramBuckets);
}

TEST(HistogramStats, EmptyPercentileIsZero)
{
    obs::HistogramStats h;
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramStats, SingleSampleClampsToExactMax)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::Histogram hist;
    hist.record(1000);
    obs::HistogramStats h;
    hist.read(h);
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.sum, 1000u);
    EXPECT_EQ(h.max, 1000u);
    // The log bucket's upper bound exceeds 1000; the clamp to the
    // exact observed max makes every quantile exact here.
    EXPECT_EQ(h.percentile(0.5), 1000u);
    EXPECT_EQ(h.percentile(1.0), 1000u);
}

TEST(HistogramStats, ExactBucketQuantiles)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::Histogram hist;
    for (std::uint64_t v = 0; v < 8; ++v)
        hist.record(v); // one sample per exact bucket
    obs::HistogramStats h;
    hist.read(h);
    EXPECT_EQ(h.count, 8u);
    // Nearest rank: ceil(q * 8) samples; cumulative hits rank r at
    // bucket r-1 (one sample per bucket, values 0..7).
    EXPECT_EQ(h.percentile(0.125), 0u);
    EXPECT_EQ(h.percentile(0.5), 3u);
    EXPECT_EQ(h.percentile(1.0), 7u);
    EXPECT_EQ(h.max, 7u);
}

TEST(HistogramStats, LogBucketQuantileWithin12Percent)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::Histogram hist;
    hist.record(1000);
    hist.record(2000);
    obs::HistogramStats h;
    hist.read(h);
    const std::uint64_t p50 = h.percentile(0.5);
    EXPECT_GE(p50, 1000u);
    EXPECT_LE(static_cast<double>(p50), 1000.0 * 1.125 + 1.0);
    EXPECT_EQ(h.percentile(1.0), 2000u);
}

TEST(HistogramStats, MergeSumsBucketsAndKeepsMax)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::Histogram a, b;
    a.record(10);
    a.record(500);
    b.record(100000);
    obs::HistogramStats ha, hb;
    a.read(ha);
    b.read(hb);
    ha.merge(hb);
    EXPECT_EQ(ha.count, 3u);
    EXPECT_EQ(ha.sum, 100510u);
    EXPECT_EQ(ha.max, 100000u);
    EXPECT_EQ(ha.percentile(1.0), 100000u);
}

// --------------------------------------------------------------------
// Registry, sharded counters, snapshot merge.
// --------------------------------------------------------------------

TEST(Registry, HandlesAreStableAndDeduped)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &a = reg.counter("test.obs.dedup");
    obs::Counter &b = reg.counter("test.obs.dedup");
    EXPECT_EQ(&a, &b);
}

TEST(Registry, SnapshotIsSortedAndFindable)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("test.obs.sorted.b").add(2);
    reg.counter("test.obs.sorted.a").add(1);
    reg.gauge("test.obs.sorted.g").set(-5);
    obs::Snapshot snap;
    reg.snapshot(snap);
    for (std::size_t i = 1; i < snap.entries.size(); ++i)
        EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
    const obs::SnapshotEntry *a = snap.find("test.obs.sorted.a");
    ASSERT_NE(a, nullptr);
    EXPECT_GE(a->counter, 1u);
    const obs::SnapshotEntry *g = snap.find("test.obs.sorted.g");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->gauge, -5);
    EXPECT_EQ(snap.find("test.obs.absent"), nullptr);
}

TEST(Registry, CounterShardsMergeAcrossThreads)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::Counter &counter =
        obs::Registry::instance().counter("test.obs.mt_counter");
    const std::uint64_t before = counter.total();
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAdds = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kAdds; ++i)
                counter.add();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter.total() - before, kThreads * kAdds);
}

TEST(Snapshot, MergeSumsCountersGaugesHistograms)
{
    obs::Snapshot a, b;
    a.addCounter("c", 3);
    a.addGauge("g", 4);
    obs::HistogramStats h1;
    h1.count = 1;
    h1.sum = 10;
    h1.max = 10;
    h1.buckets[obs::histogramBucket(10)] = 1;
    a.addHistogram("h", h1);

    b.addCounter("c", 5);
    b.addCounter("only_b", 7);
    b.addGauge("g", -1);
    obs::HistogramStats h2;
    h2.count = 2;
    h2.sum = 60;
    h2.max = 40;
    h2.buckets[obs::histogramBucket(20)] = 1;
    h2.buckets[obs::histogramBucket(40)] = 1;
    b.addHistogram("h", h2);

    a.merge(b);
    EXPECT_EQ(a.find("c")->counter, 8u);
    EXPECT_EQ(a.find("only_b")->counter, 7u);
    EXPECT_EQ(a.find("g")->gauge, 3);
    EXPECT_EQ(a.find("h")->hist.count, 3u);
    EXPECT_EQ(a.find("h")->hist.sum, 70u);
    EXPECT_EQ(a.find("h")->hist.max, 40u);
}

TEST(Snapshot, DisabledMetricsRecordNothing)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(false);
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &counter = reg.counter("test.obs.disabled");
    obs::Histogram &hist = reg.histogram("test.obs.disabled_hist");
    const std::uint64_t before = counter.total();
    counter.add(100);
    hist.record(42);
    EXPECT_EQ(counter.total(), before);
    obs::HistogramStats h;
    hist.read(h);
    EXPECT_EQ(h.count, 0u);
}

TEST(Prometheus, RenderContainsSeries)
{
    obs::Snapshot snap;
    snap.addCounter("test.render.count", 9);
    snap.addGauge("test.render.level", -2);
    obs::HistogramStats h;
    h.count = 1;
    h.sum = 5;
    h.max = 5;
    h.buckets[obs::histogramBucket(5)] = 1;
    snap.addHistogram("test.render.lat", h);
    std::string text;
    obs::renderPrometheus(snap, text);
    EXPECT_NE(text.find("hima_test_render_count 9"), std::string::npos);
    EXPECT_NE(text.find("hima_test_render_level -2"), std::string::npos);
    EXPECT_NE(text.find("hima_test_render_lat_count 1"),
              std::string::npos);
}

// --------------------------------------------------------------------
// Trace rings, wraparound, balanced Chrome-JSON export.
// --------------------------------------------------------------------

/**
 * Minimal JSON well-formedness parser (objects, arrays, strings with
 * escapes, numbers, literals). The export gate: the emitted trace
 * must parse, not merely look balanced.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing '"'
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_)
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return false;
        return true;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1))
        ++count;
    return count;
}

TEST(Trace, ExportIsValidJsonWithNestedSpans)
{
    TelemetryGuard guard;
    obs::setTracingEnabled(true);
    obs::traceReset();
    {
        obs::TraceSpan outer("test.trace.outer", 1);
        obs::traceInstant("test.trace.marker", 7);
        {
            obs::TraceSpan inner("test.trace.inner", 2);
        }
    }
    obs::setTracingEnabled(false);
    std::string json;
    obs::traceExportJson(json);
    EXPECT_TRUE(JsonParser(json).parse()) << json;
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""),
              countOccurrences(json, "\"ph\":\"E\""));
    EXPECT_EQ(countOccurrences(json, "test.trace.outer"), 2u);
    EXPECT_EQ(countOccurrences(json, "test.trace.inner"), 2u);
    EXPECT_EQ(countOccurrences(json, "test.trace.marker"), 1u);
}

TEST(Trace, RingWraparoundKeepsExportBalanced)
{
    TelemetryGuard guard;
    obs::traceReset();
    // A fresh thread gets a fresh ring at the current capacity; the
    // main thread's ring (created at default capacity by other tests)
    // holds nothing after the reset above.
    obs::setTraceCapacity(16);
    obs::setTracingEnabled(true);
    std::thread emitter([] {
        for (int i = 0; i < 100; ++i) {
            obs::TraceSpan span("test.trace.wrap",
                                static_cast<std::uint64_t>(i));
        }
    });
    emitter.join();
    obs::setTracingEnabled(false);
    obs::setTraceCapacity(4096);

    std::string json;
    obs::traceExportJson(json);
    EXPECT_TRUE(JsonParser(json).parse()) << json;
    const std::size_t begins = countOccurrences(json, "\"ph\":\"B\"");
    const std::size_t ends = countOccurrences(json, "\"ph\":\"E\"");
    EXPECT_EQ(begins, ends);
    // The 16-slot ring holds at most 8 whole spans; wraparound must
    // not fabricate more, and the surviving window must be the tail.
    EXPECT_LE(begins, 8u);
    EXPECT_GT(begins, 0u);
    EXPECT_NE(json.find("\"arg\":99"), std::string::npos);
    EXPECT_EQ(json.find("\"arg\":0,"), std::string::npos);
}

TEST(Trace, OrphanedEndFromWraparoundIsDropped)
{
    TelemetryGuard guard;
    obs::traceReset();
    obs::setTraceCapacity(4);
    obs::setTracingEnabled(true);
    std::thread emitter([] {
        obs::traceBegin("test.trace.orphan_outer");
        // 4 instants push the outer begin off the 4-slot ring...
        for (int i = 0; i < 4; ++i)
            obs::traceInstant("test.trace.orphan_tick");
        // ...so this end has no begin in the ring.
        obs::traceEnd("test.trace.orphan_outer");
    });
    emitter.join();
    obs::setTracingEnabled(false);
    obs::setTraceCapacity(4096);

    std::string json;
    obs::traceExportJson(json);
    EXPECT_TRUE(JsonParser(json).parse()) << json;
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), 0u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"E\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"ph\":\"i\""), 0u);
}

TEST(Trace, DisabledSpansRecordNothing)
{
    TelemetryGuard guard;
    obs::setTracingEnabled(false);
    obs::traceReset();
    {
        obs::TraceSpan span("test.trace.disabled");
        obs::traceInstant("test.trace.disabled_tick");
    }
    std::string json;
    obs::traceExportJson(json);
    EXPECT_EQ(json.find("test.trace.disabled"), std::string::npos);
}

/** One traced engine step over a warm engine; returns the export. */
std::string
tracedEngineStep(LaneEngine &engine)
{
    const DncConfig &cfg = engine.config();
    Rng rng(4242);
    std::vector<Vector> inputs;
    for (Index lane = 0; lane < cfg.batchSize; ++lane)
        inputs.push_back(rng.normalVector(cfg.inputSize));
    std::vector<Vector> outputs;
    engine.stepInto(inputs, outputs);

    obs::traceReset();
    obs::setTracingEnabled(true);
    engine.stepInto(inputs, outputs);
    obs::setTracingEnabled(false);
    std::string json;
    obs::traceExportJson(json);
    return json;
}

DncConfig
shardEngineConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 32;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    cfg.batchSize = 3;
    return cfg;
}

// Both shard engines split their own time the same way: the batched
// controller step and the output head each get a span, so a traced run
// separates them from scatter, gather and merge.
TEST(Trace, SyncShardEngineEmitsControllerAndOutputSpans)
{
    TelemetryGuard guard;
    const DncConfig cfg = shardEngineConfig();
    ShardedLaneEngine engine(cfg, 5, [&cfg](Index) {
        LocalShardCluster stack = makeLocalCluster(
            ClusterTransport::Loopback, cfg, /*tiles=*/2, /*workers=*/1);
        return std::unique_ptr<TileMemory>(std::move(stack.coordinator));
    });
    const std::string json = tracedEngineStep(engine);
    EXPECT_TRUE(JsonParser(json).parse()) << json;
    EXPECT_EQ(countOccurrences(json, "shard.controller_compute"), 2u);
    EXPECT_EQ(countOccurrences(json, "shard.output_head"), 2u);
}

TEST(Trace, PipelinedShardEngineEmitsControllerAndOutputSpans)
{
    TelemetryGuard guard;
    const DncConfig cfg = shardEngineConfig();
    LocalLaneCluster cluster =
        makeLocalLaneCluster(ClusterTransport::Loopback, cfg, /*tiles=*/2,
                             cfg.batchSize, /*workerCount=*/1);
    // Batches of two: a 2 + 1 split, so each span fires once per batch.
    PipelinedShardedLaneEngine engine(cfg, 5, cluster.group, 2);
    const std::string json = tracedEngineStep(engine);
    EXPECT_TRUE(JsonParser(json).parse()) << json;
    EXPECT_EQ(countOccurrences(json, "shard.controller_compute"), 4u);
    EXPECT_EQ(countOccurrences(json, "shard.output_head"), 4u);
}

TEST(Trace, ConfigKnobsLand)
{
    TelemetryGuard guard;
    DncConfig cfg;
    cfg.telemetryMetrics = false;
    cfg.telemetryTracing = true;
    obs::applyTelemetryConfig(cfg);
    EXPECT_FALSE(obs::metricsEnabled());
    EXPECT_TRUE(obs::tracingEnabled());
}

// --------------------------------------------------------------------
// StatsPull/StatsReport wire pair.
// --------------------------------------------------------------------

TEST(StatsWire, PeekTypeAcceptsScrapeFrames)
{
    // Regression: peekType's upper bound must include the v5 scrape
    // pair, or workers reject every StatsPull as malformed.
    WireWriter writer;
    encodeStatsPull(3, writer);
    MsgType type;
    ASSERT_TRUE(
        peekType(writer.buffer().data(), writer.buffer().size(), type));
    EXPECT_EQ(type, MsgType::StatsPull);

    obs::Snapshot snap;
    snap.addCounter("x", 1);
    encodeStatsReport(4, snap, writer);
    ASSERT_TRUE(
        peekType(writer.buffer().data(), writer.buffer().size(), type));
    EXPECT_EQ(type, MsgType::StatsReport);
}

TEST(StatsWire, ReportRoundTripsEveryKind)
{
    obs::Snapshot snap;
    snap.addCounter("a.counter", 41);
    snap.addGauge("b.gauge", -17);
    obs::HistogramStats h;
    h.count = 3;
    h.sum = 1234;
    h.max = 1000;
    h.buckets[obs::histogramBucket(10)] = 2;
    h.buckets[obs::histogramBucket(1000)] = 1;
    snap.addHistogram("c.hist", h);

    WireWriter writer;
    encodeStatsReport(99, snap, writer);
    obs::Snapshot decoded;
    std::uint64_t seq = 0;
    ASSERT_TRUE(decodeStatsReport(writer.buffer().data(),
                                  writer.buffer().size(), decoded, seq));
    EXPECT_EQ(seq, 99u);
    ASSERT_EQ(decoded.entries.size(), 3u);
    EXPECT_EQ(decoded.find("a.counter")->counter, 41u);
    EXPECT_EQ(decoded.find("b.gauge")->gauge, -17);
    const obs::SnapshotEntry *hist = decoded.find("c.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->hist.count, 3u);
    EXPECT_EQ(hist->hist.sum, 1234u);
    EXPECT_EQ(hist->hist.max, 1000u);
    EXPECT_EQ(hist->hist.buckets[obs::histogramBucket(10)], 2u);

    // Truncation at every byte must fail closed, never crash.
    for (std::size_t cut = 0; cut < writer.buffer().size(); ++cut) {
        obs::Snapshot partial;
        std::uint64_t s = 0;
        EXPECT_FALSE(
            decodeStatsReport(writer.buffer().data(), cut, partial, s));
    }
}

// --------------------------------------------------------------------
// Fleet scrape over every local transport.
// --------------------------------------------------------------------

class FleetScrape : public ::testing::TestWithParam<ClusterTransport>
{};

TEST_P(FleetScrape, AggregatesWorkerRegistries)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    DncConfig cfg;
    cfg.memoryRows = 32; // per-tile rows after the split
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    const Index tiles = 2;
    const Index workers = 2;
    LocalShardCluster cluster =
        makeLocalCluster(GetParam(), cfg, tiles, workers);

    Rng rng(5);
    const int kSteps = 3;
    for (int i = 0; i < kSteps; ++i)
        cluster.coordinator->stepInterface(golden::randomIface(cfg, rng));

    std::vector<obs::Snapshot> perWorker;
    obs::Snapshot fleet;
    cluster.coordinator->scrapeWorkers(perWorker, fleet);

    ASSERT_EQ(perWorker.size(), workers);
    for (const obs::Snapshot &report : perWorker) {
        const obs::SnapshotEntry *steps =
            report.find("worker.steps_served");
        ASSERT_NE(steps, nullptr);
        EXPECT_EQ(steps->counter, static_cast<std::uint64_t>(kSteps));
    }
    EXPECT_EQ(fleet.find("worker.steps_served")->counter,
              static_cast<std::uint64_t>(workers * kSteps));
    EXPECT_EQ(fleet.find("worker.hosted_tiles")->gauge,
              static_cast<std::int64_t>(tiles));

    // The coordinator folds its own wire counters into the fleet view.
    bool sawWireTx = false;
    for (const obs::SnapshotEntry &e : fleet.entries)
        if (e.name.rfind("shard.wire.tx.", 0) == 0)
            sawWireTx = true;
    EXPECT_TRUE(sawWireTx);

    // A second scrape still answers (seq advances, transport stays up).
    cluster.coordinator->scrapeWorkers(perWorker, fleet);
    EXPECT_EQ(fleet.find("worker.steps_served")->counter,
              static_cast<std::uint64_t>(workers * kSteps));
}

INSTANTIATE_TEST_SUITE_P(Transports, FleetScrape,
                         ::testing::Values(ClusterTransport::Loopback,
                                           ClusterTransport::UnixSocket,
                                           ClusterTransport::Tcp,
                                           ClusterTransport::Shm));

// --------------------------------------------------------------------
// Zero-allocation steady state with metrics and tracing both live.
// --------------------------------------------------------------------

TEST(ObsZeroAlloc, SteadyStateWritesNeverAllocate)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(true);
    obs::setTracingEnabled(true);

    // One-time costs up front: registration allocates, the thread's
    // trace ring is created on its first event, and traceNowNanos
    // initializes its timebase.
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &counter = reg.counter("test.obs.zero_alloc.counter");
    obs::Gauge &gauge = reg.gauge("test.obs.zero_alloc.gauge");
    obs::Histogram &hist = reg.histogram("test.obs.zero_alloc.hist");
    {
        obs::TraceSpan warmup("test.obs.zero_alloc.warmup");
        obs::traceInstant("test.obs.zero_alloc.tick");
    }
    counter.add();
    gauge.set(1);
    hist.record(1);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        counter.add();
        gauge.set(static_cast<std::int64_t>(i));
        hist.record(i * 37);
        obs::TraceSpan span("test.obs.zero_alloc.span", i);
        obs::traceInstant("test.obs.zero_alloc.tick", i);
    }
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "steady-state telemetry writes performed heap allocations";
}

} // namespace
} // namespace hima
