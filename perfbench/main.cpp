/**
 * @file
 * The serving benchmark: one load generator driving the Router over all
 * three engines (BatchedDnc, the sync sharded ShardedLaneEngine over
 * per-lane ShardCoordinators, and the pipelined PipelinedShardedLaneEngine
 * over one ShardLaneGroup), with a bit-exact correctness gate.
 *
 *   hima_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out PATH]
 *   hima_perfbench --selftest
 *
 * --trace 0 measures the library as shipped (default DncConfig, metrics
 * on, tracing off, no decorators) and reports the end-to-end metrics.
 * --trace 1 measures an untraced and then a traced window of the same
 * requests, reports the per-layer split from the traced one, prints the
 * step waterfall, and writes the traced spans to --trace-out at exit.
 * --selftest runs every workload at a tiny size, untraced and traced,
 * and checks the decorators and the output digests.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. The exit status is 0 only when the correctness gate passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bench_env.h"
#include "dnc/dnc.h"
#include "dnc/dncd.h"
#include "obs/obs.h"
#include "probes.h"
#include "serve/batched_dnc.h"
#include "serve/router.h"
#include "shard/coordinator.h"
#include "shard/local_cluster.h"
#include "shard/sharded_dnc.h"
#include "workload/arrival.h"
#include "workload/task_suite.h"

namespace hima::perfbench {
namespace {

/** Controller weight seed; the workload seed only shapes the inputs. */
constexpr std::uint64_t kWeightSeed = 1;
/** Spans kept in memory by a traced window (aggregates never stop). */
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetupRepeats = 9;

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

enum class EngineKind
{
    Batched,
    ShardSync,
    ShardPipelined,
};

struct Workload
{
    std::string name;
    EngineKind engine = EngineKind::Batched;
    DncConfig config;
    bool openLoop = false;
    double ratePerSec = 0.0; ///< open loop: Poisson arrivals per second
    Index clients = 0;       ///< closed loop: outstanding requests
    Index episodeLen = 0;    ///< fixed episode length; 0 = task suite
    double warmupSeconds = 0.0; ///< untimed load before each window
    Index tiles = 0;
    Index workers = 0;
    Index checkStride = 16; ///< a request id is checked with odds 1/stride
    Index checkCap = 24;    ///< at most this many checked per window
};

const char *const kWorkloadNames[] = {"serve_open_short", "batch_long_memory",
                                      "shard_pipelined_loopback",
                                      "shard_sync_loopback"};

/**
 * Shapes of every workload: W=64, R=4, controller 128, input and output
 * 64. The tiny shapes only serve the self-test.
 */
DncConfig
baseConfig(bool tiny)
{
    DncConfig c;
    c.memoryWidth = tiny ? 16 : 64;
    c.readHeads = tiny ? 2 : 4;
    c.controllerSize = tiny ? 32 : 128;
    c.inputSize = tiny ? 16 : 64;
    c.outputSize = tiny ? 16 : 64;
    // Large enough that back-pressure never fires; a rejection is a
    // benchmark failure, not a measurement.
    c.routerQueueCapacity = 4096;
    return c;
}

bool
makeWorkload(const std::string &name, bool tiny, Workload &w)
{
    w = Workload{};
    w.name = name;
    w.config = baseConfig(tiny);
    if (name == "serve_open_short") {
        // Query serving: short task-suite episodes keep every lane in
        // the sparse early regime, so router, lifecycle churn and the
        // batched controller carry the step.
        w.engine = EngineKind::Batched;
        w.config.memoryRows = tiny ? 32 : 128;
        w.config.batchSize = tiny ? 4 : 16;
        // A quarter of saturation, not half: open-loop step time is
        // proportional to the per-step weight streaming, and the queue
        // feedback near saturation multiplies that host-sensitive cost
        // (at 100/s the same build spread 20-34% between runs).
        w.openLoop = true;
        w.ratePerSec = tiny ? 200.0 : 50.0;
        w.warmupSeconds = tiny ? 0.1 : 1.0;
    } else if (name == "batch_long_memory") {
        // Long fixed episodes (1.5 N) cross from the sparse early regime
        // into full memory, where linkage and the temporal sweeps rule.
        w.engine = EngineKind::Batched;
        w.config.memoryRows = tiny ? 64 : 1024;
        w.config.batchSize = 4;
        w.clients = 4;
        w.episodeLen = w.config.memoryRows * 3 / 2;
        w.checkStride = 4;
        w.checkCap = 1;
    } else if (name == "shard_pipelined_loopback" ||
               name == "shard_sync_loopback") {
        // Each of the 4 tiles holds N/4 > W rows. Both engines run over
        // loopback: with worker threads (the shm transport) the spread
        // between runs on a shared host was up to 42% of the median, far
        // outside any usable regression bound.
        const bool pipelined = name == "shard_pipelined_loopback";
        w.engine = pipelined ? EngineKind::ShardPipelined
                             : EngineKind::ShardSync;
        w.config.memoryRows = tiny ? 128 : 512;
        w.config.batchSize = 8;
        w.config.shardLanesPerBatch = pipelined ? 4 : 0;
        w.config.shardCheckpointIntervalSteps = 64;
        w.clients = 8;
        w.tiles = 4;
        w.workers = 2;
        // The checkpoint store and replay log are sized by the first
        // pulls; keep those out of the window.
        w.warmupSeconds = tiny ? 0.1 : 1.0;
    } else {
        return false;
    }
    w.config.validate();
    return true;
}

// --------------------------------------------------------------------
// Request generation: a pure function of (seed, request id)
// --------------------------------------------------------------------

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class RequestSource
{
  public:
    RequestSource(const Workload &w, std::uint64_t seed)
        : seed_(seed), inputSize_(w.config.inputSize),
          episodeLen_(w.episodeLen), checkStride_(w.checkStride),
          suite_(taskSuite())
    {}

    ArrivalEvent
    event(std::uint64_t id) const
    {
        // Stratified mix: every block of suite-size consecutive ids runs
        // each task once, in a seeded order, so the offered work of a
        // run does not swing with the seed's luck of the draw.
        const std::uint64_t block = id / suite_.size();
        std::vector<Index> order(suite_.size());
        for (Index i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(mix64(seed_ ^ mix64(block)));
        for (Index i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.uniformInt(i + 1)]);
        const Index task = order[id % suite_.size()];
        const Index len =
            episodeLen_ > 0 ? episodeLen_ : episodeSteps(suite_[task]);
        return ArrivalEvent{0, static_cast<Index>(id), task + 1, len};
    }

    std::vector<Vector>
    tokens(std::uint64_t id) const
    {
        return requestTokens(event(id), inputSize_, seed_);
    }

    /** Seeded choice of the requests the correctness gate replays. */
    bool
    sampled(std::uint64_t id) const
    {
        return id == 0 ||
               mix64(seed_ * 31 + id + 0x51ed) % checkStride_ == 0;
    }

  private:
    std::uint64_t seed_;
    Index inputSize_;
    Index episodeLen_;
    Index checkStride_;
    std::vector<TaskSpec> suite_;
};

// --------------------------------------------------------------------
// Serving stacks
// --------------------------------------------------------------------

/**
 * One serving stack and everything that keeps it alive. Members are
 * destroyed in reverse order: the router (whose engine co-owns the
 * pipelined lane group and owns the sync coordinators) goes first, so
 * every Shutdown frame is sent before a serve thread is joined.
 */
struct Stack
{
    LocalLaneCluster laneFleet;
    std::vector<std::shared_ptr<ShardWorker>> syncWorkers;
    std::vector<std::thread> syncThreads; ///< loopback spawns none
    std::shared_ptr<RespawnHarness> respawns;
    std::unique_ptr<Router> router;

    BatchedDnc *batched = nullptr;
    TimedEngine *timed = nullptr;
    ShardLaneGroup *group = nullptr;
    std::vector<ShardCoordinator *> coordinators;
    std::vector<const Channel *> channels; ///< coordinator side, undecorated
    std::vector<TimedChannel *> timedChannels;

    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    ~Stack()
    {
        router.reset();
        for (std::thread &t : syncThreads)
            t.join();
    }
};

std::unique_ptr<Channel>
track(std::unique_ptr<Channel> channel, Stack &stack, SpanLog *log)
{
    stack.channels.push_back(channel.get());
    if (log == nullptr)
        return channel;
    auto timed = std::make_unique<TimedChannel>(std::move(channel), *log);
    stack.timedChannels.push_back(timed.get());
    return timed;
}

/** Respawner that builds replacements like the fleet's own workers. */
ShardRespawnFn
respawner(Stack &stack, SpanLog *log)
{
    return [&stack, log, harness = stack.respawns](Index) {
        return track(makeClusterWorker(harness->transport, harness->workers,
                                       harness->threads,
                                       harness->shmSlotBytes,
                                       harness->recvTimeoutMs),
                     stack, log);
    };
}

/**
 * Build the workload's stack; with a log, the engine and every
 * coordinator-side channel are wrapped in timing decorators.
 */
std::unique_ptr<Stack>
buildStack(const Workload &w, SpanLog *log)
{
    auto stack = std::make_unique<Stack>();
    Stack &s = *stack;
    const DncConfig &cfg = w.config;
    obs::applyTelemetryConfig(cfg);

    std::unique_ptr<LaneEngine> engine;
    if (w.engine == EngineKind::Batched) {
        auto batched = std::make_unique<BatchedDnc>(cfg, kWeightSeed);
        s.batched = batched.get();
        engine = std::move(batched);
    } else {
        s.respawns = std::make_shared<RespawnHarness>();
        if (w.engine == EngineKind::ShardPipelined) {
            std::vector<std::unique_ptr<Channel>> channels;
            for (Index k = 0; k < w.workers; ++k)
                channels.push_back(track(
                    makeClusterWorker(ClusterTransport::Loopback,
                                      s.laneFleet.workers,
                                      s.laneFleet.threads),
                    s, log));
            s.laneFleet.group = std::make_shared<ShardLaneGroup>(
                cfg, w.tiles, cfg.batchSize, MergePolicy::Confidence,
                std::move(channels), /*wantWeightings=*/false);
            s.group = s.laneFleet.group.get();
            s.group->setRespawner(respawner(s, log));
            engine = std::make_unique<PipelinedShardedLaneEngine>(
                cfg, kWeightSeed, s.laneFleet.group, cfg.shardLanesPerBatch);
        } else {
            engine = std::make_unique<ShardedLaneEngine>(
                cfg, kWeightSeed, [&](Index) -> std::unique_ptr<TileMemory> {
                    std::vector<std::unique_ptr<Channel>> channels;
                    for (Index k = 0; k < w.workers; ++k)
                        channels.push_back(track(
                            makeClusterWorker(ClusterTransport::Loopback,
                                              s.syncWorkers, s.syncThreads),
                            s, log));
                    auto coordinator = std::make_unique<ShardCoordinator>(
                        cfg, w.tiles, MergePolicy::Confidence,
                        std::move(channels), /*wantWeightings=*/false);
                    coordinator->setRespawner(respawner(s, log));
                    s.coordinators.push_back(coordinator.get());
                    return coordinator;
                });
        }
    }
    if (log != nullptr) {
        auto timed = std::make_unique<TimedEngine>(std::move(engine), *log);
        s.timed = timed.get();
        engine = std::move(timed);
    }
    s.router = std::make_unique<Router>(std::move(engine));
    return stack;
}

/** First-step buffer sizing: one short request through every layer. */
void
warmUp(Stack &s, const Workload &w)
{
    Rng rng(0xfeed);
    ServeRequest request;
    request.id = ~std::uint64_t{0};
    for (int t = 0; t < 2; ++t)
        request.tokens.push_back(rng.normalVector(w.config.inputSize));
    if (!s.router->submit(std::move(request)))
        HIMA_FATAL("warm-up request rejected");
    s.router->drain();
    s.router->completed().clear();
}

std::uint64_t
recoveries(const Stack &s)
{
    std::uint64_t total = s.group != nullptr ? s.group->recoveries() : 0;
    for (const ShardCoordinator *c : s.coordinators)
        total += c->recoveries();
    return total;
}

std::uint64_t
checkpointPulls(const Stack &s)
{
    std::uint64_t total = s.group != nullptr ? s.group->checkpointsTaken() : 0;
    for (const ShardCoordinator *c : s.coordinators)
        total += c->checkpointsTaken();
    return total;
}

struct WireTotals
{
    WireTrafficStats sent;
    WireTrafficStats received;
};

WireTotals
wireTotals(const Stack &s)
{
    WireTotals t;
    for (const Channel *c : s.channels) {
        t.sent += c->sentStats();
        t.received += c->receivedStats();
    }
    return t;
}

constexpr std::size_t kMemoryKernels = static_cast<std::size_t>(Kernel::Lstm);
using KernelTotals = std::array<KernelCounters, kMemoryKernels>;

/** Every shard worker of the stack, replacements included. */
std::vector<std::shared_ptr<ShardWorker>>
shardWorkers(const Stack &s)
{
    std::vector<std::shared_ptr<ShardWorker>> all = s.laneFleet.workers;
    all.insert(all.end(), s.syncWorkers.begin(), s.syncWorkers.end());
    if (s.respawns)
        all.insert(all.end(), s.respawns->workers.begin(),
                   s.respawns->workers.end());
    return all;
}

void
addUnit(KernelTotals &totals, const MemoryUnit &unit)
{
    for (std::size_t k = 0; k < kMemoryKernels; ++k)
        totals[k].merge(unit.profiler().at(static_cast<Kernel>(k)));
}

/** Table-1 kernel counters summed over a BatchedDnc's lanes. */
KernelTotals
laneKernelTotals(const BatchedDnc &engine)
{
    KernelTotals totals{};
    for (Index slot = 0; slot < engine.capacity(); ++slot)
        addUnit(totals, engine.laneMemory(slot));
    return totals;
}

/**
 * Table-1 kernel counters summed over the workers' hosted tiles. Call it
 * only once the stack that served them is destroyed: its serve threads
 * are joined then, so the tiles are safe to read from this thread.
 */
KernelTotals
workerKernelTotals(const std::vector<std::shared_ptr<ShardWorker>> &workers)
{
    KernelTotals totals{};
    for (const auto &wk : workers)
        if (wk->configured())
            for (Index lane = 0; lane < wk->lanes(); ++lane)
                for (Index i = 0; i < wk->hostedTiles(); ++i)
                    addUnit(totals, wk->laneTile(lane, i));
    return totals;
}

KernelCounters
minus(const KernelCounters &a, const KernelCounters &b)
{
    KernelCounters d;
    d.invocations = a.invocations - b.invocations;
    d.macOps = a.macOps - b.macOps;
    d.elementOps = a.elementOps - b.elementOps;
    d.specialOps = a.specialOps - b.specialOps;
    d.compareOps = a.compareOps - b.compareOps;
    d.nanoseconds = a.nanoseconds - b.nanoseconds;
    d.skippedRows = a.skippedRows - b.skippedRows;
    d.skippedOps = a.skippedOps - b.skippedOps;
    return d;
}

KernelTotals
minus(const KernelTotals &a, const KernelTotals &b)
{
    KernelTotals d{};
    for (std::size_t k = 0; k < kMemoryKernels; ++k)
        d[k] = minus(a[k], b[k]);
    return d;
}

// --------------------------------------------------------------------
// One measured window
// --------------------------------------------------------------------

struct Window
{
    std::vector<double> latencyMs;
    std::vector<double> gapMs;
    std::vector<double> queueWaitMs;
    std::vector<double> lagMs;
    std::map<std::uint64_t, std::uint64_t> digests; ///< request id -> FNV-1a
    std::vector<ServeResult> checked;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t tokens = 0;
    std::uint64_t steps = 0;
    std::int64_t wallNs = 0;
    std::int64_t idleNs = 0;
    double activeRowsSum = 0.0; ///< traced BatchedDnc: sum of A/N per lane-step
    std::uint64_t activeRowsSamples = 0;
    std::uint64_t mismatches = 0;

    std::int64_t busyNs() const { return wallNs - idleNs; }
};

std::uint64_t
digest(const std::vector<Vector> &outputs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Vector &v : outputs) {
        const auto *bytes = reinterpret_cast<const unsigned char *>(v.data());
        for (std::size_t i = 0; i < v.size() * sizeof(Real); ++i)
            h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
    return h;
}

/**
 * Serve `seconds` of load, then drain, so the window covers whole
 * episodes. Open loop: Poisson due times on the wall clock, each
 * request timed from its due time. Closed loop: `clients` requests
 * outstanding, each timed from its submit.
 */
Window
serveWindow(Stack &s, const Workload &w, const RequestSource &src,
            std::uint64_t seed, double seconds, SpanLog *log,
            std::uint64_t idBase = 0)
{
    Window win;
    Router &router = *s.router;
    const Index step0 = router.now();
    std::vector<std::int64_t> stepStart, stepEnd, issueNs;
    stepStart.reserve(1 << 16);
    stepEnd.reserve(1 << 16);
    issueNs.reserve(1 << 12);
    const Real rows = static_cast<Real>(w.config.memoryRows);

    auto submit = [&](std::int64_t issue) {
        const std::uint64_t id = idBase + issueNs.size();
        issueNs.push_back(issue);
        ServeRequest request;
        request.id = id;
        request.tokens = src.tokens(id);
        ++win.submitted;
        if (!router.submit(std::move(request)))
            ++win.rejected;
    };

    const std::int64_t t0 = nowNs();
    const std::int64_t tEnd = t0 + static_cast<std::int64_t>(seconds * 1e9);

    auto step = [&] {
        stepStart.push_back(nowNs());
        if (log != nullptr) {
            SpanScope span(*log, Layer::RouterStep, router.now());
            router.step();
        } else {
            router.step();
        }
        stepEnd.push_back(nowNs());
        ++win.steps;
        if (log != nullptr && s.batched != nullptr) {
            for (Index slot = 0; slot < s.batched->capacity(); ++slot) {
                if (s.batched->laneState(slot) == LaneState::Free)
                    continue;
                win.activeRowsSum +=
                    static_cast<Real>(s.batched->laneMemory(slot)
                                          .linkage()
                                          .touchedSlots()
                                          .size()) /
                    rows;
                ++win.activeRowsSamples;
            }
        }
        std::vector<ServeResult> &done = router.completed();
        for (ServeResult &r : done) {
            const std::int64_t issue = issueNs[r.id - idBase];
            const Index admit = r.admitStep - step0;
            const Index finish = r.finishStep - step0;
            win.latencyMs.push_back(
                static_cast<double>(stepEnd[finish] - issue) / 1e6);
            win.queueWaitMs.push_back(
                static_cast<double>(stepStart[admit] - issue) / 1e6);
            for (Index k = admit + 1; k <= finish; ++k)
                win.gapMs.push_back(
                    static_cast<double>(stepEnd[k] - stepEnd[k - 1]) / 1e6);
            ++win.completed;
            win.tokens += r.outputs.size();
            win.digests[r.id] = digest(r.outputs);
            if (win.checked.size() < w.checkCap && src.sampled(r.id))
                win.checked.push_back(std::move(r));
        }
        const std::size_t finished = done.size();
        done.clear();
        if (!w.openLoop && nowNs() < tEnd)
            for (std::size_t i = 0; i < finished; ++i)
                submit(nowNs());
    };

    if (w.openLoop) {
        // A Poisson process conditioned on its count: rate x seconds due
        // times drawn uniformly over the window, so every seed offers the
        // same number of requests and only their timing varies.
        Rng schedule(mix64(seed ^ 0xa881));
        std::vector<std::int64_t> due(
            static_cast<std::size_t>(std::llround(w.ratePerSec * seconds)));
        for (std::int64_t &d : due)
            d = t0 + static_cast<std::int64_t>(schedule.uniform() *
                                               static_cast<double>(tEnd - t0));
        std::sort(due.begin(), due.end());
        std::size_t next = 0;
        while (true) {
            while (next < due.size() && due[next] <= nowNs()) {
                submit(due[next]);
                win.lagMs.push_back(
                    static_cast<double>(nowNs() - due[next]) / 1e6);
                ++next;
            }
            if (router.idle()) {
                if (next == due.size())
                    break;
                // Spin rather than sleep: a parked core's wake-up and
                // power-state exit would be charged to the next request.
                const std::int64_t idleStart = nowNs();
                while (nowNs() < due[next]) {
                }
                win.idleNs += nowNs() - idleStart;
                continue;
            }
            step();
        }
    } else {
        for (Index c = 0; c < w.clients; ++c)
            submit(nowNs());
        while (!router.idle())
            step();
    }
    win.wallNs = nowNs() - t0;
    router.drain(); // release the lanes that finished on the last step
    return win;
}

/**
 * Untimed load on request ids disjoint from the measured ones, so lazily
 * touched buffers and caches are warm when the window starts.
 */
void
warmUpLoad(Stack &s, const Workload &w, const RequestSource &src,
           std::uint64_t seed)
{
    if (w.warmupSeconds > 0.0)
        serveWindow(s, w, src, seed ^ 0x3a3a, w.warmupSeconds, nullptr,
                    std::uint64_t{1} << 40);
}

/** Replay the sampled requests on a dedicated reference, bit for bit. */
std::uint64_t
verify(const Workload &w, const RequestSource &src,
       const std::vector<ServeResult> &checked)
{
    DncConfig refCfg = w.config;
    refCfg.batchSize = 1;
    refCfg.numThreads = 1;
    std::unique_ptr<Dnc> dnc;
    std::unique_ptr<ShardedDnc> sharded;
    if (w.engine == EngineKind::Batched)
        dnc = std::make_unique<Dnc>(refCfg, kWeightSeed);
    else
        sharded = std::make_unique<ShardedDnc>(
            refCfg, kWeightSeed, std::make_unique<DncD>(refCfg, w.tiles));
    std::uint64_t mismatches = 0;
    for (const ServeResult &r : checked) {
        const std::vector<Vector> tokens = src.tokens(r.id);
        bool same = r.outputs.size() == tokens.size();
        if (dnc)
            dnc->reset();
        else
            sharded->reset();
        for (Index t = 0; same && t < tokens.size(); ++t) {
            const Vector ref = dnc ? dnc->step(tokens[t])
                                   : sharded->step(tokens[t]);
            same = ref.size() == r.outputs[t].size() &&
                   std::memcmp(ref.data(), r.outputs[t].data(),
                               ref.size() * sizeof(Real)) == 0;
        }
        if (!same)
            ++mismatches;
    }
    return mismatches;
}

// --------------------------------------------------------------------
// Statistics and reporting
// --------------------------------------------------------------------

/** Linear-interpolated percentile q in [0, 1]; NaN on no samples. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** A percentile is reported only with >= 10 samples beyond it. */
bool
supports(const std::vector<double> &v, double q)
{
    return static_cast<double>(v.size()) * (1.0 - q) >= 10.0;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Gate outcome over every window of a run. */
struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t checked = 0;
    std::string why;

    bool correct() const { return failed == 0 && checked > 0 && why.empty(); }

    void
    add(const Window &win, std::uint64_t recovered)
    {
        attempted += win.submitted;
        const std::uint64_t incomplete =
            win.submitted - win.rejected - win.completed;
        failed += win.rejected + win.mismatches + incomplete;
        checked += win.checked.size();
        if (win.rejected > 0)
            why += " back-pressure rejected " + std::to_string(win.rejected) + ";";
        if (win.mismatches > 0)
            why += " " + std::to_string(win.mismatches) +
                   " sampled requests differ from the reference;";
        if (incomplete > 0)
            why += " " + std::to_string(incomplete) + " requests never completed;";
        if (recovered > 0)
            why += " " + std::to_string(recovered) + " shard recoveries;";
    }
};

void
printResult(const Gate &gate, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                gate.correct() ? "true" : "false",
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
}

void
printTable(const std::string &title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title.c_str());
    for (const Metric &m : metrics)
        std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
}

/** Metric-name key of a Table-1 memory kernel. */
const char *
kernelKey(Kernel k)
{
    static const char *const kKeys[kMemoryKernels] = {
        "normalize",   "similarity", "memory_write",    "memory_read",
        "retention",   "usage",      "usage_sort",      "allocation",
        "write_merge", "linkage",    "precedence",      "forward_backward",
        "read_merge"};
    return kKeys[static_cast<std::size_t>(k)];
}

/** End-to-end metrics of one untraced window (plus set-up and memory). */
std::vector<Metric>
endToEnd(const Window &win, double setupS, double rssMiB)
{
    return {
        {"lane_steps_per_s",
         static_cast<double>(win.tokens) / (static_cast<double>(win.wallNs) / 1e9),
         "1/s"},
        {"latency_p50_ms", median(win.latencyMs), "ms"},
        {"token_gap_p50_ms", median(win.gapMs), "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mib", rssMiB, "MiB"},
    };
}

/**
 * Figures the sample supports beyond the reported metrics, for the log.
 * The tails stay out of the result: on this class of shared host they
 * swing two to three times as much as the medians between runs (the
 * checkpoint-pull tail of the pipelined engine most of all), which no
 * regression bound of at most 25% can hold.
 */
std::vector<Metric>
extraFigures(const Window &win)
{
    std::vector<Metric> extra = {
        {"requests_completed", static_cast<double>(win.completed), "count"},
        {"error_rate",
         win.submitted > 0
             ? static_cast<double>(win.submitted - win.completed + win.mismatches) /
                   static_cast<double>(win.submitted)
             : 0.0,
         "ratio"},
        {"token_gap_samples", static_cast<double>(win.gapMs.size()), "count"},
    };
    if (supports(win.gapMs, 0.99))
        extra.push_back({"token_gap_p99_ms", percentile(win.gapMs, 0.99), "ms"});
    if (supports(win.latencyMs, 0.99))
        extra.push_back({"latency_p99_ms", percentile(win.latencyMs, 0.99), "ms"});
    else if (supports(win.latencyMs, 0.9))
        extra.push_back({"latency_p90_ms", percentile(win.latencyMs, 0.9), "ms"});
    if (!win.lagMs.empty())
        extra.push_back({"generator_lag_p99_ms", percentile(win.lagMs, 0.99), "ms"});
    return extra;
}

/** What a traced window measured outside the SpanLog. */
struct LayerCounts
{
    std::uint64_t laneSteps = 0; ///< lanes the engine stepped in the window
    KernelTotals kernels{};      ///< memory-kernel counters ...
    std::uint64_t kernelLaneSteps = 0; ///< ... and the lane-steps they cover
    WireTrafficStats sent;
    WireTrafficStats received;
    std::uint64_t pulls = 0;
    std::uint64_t recoveries = 0;
};

/**
 * The per-layer split of a traced window. Layers that do not run on the
 * workload read 0 (for example the wire on BatchedDnc).
 */
std::vector<Metric>
perLayer(const Workload &w, const SpanLog &log, const Window &traced,
         const Window &untraced, const LayerCounts &counts,
         std::vector<Metric> &waterfall)
{
    const double laneSteps = static_cast<double>(counts.laneSteps);
    const double steps = static_cast<double>(traced.steps);
    auto perLane = [&](double ns) { return laneSteps > 0 ? ns / laneSteps : 0.0; };
    const bool sharded = w.engine != EngineKind::Batched;

    const double routerSelf = static_cast<double>(log.selfNs(Layer::RouterStep));
    const double stepIncl = static_cast<double>(log.inclusiveNs(Layer::EngineStep));
    const double stepChannel = static_cast<double>(log.childNs(Layer::EngineStep));
    double lifecycleIncl = 0.0, lifecycleSelf = 0.0;
    for (Layer l : {Layer::EngineAdmit, Layer::EngineDrain, Layer::EngineRelease}) {
        lifecycleIncl += static_cast<double>(log.inclusiveNs(l));
        lifecycleSelf += static_cast<double>(log.selfNs(l));
    }
    const double sendNs = static_cast<double>(log.inclusiveNs(Layer::ChannelSend));
    const double recvNs = static_cast<double>(log.inclusiveNs(Layer::ChannelRecv));

    std::vector<Metric> m;
    m.push_back({"serve.router.self_ns_per_step", steps > 0 ? routerSelf / steps : 0.0, "ns"});
    m.push_back({"serve.router.queue_wait_p99_ms", percentile(traced.queueWaitMs, 0.99), "ms"});
    m.push_back({"serve.router.occupancy_mean", steps > 0 ? laneSteps / steps : 0.0, "count"});
    m.push_back({"serve.engine.step_ns_per_lane_step", perLane(stepIncl), "ns"});
    m.push_back({"serve.engine.lifecycle_ns_per_request",
                 traced.completed > 0 ? lifecycleIncl / static_cast<double>(traced.completed) : 0.0,
                 "ns"});

    const KernelTotals &delta = counts.kernels;
    const double kernelLaneSteps = static_cast<double>(counts.kernelLaneSteps);
    double kernelNs = 0.0;
    for (std::size_t k = 0; k < kMemoryKernels; ++k) {
        const auto ns = static_cast<double>(delta[k].nanoseconds);
        kernelNs += ns;
        m.push_back({std::string("dnc.memory.") + kernelKey(static_cast<Kernel>(k)) + ".ns_per_lane_step",
                     kernelLaneSteps > 0 ? ns / kernelLaneSteps : 0.0, "ns"});
    }
    for (Kernel k : {Kernel::Similarity, Kernel::MemoryRead, Kernel::Linkage,
                     Kernel::ForwardBackward}) {
        const KernelCounters &c = delta[static_cast<std::size_t>(k)];
        m.push_back({std::string("dnc.memory.skip_share.") + kernelKey(k),
                     c.totalOps() > 0 ? static_cast<double>(c.skippedOps) /
                                            static_cast<double>(c.totalOps())
                                      : 0.0,
                     "ratio"});
    }
    m.push_back({"dnc.memory.active_rows_mean",
                 traced.activeRowsSamples > 0
                     ? traced.activeRowsSum / static_cast<double>(traced.activeRowsSamples)
                     : 0.0,
                 "ratio"});
    const double controllerNs = sharded ? 0.0 : stepIncl - kernelNs;
    m.push_back({"dnc.controller.ns_per_lane_step", perLane(controllerNs), "ns"});
    const double engineSelf = sharded ? stepIncl - stepChannel : 0.0;
    m.push_back({"shard.engine.self_ns_per_lane_step", perLane(engineSelf), "ns"});
    m.push_back({"shard.transport.send_ns_per_lane_step", perLane(sendNs), "ns"});
    m.push_back({"shard.transport.recv_wait_ns_per_lane_step", perLane(recvNs), "ns"});

    const WireTrafficStats &sent = counts.sent;
    const WireTrafficStats &recv = counts.received;
    const std::uint64_t pulls = counts.pulls;
    const auto ckpt = static_cast<std::size_t>(MsgType::CheckpointState);
    m.push_back({"shard.wire.bytes_per_lane_step",
                 perLane(static_cast<double>(sent.totalBytes() + recv.totalBytes())), "B"});
    m.push_back({"shard.wire.frames_per_lane_step",
                 perLane(static_cast<double>(sent.totalFrames() + recv.totalFrames())), "count"});
    m.push_back({"shard.wire.checkpoint_bytes_per_pull",
                 pulls > 0 ? static_cast<double>(recv.bytes[ckpt]) / static_cast<double>(pulls) : 0.0,
                 "B"});
    m.push_back({"shard.checkpoint.pulls", static_cast<double>(pulls), "count"});
    m.push_back({"shard.recoveries", static_cast<double>(counts.recoveries), "count"});

    // Waterfall: self times of every timed layer against the busy wall
    // (idle waits for the next open-loop arrival excluded). The
    // remainder is the benchmark's own loop: generation, harvest.
    const double busy = static_cast<double>(traced.busyNs());
    waterfall.clear();
    waterfall.push_back({"router self", routerSelf, "ns"});
    waterfall.push_back({"engine lifecycle self", lifecycleSelf, "ns"});
    if (sharded) {
        waterfall.push_back({"shard engine self (controllers, codec, merge)", engineSelf, "ns"});
        waterfall.push_back({"transport send", sendNs, "ns"});
        waterfall.push_back({"transport recv wait", recvNs, "ns"});
    } else {
        waterfall.push_back({"controller (engine step - kernels)", controllerNs, "ns"});
        for (std::size_t k = 0; k < kMemoryKernels; ++k)
            waterfall.push_back({std::string("kernel ") + kernelKey(static_cast<Kernel>(k)),
                                 static_cast<double>(delta[k].nanoseconds), "ns"});
    }
    double attributed = 0.0;
    for (const Metric &row : waterfall)
        attributed += row.value;
    waterfall.push_back({"unattributed", busy - attributed, "ns"});

    const double untracedPerLane =
        untraced.tokens > 0 ? static_cast<double>(untraced.busyNs()) /
                                  static_cast<double>(untraced.tokens)
                            : 0.0;
    const double tracedPerLane =
        traced.tokens > 0 ? busy / static_cast<double>(traced.tokens) : 0.0;
    m.push_back({"bench.unattributed_share", busy > 0 ? (busy - attributed) / busy : 0.0, "ratio"});
    m.push_back({"bench.trace_overhead",
                 untracedPerLane > 0 ? tracedPerLane / untracedPerLane - 1.0 : 0.0,
                 "ratio"});
    m.push_back({"bench.token_gap_p99_ms", percentile(traced.gapMs, 0.99), "ms"});
    m.push_back({"bench.generator_lag_p99_ms",
                 traced.lagMs.empty() ? 0.0 : percentile(traced.lagMs, 0.99), "ms"});
    return m;
}

void
printWaterfall(const Workload &w, const Window &traced,
               const std::vector<Metric> &rows)
{
    const double busy = static_cast<double>(traced.busyNs());
    std::printf("waterfall %s: busy wall %.3f s over %llu lane-steps\n",
                w.name.c_str(), busy / 1e9,
                static_cast<unsigned long long>(traced.tokens));
    double sum = 0.0;
    for (const Metric &row : rows) {
        std::printf("  %-46s %10.3f ms %6.2f%%\n", row.name.c_str(),
                    row.value / 1e6, busy > 0 ? 100.0 * row.value / busy : 0.0);
        sum += row.value;
    }
    std::printf("  %-46s %10.3f ms %6.2f%%\n", "sum", sum / 1e6,
                busy > 0 ? 100.0 * sum / busy : 0.0);
}

// --------------------------------------------------------------------
// Modes
// --------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool selftest = false;
    std::string traceOut;
};

/** Untraced run: set-up repeated, one measured window, the gate. */
int
runUntraced(const Workload &w, const Args &args)
{
    const RequestSource src(w, args.seed);
    std::vector<double> setups;
    std::unique_ptr<Stack> stack;
    for (int r = 0; r < kSetupRepeats; ++r) {
        stack.reset();
        const std::int64_t t = nowNs();
        stack = buildStack(w, nullptr);
        warmUp(*stack, w);
        setups.push_back(static_cast<double>(nowNs() - t) / 1e9);
    }
    warmUpLoad(*stack, w, src, args.seed);
    Window win = serveWindow(*stack, w, src, args.seed, args.seconds, nullptr);
    const double rss = peakRssMiB();
    const std::uint64_t recovered = recoveries(*stack);
    stack.reset();

    win.mismatches = verify(w, src, win.checked);
    Gate gate;
    gate.add(win, recovered);
    const std::vector<Metric> metrics = endToEnd(win, median(setups), rss);
    printTable(w.name + " (seed " + std::to_string(args.seed) + ", " +
                   std::to_string(win.completed) + " requests, " +
                   std::to_string(win.checked.size()) + " checked)",
               metrics);
    printTable("  also measured:", extraFigures(win));
    if (!gate.correct())
        std::printf("correctness gate FAILED:%s\n", gate.why.c_str());
    printResult(gate, metrics);
    return gate.correct() ? 0 : 1;
}

struct TracedRun
{
    Gate gate;
    std::vector<Metric> metrics;
    std::map<std::uint64_t, std::uint64_t> untracedDigests;
    std::map<std::uint64_t, std::uint64_t> tracedDigests;
    std::uint64_t channelCalls = 0;
};

/**
 * Traced run: an untraced window, then the same requests on a decorated
 * stack with spans on; per-layer figures come from the traced window.
 */
TracedRun
runTraced(const Workload &w, std::uint64_t seed, double seconds,
          const std::string &traceOut, bool print)
{
    TracedRun out;
    const RequestSource src(w, seed);
    Window plain;
    {
        auto stack = buildStack(w, nullptr);
        warmUp(*stack, w);
        warmUpLoad(*stack, w, src, seed);
        plain = serveWindow(*stack, w, src, seed, seconds / 2, nullptr);
        const std::uint64_t recovered = recoveries(*stack);
        stack.reset();
        plain.mismatches = verify(w, src, plain.checked);
        out.gate.add(plain, recovered);
    }

    SpanLog log(kSpanCapacity);
    auto stack = buildStack(w, &log);
    warmUp(*stack, w);
    warmUpLoad(*stack, w, src, seed);
    const std::uint64_t warmLaneSteps = stack->timed->laneSteps();
    log.clear();
    stack->timed->clearCounts();
    const WireTotals wireBefore = wireTotals(*stack);
    const std::uint64_t pullsBefore = checkpointPulls(*stack);
    const KernelTotals lanesBefore =
        stack->batched ? laneKernelTotals(*stack->batched) : KernelTotals{};

    Window traced = serveWindow(*stack, w, src, seed, seconds / 2, &log);

    LayerCounts counts;
    counts.laneSteps = stack->timed->laneSteps();
    const WireTotals wireAfter = wireTotals(*stack);
    counts.sent = wireAfter.sent.diffFrom(wireBefore.sent);
    counts.received = wireAfter.received.diffFrom(wireBefore.received);
    counts.pulls = checkpointPulls(*stack) - pullsBefore;
    counts.recoveries = recoveries(*stack);
    if (stack->batched) {
        counts.kernels = minus(laneKernelTotals(*stack->batched), lanesBefore);
        counts.kernelLaneSteps = counts.laneSteps;
    }
    for (const TimedChannel *c : stack->timedChannels)
        for (int k = 0; k < static_cast<int>(ChannelCall::Count); ++k)
            out.channelCalls += c->callCount(static_cast<ChannelCall>(k));
    const std::vector<std::shared_ptr<ShardWorker>> workers = shardWorkers(*stack);
    stack.reset();
    if (!workers.empty()) {
        // Worker tiles are read only now that their serve threads are
        // joined, so their counters cover the warm-up load as well.
        counts.kernels = workerKernelTotals(workers);
        counts.kernelLaneSteps = warmLaneSteps + counts.laneSteps;
    }
    std::vector<Metric> waterfall;
    out.metrics = perLayer(w, log, traced, plain, counts, waterfall);
    traced.mismatches = verify(w, src, traced.checked);
    out.gate.add(traced, counts.recoveries);
    out.untracedDigests = plain.digests;
    out.tracedDigests = traced.digests;

    if (print) {
        printWaterfall(w, traced, waterfall);
        printTable(w.name + " per layer (seed " + std::to_string(seed) + ")",
                   out.metrics);
        std::printf("spans: %zu kept, %llu beyond the in-memory capacity\n",
                    log.recorded(),
                    static_cast<unsigned long long>(log.dropped()));
    }
    if (!traceOut.empty() && !log.writeChromeTrace(traceOut))
        std::fprintf(stderr, "cannot write trace file %s\n", traceOut.c_str());
    return out;
}

int
runTracedMode(const Workload &w, const Args &args)
{
    TracedRun run = runTraced(w, args.seed, args.seconds, args.traceOut, true);
    if (!run.gate.correct())
        std::printf("correctness gate FAILED:%s\n", run.gate.why.c_str());
    printResult(run.gate, run.metrics);
    return run.gate.correct() ? 0 : 1;
}

/**
 * Every workload at a tiny size, untraced and traced: the gate passes,
 * the decorators forward every call, and both runs of a seed give the
 * same output digest for every request they share.
 */
int
runSelfTest()
{
    int failures = 0;
    auto fail = [&failures](const std::string &what) {
        std::printf("selftest FAIL: %s\n", what.c_str());
        ++failures;
    };
    const std::string forwarding = checkDecoratorForwarding();
    if (!forwarding.empty())
        fail(forwarding);
    for (const char *name : kWorkloadNames) {
        Workload w;
        makeWorkload(name, /*tiny=*/true, w);
        TracedRun run = runTraced(w, /*seed=*/7, /*seconds=*/0.6, "", false);
        if (!run.gate.correct())
            fail(w.name + ": correctness gate:" + run.gate.why);
        std::size_t shared = 0;
        for (const auto &[id, h] : run.tracedDigests) {
            const auto it = run.untracedDigests.find(id);
            if (it == run.untracedDigests.end())
                continue;
            ++shared;
            if (it->second != h)
                fail(w.name + ": request " + std::to_string(id) +
                     " differs between the untraced and traced runs");
        }
        if (shared == 0)
            fail(w.name + ": no request common to both runs");
        if (w.engine != EngineKind::Batched && run.channelCalls == 0)
            fail(w.name + ": channel decorators saw no traffic");
        for (const Metric &m : run.metrics)
            if (!std::isfinite(m.value))
                fail(w.name + ": per-layer " + m.name + " is not finite");
        std::printf("selftest %-24s %zu shared requests, %llu checked\n",
                    name, shared,
                    static_cast<unsigned long long>(run.gate.checked));
    }
    std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0))
                return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else if (key == "--trace-out") {
            args.traceOut = value;
        } else {
            return false;
        }
    }
    return args.selftest || !args.workload.empty();
}

} // namespace
} // namespace hima::perfbench

int
main(int argc, char **argv)
{
    using namespace hima::perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out PATH] | --selftest\n",
                     argv[0]);
        return 2;
    }
    Workload w;
    if (!args.selftest && !makeWorkload(args.workload, /*tiny=*/false, w)) {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }
    std::printf("host: %u hardware threads, library %s\n",
                hima::hardwareThreads(), hima::buildGitSha());
    if (args.selftest)
        return runSelfTest();
    return args.trace ? runTracedMode(w, args) : runUntraced(w, args);
}
