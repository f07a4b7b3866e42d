/**
 * @file
 * Sharded DNC-D golden proof: a coordinator driving worker-hosted tiles
 * over a real wire protocol is bit-identical *per step* to the
 * in-process DncD with the same config — read vectors, global-view
 * weightings, and the confidence-merge alphas — across
 * transports {loopback, unix socket, tcp, shm} x tiles {2, 4} x
 * worker threads {1, 4} x {float, fixed} x {the one-lane
 * ShardCoordinator, a lane view of a three-lane group}, through
 * per-tile write gating, history-mode reads, and mid-stream episode
 * resets.
 *
 * Also here: worker protocol edge cases (reject-before-hello, config
 * validation, malformed frames answered with Error), the serving stack
 * (ShardedDnc over a coordinator == ShardedDnc over DncD; Router on a
 * ShardedLaneEngine == dedicated reference runs), the retrieval
 * workload through the wire, and the zero-allocation steady state of a
 * loopback worker round trip (operator-new hook).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <tuple>

#include <unistd.h>

#include <gtest/gtest.h>

#include "golden_util.h"
#include "serve/router.h"
#include "shard/local_cluster.h"
#include "shard/sharded_dnc.h"
#include "workload/arrival.h"
#include "workload/retrieval.h"
#include "workload/task_suite.h"

// --------------------------------------------------------------------
// Operator-new hook (same pattern as test_tensor_inplace.cpp): counts
// every allocation so the steady-state loopback round trip can be
// asserted allocation-free.
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
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hima {
namespace {

DncConfig
gridConfig(Index tiles, Index threads, bool fixedPoint)
{
    DncConfig cfg;
    cfg.memoryRows = tiles * 8; // small per-tile shards keep the grid fast
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.numThreads = threads;
    cfg.fixedPoint = fixedPoint;
    return cfg;
}

const char *
transportName(ClusterTransport kind)
{
    switch (kind) {
    case ClusterTransport::Loopback:
        return "Loopback";
    case ClusterTransport::UnixSocket:
        return "Unix";
    case ClusterTransport::Shm:
        return "Shm";
    default:
        return "Tcp";
    }
}

void
expectReadoutIdentical(const MemoryReadout &ref, const MemoryReadout &got,
                       int step)
{
    SCOPED_TRACE(::testing::Message() << "step " << step);
    ASSERT_EQ(ref.readVectors.size(), got.readVectors.size());
    for (Index h = 0; h < ref.readVectors.size(); ++h)
        EXPECT_TRUE(ref.readVectors[h] == got.readVectors[h])
            << "merged read vector head " << h << " diverged";
    ASSERT_EQ(ref.readWeightings.size(), got.readWeightings.size());
    for (Index h = 0; h < ref.readWeightings.size(); ++h)
        EXPECT_TRUE(ref.readWeightings[h] == got.readWeightings[h])
            << "global-view read weighting head " << h << " diverged";
    EXPECT_TRUE(ref.writeWeighting == got.writeWeighting)
        << "global-view write weighting diverged";
}

void
expectAlphasIdentical(const DncD &ref, const TileMemory &got, int step)
{
    SCOPED_TRACE(::testing::Message() << "step " << step);
    ASSERT_EQ(ref.lastAlphas().size(), got.lastAlphas().size());
    for (Index h = 0; h < ref.lastAlphas().size(); ++h) {
        ASSERT_EQ(ref.lastAlphas()[h].size(), got.lastAlphas()[h].size());
        for (Index t = 0; t < ref.lastAlphas()[h].size(); ++t)
            EXPECT_EQ(ref.lastAlphas()[h][t], got.lastAlphas()[h][t])
                << "alpha head " << h << " tile " << t << " diverged";
    }
}

// --------------------------------------------------------------------
// The golden grid.
// --------------------------------------------------------------------

/** The coordinator-side surface a golden run drives. */
enum class GoldenBackend
{
    Coordinator, ///< the one-lane ShardCoordinator
    LaneView,    ///< lane 1 of a three-lane group, via laneMemory()
};

/**
 * Two workers hosting the golden run's tiles behind one TileMemory.
 * Both backends step through the same ShardLaneGroup entry points; the
 * lane view also proves per-tile steps address the right lane of a
 * multi-lane fleet while its neighbours idle.
 */
struct GoldenFleet
{
    LocalShardCluster stack;
    LocalLaneCluster laneCluster;
    std::unique_ptr<TileMemory> view; ///< borrows laneCluster.group
    TileMemory *memory = nullptr;
    ShardLaneGroup *group = nullptr;
    Index lane = 0;

    std::vector<std::shared_ptr<ShardWorker>> &
    workers()
    {
        return view ? laneCluster.workers : stack.workers;
    }

    std::shared_ptr<RespawnHarness>
    armRecovery(ClusterTransport transport)
    {
        return view ? armClusterRecovery(laneCluster, transport)
                    : armClusterRecovery(stack, transport);
    }
};

GoldenFleet
makeGoldenFleet(GoldenBackend backend, ClusterTransport transport,
                const DncConfig &cfg, Index tiles)
{
    const Index workerCount = 2; // exercises multi-tile workers at Nt=4
    GoldenFleet fleet;
    if (backend == GoldenBackend::Coordinator) {
        fleet.stack = makeLocalCluster(transport, cfg, tiles, workerCount);
        fleet.memory = fleet.stack.coordinator.get();
        fleet.group = fleet.stack.coordinator.get();
    } else {
        fleet.laneCluster = makeLocalLaneCluster(
            transport, cfg, tiles, /*lanes=*/3, workerCount,
            MergePolicy::Confidence, /*wantWeightings=*/true);
        fleet.lane = 1;
        fleet.view = fleet.laneCluster.group->laneMemory(fleet.lane);
        fleet.memory = fleet.view.get();
        fleet.group = fleet.laneCluster.group.get();
    }
    return fleet;
}

const char *
backendSuffix(GoldenBackend backend)
{
    return backend == GoldenBackend::LaneView ? "LaneView" : "";
}

class ShardGolden
    : public ::testing::TestWithParam<
          std::tuple<ClusterTransport, int, int, bool, GoldenBackend>>
{};

TEST_P(ShardGolden, BitIdenticalToInProcessDncD)
{
    const auto [transport, tiles, threads, fixedPoint, backend] =
        GetParam();
    const DncConfig cfg = gridConfig(tiles, threads, fixedPoint);

    GoldenFleet fleet = makeGoldenFleet(backend, transport, cfg, tiles);
    TileMemory &memory = *fleet.memory;
    DncD ref(cfg, tiles);

    Rng rng(305 + tiles);
    std::vector<InterfaceVector> perTile(tiles);
    constexpr int kSteps = 18;
    for (int step = 0; step < kSteps; ++step) {
        if (step == 12) {
            // Mid-stream episode boundary crosses the control path.
            ref.reset();
            memory.reset();
        }
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        if (step % 3 == 2) {
            // Learned write sharding: one tile's gate open, the rest
            // closed — the per-tile interface path.
            for (Index t = 0; t < tiles; ++t) {
                perTile[t] = iface;
                if (t != static_cast<Index>(step) % tiles)
                    perTile[t].writeGate = 0.0;
            }
            const MemoryReadout a = ref.stepInterfaces(perTile);
            const MemoryReadout b = memory.stepInterfaces(perTile);
            expectReadoutIdentical(a, b, step);
        } else {
            const MemoryReadout a = ref.stepInterface(iface);
            const MemoryReadout b = memory.stepInterface(iface);
            expectReadoutIdentical(a, b, step);
        }
        expectAlphasIdentical(ref, memory, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // Loopback keeps worker handles: the hosted tile state itself must
    // equal the in-process shards, not just the merged outputs.
    if (transport == ClusterTransport::Loopback) {
        Index global = 0;
        for (const auto &worker : fleet.workers()) {
            for (Index i = 0; i < worker->hostedTiles(); ++i, ++global) {
                SCOPED_TRACE(::testing::Message() << "tile " << global);
                const MemoryUnit &tile = worker->laneTile(fleet.lane, i);
                EXPECT_TRUE(tile.memory() == ref.shard(global).memory());
                EXPECT_TRUE(tile.usage() == ref.shard(global).usage());
                EXPECT_TRUE(tile.rowNorms() ==
                            ref.shard(global).rowNorms());
            }
        }
        EXPECT_EQ(global, static_cast<Index>(tiles));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardGolden,
    ::testing::Combine(::testing::Values(ClusterTransport::Loopback,
                                         ClusterTransport::UnixSocket,
                                         ClusterTransport::Tcp,
                                         ClusterTransport::Shm),
                       ::testing::Values(2, 4), ::testing::Values(1, 4),
                       ::testing::Bool(),
                       ::testing::Values(GoldenBackend::Coordinator,
                                         GoldenBackend::LaneView)),
    [](const auto &info) {
        return std::string(transportName(std::get<0>(info.param))) +
               "Nt" + std::to_string(std::get<1>(info.param)) + "T" +
               std::to_string(std::get<2>(info.param)) +
               (std::get<3>(info.param) ? "Fixed" : "Float") +
               backendSuffix(std::get<4>(info.param));
    });

// --------------------------------------------------------------------
// Pipelined (lane-batched) serving: every lane of a shared fleet must
// match the in-process DncD bit for bit, per lane and per step.
// --------------------------------------------------------------------

class PipelinedShardGolden
    : public ::testing::TestWithParam<
          std::tuple<ClusterTransport, int, int, bool>>
{};

TEST_P(PipelinedShardGolden, EveryLaneBitIdenticalToDedicatedRuns)
{
    const auto [transport, tiles, threads, fixedPoint] = GetParam();
    DncConfig cfg = gridConfig(tiles, threads, fixedPoint);
    cfg.controllerSize = 20;
    cfg.inputSize = 9;
    cfg.outputSize = 7;
    cfg.batchSize = 3;        // three lanes on one fleet
    const Index lanesPerBatch = 2; // uneven split: batches of 2 + 1
    constexpr std::uint64_t kSeed = 77;
    const Index workerCount = 2;

    LocalLaneCluster cluster = makeLocalLaneCluster(
        transport, cfg, tiles, cfg.batchSize, workerCount);
    ASSERT_TRUE(cluster.group != nullptr);
    PipelinedShardedLaneEngine engine(cfg, kSeed, cluster.group,
                                      lanesPerBatch);

    // Dedicated references: one ShardedDnc over in-process DncD per
    // slot (already proven equal to the wire backend).
    std::vector<std::unique_ptr<ShardedDnc>> refs;
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        refs.push_back(std::make_unique<ShardedDnc>(
            cfg, kSeed, std::make_unique<DncD>(cfg, tiles)));

    Rng rng(411 + tiles);
    std::vector<Vector> inputs(cfg.batchSize);
    std::vector<Vector> outputs;
    constexpr int kSteps = 16;
    for (int step = 0; step < kSteps; ++step) {
        // Lane churn mid-stream: slot 1 drains and is recycled through
        // the per-lane Admit control; its neighbours must not notice.
        if (step == 6) {
            engine.markDraining(1);
            engine.release(1);
        }
        if (step == 9) {
            const Index slot = engine.admit();
            ASSERT_EQ(slot, 1u);
            refs[1]->beginEpisode();
        }
        for (Index slot = 0; slot < cfg.batchSize; ++slot)
            inputs[slot] = rng.normalVector(cfg.inputSize);
        engine.stepInto(inputs, outputs);
        for (Index slot = 0; slot < cfg.batchSize; ++slot) {
            if (engine.laneState(slot) != LaneState::Active)
                continue;
            const Vector want = refs[slot]->step(inputs[slot]);
            ASSERT_TRUE(want == outputs[slot])
                << "lane " << slot << " diverged at step " << step;
        }
    }
    EXPECT_EQ(engine.group().inFlight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelinedShardGolden,
    ::testing::Combine(::testing::Values(ClusterTransport::Loopback,
                                         ClusterTransport::UnixSocket,
                                         ClusterTransport::Tcp,
                                         ClusterTransport::Shm),
                       ::testing::Values(2, 4), ::testing::Values(1, 4),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(transportName(std::get<0>(info.param))) +
               "Nt" + std::to_string(std::get<1>(info.param)) + "T" +
               std::to_string(std::get<2>(info.param)) +
               (std::get<3>(info.param) ? "Fixed" : "Float");
    });

// A lane of a shared fleet behind the TileMemory view: merged
// readouts, alphas and the raw hosted tile state all equal the
// in-process DncD, for every lane independently.
TEST(ShardLaneGroupGolden, LaneViewsMatchInProcessDncDIncludingTileState)
{
    const Index tiles = 4;
    const Index lanes = 2;
    const DncConfig cfg = gridConfig(tiles, 1, false);
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::Loopback, cfg, tiles, lanes, /*workerCount=*/2,
        MergePolicy::Confidence, /*wantWeightings=*/true);

    std::vector<std::unique_ptr<TileMemory>> views;
    std::vector<std::unique_ptr<DncD>> refs;
    for (Index lane = 0; lane < lanes; ++lane) {
        views.push_back(cluster.group->laneMemory(lane));
        refs.push_back(std::make_unique<DncD>(cfg, tiles));
    }

    Rng rng(902);
    for (int step = 0; step < 12; ++step) {
        if (step == 7) {
            // Per-lane reset: lane 0 restarts, lane 1 keeps its state.
            views[0]->reset();
            refs[0]->reset();
        }
        for (Index lane = 0; lane < lanes; ++lane) {
            SCOPED_TRACE(::testing::Message()
                         << "lane " << lane << " step " << step);
            // Distinct traffic per lane: divergence would surface as a
            // cross-lane mixup.
            const InterfaceVector iface = golden::randomIface(cfg, rng);
            const MemoryReadout a = refs[lane]->stepInterface(iface);
            const MemoryReadout b = views[lane]->stepInterface(iface);
            expectReadoutIdentical(a, b, step);
            ASSERT_EQ(refs[lane]->lastAlphas().size(),
                      views[lane]->lastAlphas().size());
            for (Index h = 0; h < refs[lane]->lastAlphas().size(); ++h)
                EXPECT_EQ(refs[lane]->lastAlphas()[h],
                          views[lane]->lastAlphas()[h]);
        }
    }

    // The hosted per-lane tile state itself equals the references'.
    for (Index lane = 0; lane < lanes; ++lane) {
        Index global = 0;
        for (const auto &worker : cluster.workers) {
            for (Index i = 0; i < worker->hostedTiles(); ++i, ++global) {
                SCOPED_TRACE(::testing::Message()
                             << "lane " << lane << " tile " << global);
                EXPECT_TRUE(worker->laneTile(lane, i).memory() ==
                            refs[lane]->shard(global).memory());
                EXPECT_TRUE(worker->laneTile(lane, i).usage() ==
                            refs[lane]->shard(global).usage());
            }
        }
        EXPECT_EQ(global, tiles);
    }
}

// The double-buffered window itself: two disjoint batches in flight at
// once, gathered oldest-first, still bit-identical per lane.
TEST(ShardLaneGroupGolden, OverlappedBatchesMatchSequentialExecution)
{
    const Index tiles = 2;
    const Index lanes = 4;
    const DncConfig cfg = gridConfig(tiles, 1, false);
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::UnixSocket, cfg, tiles, lanes, /*workerCount=*/2,
        MergePolicy::Confidence, /*wantWeightings=*/true);

    std::vector<std::unique_ptr<DncD>> refs;
    for (Index lane = 0; lane < lanes; ++lane)
        refs.push_back(std::make_unique<DncD>(cfg, tiles));

    Rng rng(515);
    std::vector<InterfaceVector> ifaces(lanes);
    const std::vector<Index> batchA = {0, 1};
    const std::vector<Index> batchB = {2, 3};
    std::vector<MemoryReadout> outs(lanes);
    for (int step = 0; step < 8; ++step) {
        for (Index lane = 0; lane < lanes; ++lane)
            ifaces[lane] = golden::randomIface(cfg, rng);
        // Scatter both batches before gathering either.
        cluster.group->scatter(batchA, {&ifaces[0], &ifaces[1]});
        cluster.group->scatter(batchB, {&ifaces[2], &ifaces[3]});
        EXPECT_EQ(cluster.group->inFlight(), 2u);
        cluster.group->gather({&outs[0], &outs[1]});
        cluster.group->gather({&outs[2], &outs[3]});
        EXPECT_EQ(cluster.group->inFlight(), 0u);
        for (Index lane = 0; lane < lanes; ++lane) {
            SCOPED_TRACE(::testing::Message()
                         << "lane " << lane << " step " << step);
            const MemoryReadout want =
                refs[lane]->stepInterface(ifaces[lane]);
            expectReadoutIdentical(want, outs[lane], step);
        }
    }
    EXPECT_EQ(cluster.group->laneSteps(), 8u * lanes);
}

// --------------------------------------------------------------------
// Retrieval workload through the wire.
// --------------------------------------------------------------------

TEST(ShardWorkload, RetrievalEpisodeMatchesInProcessExactly)
{
    DncConfig cfg = gridConfig(4, 1, false);
    cfg.memoryWidth = 16; // even split into key/value halves
    DncD ref(cfg, 4);
    LocalShardCluster stack =
        makeLocalCluster(ClusterTransport::Loopback, cfg, 4, 2);

    TokenCodebook keys(32, cfg.memoryWidth / 2, 1);
    TokenCodebook values(32, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    Rng rng(77);
    const auto suite = taskSuite();
    for (Index t = 0; t < 3; ++t) {
        const Episode ep = makeEpisode(suite[t], 32, rng);
        const EpisodeResult a = runEpisodeDistributed(ref, scripter, ep);
        const EpisodeResult b =
            runEpisodeDistributed(*stack.coordinator, scripter, ep);
        EXPECT_EQ(a.scored, b.scored);
        EXPECT_EQ(a.correct, b.correct) << "wire run answered differently";
        EXPECT_EQ(a.meanScore, b.meanScore);
    }
}

// --------------------------------------------------------------------
// Serving stack: ShardedDnc and the Router on a sharded backend.
// --------------------------------------------------------------------

DncConfig
serveCfg()
{
    DncConfig cfg;
    cfg.memoryRows = 32;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    return cfg;
}

std::unique_ptr<TileMemory>
loopbackBackend(const DncConfig &cfg, Index tiles, Index workers)
{
    LocalShardCluster stack =
        makeLocalCluster(ClusterTransport::Loopback, cfg, tiles, workers,
                         MergePolicy::Confidence, /*wantWeightings=*/false);
    // The workers live in the channel closures; only the coordinator
    // handle needs to escape.
    return std::move(stack.coordinator);
}

TEST(ShardedDnc, WireBackendMatchesInProcessBackend)
{
    const DncConfig cfg = serveCfg();
    const Index tiles = 4;
    ShardedDnc wire(cfg, 3, loopbackBackend(cfg, tiles, 2));
    ShardedDnc local(cfg, 3, std::make_unique<DncD>(cfg, tiles));

    Rng rng(505);
    for (int step = 0; step < 20; ++step) {
        if (step == 13) {
            wire.reset();
            local.reset();
        }
        const Vector input = rng.normalVector(cfg.inputSize);
        const Vector a = local.step(input);
        const Vector b = wire.step(input);
        ASSERT_TRUE(a == b) << "controller outputs diverged at step "
                            << step;
    }
}

/**
 * A LaneEngine decorator that records, through the public surface only,
 * every re-admission of a slot while some higher slot is Active. The
 * engines keep their stepping lanes in a compacted column prefix, so
 * such an admission puts the re-admitted slot in a column after a
 * higher slot: batches then hold slots out of order.
 */
class AdmitOrderProbe final : public LaneEngine
{
  public:
    explicit AdmitOrderProbe(std::unique_ptr<LaneEngine> inner)
        : inner_(std::move(inner)), admitted_(inner_->capacity(), false)
    {}

    Index admit() override
    {
        const Index slot = inner_->admit();
        if (admitted_[slot])
            for (Index s = slot + 1; s < capacity(); ++s)
                if (inner_->laneState(s) == LaneState::Active) {
                    ++lowReadmits_;
                    break;
                }
        admitted_[slot] = true;
        return slot;
    }
    void stepInto(const std::vector<Vector> &inputs,
                  std::vector<Vector> &outputs) override
    {
        inner_->stepInto(inputs, outputs);
    }
    void markDraining(Index slot) override { inner_->markDraining(slot); }
    void release(Index slot) override { inner_->release(slot); }
    LaneState laneState(Index slot) const override
    {
        return inner_->laneState(slot);
    }
    Index activeLanes() const override { return inner_->activeLanes(); }
    Index drainingLanes() const override { return inner_->drainingLanes(); }
    Index freeLanes() const override { return inner_->freeLanes(); }
    Index capacity() const override { return inner_->capacity(); }
    void reset() override { inner_->reset(); }
    const DncConfig &config() const override { return inner_->config(); }

    /** Re-admissions of a slot below a still-Active higher slot. */
    Index lowReadmits() const { return lowReadmits_; }

  private:
    std::unique_ptr<LaneEngine> inner_;
    std::vector<bool> admitted_;
    Index lowReadmits_ = 0;
};

/**
 * Route a bursty arrival trace through `engine` and check every
 * completed request against a dedicated ShardedDnc over the in-process
 * backend (already proven equal to the wire backend above).
 *
 * @return re-admissions of a slot below a still-Active higher slot
 */
Index
routeAndMatchDedicatedRuns(const DncConfig &cfg, Index tiles,
                           std::uint64_t seed,
                           std::unique_ptr<LaneEngine> engine,
                           const ArrivalSpec &spec, Index horizon)
{
    auto probe = std::make_unique<AdmitOrderProbe>(std::move(engine));
    const AdmitOrderProbe &admits = *probe;
    Router router(std::move(probe));

    Rng traceRng(61);
    const auto trace = makeArrivalTrace(spec, horizon, traceRng);
    EXPECT_FALSE(trace.empty());

    std::size_t next = 0;
    while (next < trace.size()) {
        while (next < trace.size() && trace[next].step <= router.now()) {
            ServeRequest request;
            request.id = trace[next].ordinal;
            request.tokens = requestTokens(trace[next], cfg.inputSize, 67);
            EXPECT_TRUE(router.submit(std::move(request)));
            ++next;
        }
        router.step();
    }
    router.drain();
    EXPECT_EQ(router.completed().size(), trace.size());

    ShardedDnc ref(cfg, seed, std::make_unique<DncD>(cfg, tiles));
    for (const ServeResult &result : router.completed()) {
        SCOPED_TRACE(::testing::Message() << "request " << result.id);
        const auto tokens =
            requestTokens(trace[result.id], cfg.inputSize, 67);
        EXPECT_EQ(result.outputs.size(), tokens.size());
        if (result.outputs.size() != tokens.size())
            break;
        ref.reset();
        for (Index t = 0; t < tokens.size(); ++t) {
            const bool same = ref.step(tokens[t]) == result.outputs[t];
            EXPECT_TRUE(same) << "output " << t << " diverged";
            if (!same)
                break;
        }
    }
    return admits.lowReadmits();
}

/** Bursts that exceed the lanes: queueing + admit churn. */
ArrivalSpec
burstySpec(Index burstSize)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rate = 0.1;
    spec.burstProbability = 0.2;
    spec.burstSize = burstSize;
    return spec;
}

TEST(ShardedRouter, RoutedRequestsMatchDedicatedShardedRuns)
{
    DncConfig cfg = serveCfg();
    cfg.batchSize = 3;
    const Index tiles = 2;
    constexpr std::uint64_t kSeed = 11;

    auto engine = std::make_unique<ShardedLaneEngine>(
        cfg, kSeed, [&cfg](Index) {
            return loopbackBackend(cfg, tiles, 1);
        });
    routeAndMatchDedicatedRuns(cfg, tiles, kSeed, std::move(engine),
                               burstySpec(4), 20);
}

// --------------------------------------------------------------------
// Router traffic on the pipelined fleet: identical to dedicated
// sharded runs, so the pipelined engine drops into serving unchanged.
// --------------------------------------------------------------------

TEST(ShardedRouter, PipelinedEngineMatchesDedicatedShardedRuns)
{
    DncConfig cfg = serveCfg();
    cfg.batchSize = 3;
    cfg.shardLanesPerBatch = 2; // overlapped batches under churn
    const Index tiles = 2;
    constexpr std::uint64_t kSeed = 11;

    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::Loopback, cfg, tiles, cfg.batchSize,
        /*workerCount=*/1);
    routeAndMatchDedicatedRuns(
        cfg, tiles, kSeed,
        std::make_unique<PipelinedShardedLaneEngine>(cfg, kSeed,
                                                     cluster.group),
        burstySpec(4), 20);
}

// --------------------------------------------------------------------
// Churn at partial SIMD chunks: seven lanes are one full four-lane
// register chunk of the batched controller plus a partial one, and
// pipelined batches of three straddle the chunk boundary. Slots are
// released and re-admitted below still-Active higher slots, so the
// compacted columns hold slots out of order and every scatter sorts.
// --------------------------------------------------------------------

/** Which engine a churn run drives: sync, or pipelined batch size. */
enum class ChurnEngine
{
    Sync,
    PipelinedAllLanes, ///< lanesPerBatch 0: one batch of every lane
    PipelinedThree,    ///< lanesPerBatch 3: batches straddle a chunk
};

const char *
churnEngineName(ChurnEngine kind)
{
    switch (kind) {
    case ChurnEngine::Sync:
        return "Sync";
    case ChurnEngine::PipelinedAllLanes:
        return "PipelinedAllLanes";
    case ChurnEngine::PipelinedThree:
        return "PipelinedThree";
    }
    return "?";
}

class ShardedRouterChurn
    : public ::testing::TestWithParam<std::tuple<ChurnEngine, bool>>
{};

TEST_P(ShardedRouterChurn, PartialChunkBatchesMatchDedicatedShardedRuns)
{
    const auto [kind, fixedPoint] = GetParam();
    DncConfig cfg = serveCfg();
    cfg.batchSize = 7;
    cfg.fixedPoint = fixedPoint;
    const Index tiles = 2;
    constexpr std::uint64_t kSeed = 23;
    ASSERT_GT(cfg.batchSize, kBatchLaneChunk);
    ASSERT_NE(cfg.batchSize % kBatchLaneChunk, 0u);

    LocalLaneCluster cluster;
    std::unique_ptr<LaneEngine> engine;
    if (kind == ChurnEngine::Sync) {
        engine = std::make_unique<ShardedLaneEngine>(
            cfg, kSeed, [&cfg](Index) {
                return loopbackBackend(cfg, tiles, 1);
            });
    } else {
        cluster = makeLocalLaneCluster(ClusterTransport::Loopback, cfg,
                                       tiles, cfg.batchSize,
                                       /*workerCount=*/2);
        engine = std::make_unique<PipelinedShardedLaneEngine>(
            cfg, kSeed, cluster.group,
            kind == ChurnEngine::PipelinedThree ? 3 : 0);
    }
    const Index lowReadmits = routeAndMatchDedicatedRuns(
        cfg, tiles, kSeed, std::move(engine), burstySpec(9), 60);
    EXPECT_GT(lowReadmits, 0u)
        << "the trace never re-admitted a slot below an Active one";
}

INSTANTIATE_TEST_SUITE_P(
    SevenLanes, ShardedRouterChurn,
    ::testing::Combine(::testing::Values(ChurnEngine::Sync,
                                         ChurnEngine::PipelinedAllLanes,
                                         ChurnEngine::PipelinedThree),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(churnEngineName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "Fixed" : "Float");
    });

// --------------------------------------------------------------------
// Bounded recv: a dead or wedged worker fails the step instead of
// hanging the coordinator forever.
// --------------------------------------------------------------------

TEST(ShardRecvTimeout, SilentPeerBoundsRecvFrame)
{
    auto listener = SocketListener::listenTcp(0);
    ASSERT_TRUE(listener != nullptr);
    std::unique_ptr<SocketChannel> server;
    std::thread accepter([&] { server = listener->accept(); });
    auto client = SocketChannel::connectTcp("127.0.0.1", listener->port());
    accepter.join();
    ASSERT_TRUE(client != nullptr);
    ASSERT_TRUE(server != nullptr);

    client->setRecvTimeout(50);
    std::vector<std::uint8_t> frame;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(client->recvFrame(frame)) << "no peer data: must fail";
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_TRUE(client->timedOut()) << "failure must be diagnosed as a "
                                       "timeout, not a close";
    EXPECT_LT(elapsed, 5.0) << "recv did not respect the bound";

    // A real close is *not* reported as a timeout.
    server.reset();
    EXPECT_FALSE(client->recvFrame(frame));
    EXPECT_FALSE(client->timedOut());
}

TEST(ShardRecvTimeoutDeath, DeadWorkerFailsTheStepWithADiagnosis)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const DncConfig cfg = gridConfig(2, 1, false);
    EXPECT_DEATH(
        {
            // A worker that completes the handshake, then wedges: it
            // reads frames but never answers another one.
            auto listener = SocketListener::listenTcp(0);
            std::thread wedged([&] {
                auto chan = listener->accept();
                std::vector<std::uint8_t> frame;
                ShardWorker worker;
                if (chan && chan->recvFrame(frame)) // Hello
                    worker.handleFrame(frame.data(), frame.size(), *chan);
                while (chan && chan->recvFrame(frame)) {
                    // swallow step frames silently, forever
                }
            });
            wedged.detach();
            auto client =
                SocketChannel::connectTcp("127.0.0.1", listener->port());
            client->setRecvTimeout(100);
            std::vector<std::unique_ptr<Channel>> channels;
            channels.push_back(std::move(client));
            ShardCoordinator coordinator(cfg, 2, MergePolicy::Confidence,
                                         std::move(channels));
            Rng rng(5);
            coordinator.stepInterface(golden::randomIface(cfg, rng));
        },
        "exceeded the recv timeout");
}

// --------------------------------------------------------------------
// Fault tolerance: scripted worker kills must recover (respawn +
// checkpoint restore + replay) bit-identically to an undisturbed run,
// across transports, tile counts and datapaths; the same checkpoint
// frames must carry live migration and mid-run rescale.
// --------------------------------------------------------------------

class ShardRecoveryGolden
    : public ::testing::TestWithParam<
          std::tuple<ClusterTransport, int, bool, GoldenBackend>>
{};

TEST_P(ShardRecoveryGolden, KilledWorkersRestoreBitIdenticalToUndisturbed)
{
    const auto [transport, tiles, fixedPoint, backend] = GetParam();
    DncConfig cfg = gridConfig(tiles, 1, fixedPoint);
    cfg.shardCheckpointIntervalSteps = 4;

    GoldenFleet fleet = makeGoldenFleet(backend, transport, cfg, tiles);
    TileMemory &memory = *fleet.memory;
    auto harness = fleet.armRecovery(transport);
    DncD ref(cfg, tiles); // the undisturbed run

    // Scripted kills: worker 0 dies just before serving step 6 (replay
    // window = one step past the step-4 checkpoint, on the per-tile
    // write-sharding frame), worker 1 just before step 14 (its window
    // then spans the step-12 episode reset, so control replay is
    // exercised too).
    FaultSpec killA;
    killA.killAtStepFrame = 6;
    fleet.workers()[0]->injectFault(killA);
    FaultSpec killB;
    killB.killAtStepFrame = 14;
    fleet.workers()[1]->injectFault(killB);

    Rng rng(305 + tiles);
    std::vector<InterfaceVector> perTile(tiles);
    constexpr int kSteps = 18;
    for (int step = 0; step < kSteps; ++step) {
        if (step == 12) {
            ref.reset();
            memory.reset();
        }
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        if (step % 3 == 2) {
            for (Index t = 0; t < tiles; ++t) {
                perTile[t] = iface;
                if (t != static_cast<Index>(step) % tiles)
                    perTile[t].writeGate = 0.0;
            }
            const MemoryReadout a = ref.stepInterfaces(perTile);
            const MemoryReadout b = memory.stepInterfaces(perTile);
            expectReadoutIdentical(a, b, step);
        } else {
            const MemoryReadout a = ref.stepInterface(iface);
            const MemoryReadout b = memory.stepInterface(iface);
            expectReadoutIdentical(a, b, step);
        }
        expectAlphasIdentical(ref, memory, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }

    EXPECT_TRUE(fleet.workers()[0]->faultFired());
    EXPECT_TRUE(fleet.workers()[1]->faultFired());
    EXPECT_EQ(fleet.group->recoveries(), 2u);
    EXPECT_EQ(harness->workers.size(), 2u); // one replacement per kill
    // Checkpoints land at steps 4, 8, 12 and 16.
    EXPECT_EQ(fleet.group->checkpointsTaken(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardRecoveryGolden,
    ::testing::Combine(::testing::Values(ClusterTransport::Loopback,
                                         ClusterTransport::UnixSocket,
                                         ClusterTransport::Tcp,
                                         ClusterTransport::Shm),
                       ::testing::Values(2, 4), ::testing::Bool(),
                       ::testing::Values(GoldenBackend::Coordinator,
                                         GoldenBackend::LaneView)),
    [](const auto &info) {
        return std::string(transportName(std::get<0>(info.param))) +
               "Nt" + std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "Fixed" : "Float") +
               backendSuffix(std::get<3>(info.param));
    });

class PipelinedShardRecoveryGolden
    : public ::testing::TestWithParam<
          std::tuple<ClusterTransport, int, bool>>
{};

TEST_P(PipelinedShardRecoveryGolden,
       KillsInsideTheInFlightWindowDrainDeterministically)
{
    const auto [transport, tiles, fixedPoint] = GetParam();
    const Index lanes = 4;
    DncConfig cfg = gridConfig(tiles, 1, fixedPoint);
    cfg.shardCheckpointIntervalSteps = 2; // steps per lane: every 2 rounds

    LocalLaneCluster cluster = makeLocalLaneCluster(
        transport, cfg, tiles, lanes, /*workerCount=*/2,
        MergePolicy::Confidence, /*wantWeightings=*/true);
    ASSERT_TRUE(cluster.group != nullptr);
    auto harness = armClusterRecovery(cluster, transport);

    std::vector<std::unique_ptr<DncD>> refs;
    for (Index lane = 0; lane < lanes; ++lane)
        refs.push_back(std::make_unique<DncD>(cfg, tiles));

    // Each round scatters two LaneStep frames per worker. Worker 1 dies
    // just before serving frame 7 (round 3's *first* batch — both
    // batches are then outstanding, so recovery must resend the whole
    // window); worker 0 dies before frame 12 (round 5's second batch,
    // after already answering the first — a mid-window kill).
    FaultSpec killA;
    killA.killAtStepFrame = 7;
    cluster.workers[1]->injectFault(killA);
    FaultSpec killB;
    killB.killAtStepFrame = 12;
    cluster.workers[0]->injectFault(killB);

    Rng rng(515 + tiles);
    std::vector<InterfaceVector> ifaces(lanes);
    const std::vector<Index> batchA = {0, 1};
    const std::vector<Index> batchB = {2, 3};
    std::vector<MemoryReadout> outs(lanes);
    for (int round = 0; round < 8; ++round) {
        if (round == 4) {
            // Mid-stream lane churn right between the kills: lane 1
            // recycles; its control frame joins the replay log.
            cluster.group->resetLane(1);
            refs[1]->reset();
        }
        for (Index lane = 0; lane < lanes; ++lane)
            ifaces[lane] = golden::randomIface(cfg, rng);
        cluster.group->scatter(batchA, {&ifaces[0], &ifaces[1]});
        cluster.group->scatter(batchB, {&ifaces[2], &ifaces[3]});
        cluster.group->gather({&outs[0], &outs[1]});
        cluster.group->gather({&outs[2], &outs[3]});
        for (Index lane = 0; lane < lanes; ++lane) {
            SCOPED_TRACE(::testing::Message()
                         << "lane " << lane << " round " << round);
            const MemoryReadout want =
                refs[lane]->stepInterface(ifaces[lane]);
            expectReadoutIdentical(want, outs[lane], round);
            ASSERT_EQ(refs[lane]->lastAlphas().size(),
                      cluster.group->laneAlphas(lane).size());
            for (Index h = 0; h < refs[lane]->lastAlphas().size(); ++h)
                EXPECT_EQ(refs[lane]->lastAlphas()[h],
                          cluster.group->laneAlphas(lane)[h]);
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }

    EXPECT_TRUE(cluster.workers[0]->faultFired());
    EXPECT_TRUE(cluster.workers[1]->faultFired());
    EXPECT_EQ(cluster.group->recoveries(), 2u);
    EXPECT_EQ(harness->workers.size(), 2u);
    EXPECT_GE(cluster.group->checkpointsTaken(), 3u);
    EXPECT_EQ(cluster.group->inFlight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelinedShardRecoveryGolden,
    ::testing::Combine(::testing::Values(ClusterTransport::Loopback,
                                         ClusterTransport::UnixSocket,
                                         ClusterTransport::Tcp,
                                         ClusterTransport::Shm),
                       ::testing::Values(2, 4), ::testing::Bool()),
    [](const auto &info) {
        return std::string(transportName(std::get<0>(info.param))) +
               "Nt" + std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "Fixed" : "Float");
    });

// The full serving engine on a recovering fleet: a worker kill lands
// amid markDraining/release/admit lane churn and the pipelined
// double-buffered schedule, and every surviving lane still matches its
// dedicated reference bit for bit.
TEST(PipelinedEngineRecovery, KillSurvivesLaneChurnBitExactly)
{
    const Index tiles = 2;
    DncConfig cfg = gridConfig(tiles, 1, false);
    cfg.controllerSize = 20;
    cfg.inputSize = 9;
    cfg.outputSize = 7;
    cfg.batchSize = 3;
    cfg.shardCheckpointIntervalSteps = 2; // steps per lane
    const Index lanesPerBatch = 2;
    constexpr std::uint64_t kSeed = 77;

    LocalLaneCluster cluster =
        makeLocalLaneCluster(ClusterTransport::UnixSocket, cfg, tiles,
                             cfg.batchSize, /*workerCount=*/2);
    auto harness = armClusterRecovery(cluster,
                                      ClusterTransport::UnixSocket);
    PipelinedShardedLaneEngine engine(cfg, kSeed, cluster.group,
                                      lanesPerBatch);

    std::vector<std::unique_ptr<ShardedDnc>> refs;
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        refs.push_back(std::make_unique<ShardedDnc>(
            cfg, kSeed, std::make_unique<DncD>(cfg, tiles)));

    // Steps 0-5 send two LaneStep frames each (12), the churn window
    // 6-8 one each (15), step 9 two again — frame 17 kills worker 1 in
    // the second batch of the first post-readmit step.
    FaultSpec kill;
    kill.killAtStepFrame = 17;
    cluster.workers[1]->injectFault(kill);

    Rng rng(411 + tiles);
    std::vector<Vector> inputs(cfg.batchSize);
    std::vector<Vector> outputs;
    constexpr int kSteps = 16;
    for (int step = 0; step < kSteps; ++step) {
        if (step == 6) {
            engine.markDraining(1);
            engine.release(1);
        }
        if (step == 9) {
            const Index slot = engine.admit();
            ASSERT_EQ(slot, 1u);
            refs[1]->beginEpisode();
        }
        for (Index slot = 0; slot < cfg.batchSize; ++slot)
            inputs[slot] = rng.normalVector(cfg.inputSize);
        engine.stepInto(inputs, outputs);
        for (Index slot = 0; slot < cfg.batchSize; ++slot) {
            if (engine.laneState(slot) != LaneState::Active)
                continue;
            const Vector want = refs[slot]->step(inputs[slot]);
            ASSERT_TRUE(want == outputs[slot])
                << "lane " << slot << " diverged at step " << step;
        }
    }
    EXPECT_TRUE(cluster.workers[1]->faultFired());
    EXPECT_EQ(cluster.group->recoveries(), 1u);
    EXPECT_EQ(engine.group().inFlight(), 0u);
}

// Live migration on the synchronous coordinator: a tile slice moves to
// a fresh worker (even one on a *different* transport) between steps,
// with no respawner and no checkpoint cadence configured, and the run
// stays bit-identical throughout.
TEST(ShardMigration, CoordinatorMovesTileSlicesBetweenLiveWorkers)
{
    const Index tiles = 4;
    const DncConfig cfg = gridConfig(tiles, 1, false);
    LocalShardCluster stack =
        makeLocalCluster(ClusterTransport::UnixSocket, cfg, tiles, 2);
    DncD ref(cfg, tiles);

    Rng rng(808);
    MemoryReadout a, b;
    for (int step = 0; step < 12; ++step) {
        if (step == 5)
            stack.coordinator->migrateWorker(
                1, makeClusterWorker(ClusterTransport::UnixSocket,
                                     stack.workers, stack.threads));
        if (step == 8) // channels are transport-agnostic: move to TCP
            stack.coordinator->migrateWorker(
                0, makeClusterWorker(ClusterTransport::Tcp, stack.workers,
                                     stack.threads));
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        ref.stepInterfaceInto(iface, a);
        stack.coordinator->stepInterfaceInto(iface, b);
        expectReadoutIdentical(a, b, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(stack.coordinator->checkpointsTaken(), 2u);
    EXPECT_EQ(stack.coordinator->recoveries(), 0u);
}

// Mid-run scale-out and scale-in on the lane group: the fleet grows
// from 2 to 4 workers and later shrinks back, and every serving lane
// keeps matching its dedicated reference — zero dropped lanes.
TEST(ShardRescale, LaneGroupRedealsTilesMidRunWithZeroDroppedLanes)
{
    const Index tiles = 4;
    const Index lanes = 3;
    const DncConfig cfg = gridConfig(tiles, 1, false);
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::UnixSocket, cfg, tiles, lanes, /*workerCount=*/2,
        MergePolicy::Confidence, /*wantWeightings=*/true);

    std::vector<std::unique_ptr<DncD>> refs;
    for (Index lane = 0; lane < lanes; ++lane)
        refs.push_back(std::make_unique<DncD>(cfg, tiles));

    Rng rng(910);
    MemoryReadout got;
    for (int step = 0; step < 12; ++step) {
        if (step == 4) { // scale out: 2 -> 4 workers, one tile each
            std::vector<std::unique_ptr<Channel>> grown;
            for (int k = 0; k < 4; ++k)
                grown.push_back(
                    makeClusterWorker(ClusterTransport::UnixSocket,
                                      cluster.workers, cluster.threads));
            cluster.group->rescale(std::move(grown));
            EXPECT_EQ(cluster.group->channelCount(), 4u);
        }
        if (step == 9) { // scale back in: 4 -> 2 workers
            std::vector<std::unique_ptr<Channel>> shrunk;
            for (int k = 0; k < 2; ++k)
                shrunk.push_back(
                    makeClusterWorker(ClusterTransport::UnixSocket,
                                      cluster.workers, cluster.threads));
            cluster.group->rescale(std::move(shrunk));
            EXPECT_EQ(cluster.group->channelCount(), 2u);
        }
        for (Index lane = 0; lane < lanes; ++lane) {
            SCOPED_TRACE(::testing::Message()
                         << "lane " << lane << " step " << step);
            const InterfaceVector iface = golden::randomIface(cfg, rng);
            cluster.group->stepLaneInto(lane, iface, got);
            const MemoryReadout want = refs[lane]->stepInterface(iface);
            expectReadoutIdentical(want, got, step);
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(cluster.group->checkpointsTaken(), 2u);
}

// --------------------------------------------------------------------
// Worker protocol edge cases.
// --------------------------------------------------------------------

/** Collects reply frames for direct handleFrame() calls. */
struct CollectSink final : FrameSink
{
    std::vector<std::vector<std::uint8_t>> frames;
    void
    sendFrame(const std::uint8_t *data, std::size_t size) override
    {
        frames.emplace_back(data, data + size);
    }
};

/**
 * A worker scores broadcast and per-tile LaneStep entries alike from
 * its tiles' kept read dots, and refuses a per-tile entry whose read
 * keys or strengths differ between tiles: the coordinator never sends
 * one, so this drives the worker with raw frames. Valid frames (the
 * per-tile ones differ in every write-side field) must reply the
 * in-process DncD tiles' logits bit for bit. A divergent frame gets an
 * Error reply, steps no tile (the next valid frame still matches the
 * reference) and leaves the worker serving. R = 4 and W = 20 run the
 * AVX2 scoring body with a column tail.
 */
TEST(ShardWorkerProtocol, PerTileLaneStepWithDivergentQueriesIsAnError)
{
    const Index tiles = 4;
    DncConfig cfg = gridConfig(tiles, 1, false);
    cfg.memoryWidth = 20;
    cfg.readHeads = 4;
    const DncConfig shard = shardConfigFor(cfg, tiles);
    const Index heads = cfg.readHeads;
    DncD ref(cfg, tiles);
    ShardWorker worker;
    CollectSink sink;
    WireWriter w;
    encodeHello(WireConfig::fromShard(shard, tiles), w);
    ASSERT_TRUE(worker.handleFrame(w.buffer().data(), w.buffer().size(),
                                   sink));

    Rng rng(606);
    LaneStepReplyMsg reply;
    for (std::uint64_t seq = 1; seq <= 12; ++seq) {
        SCOPED_TRACE(::testing::Message() << "seq " << seq);
        std::vector<InterfaceVector> ifaces;
        for (Index t = 0; t < tiles; ++t) {
            ifaces.push_back(golden::randomIface(cfg, rng));
            ifaces.back().readKeys = ifaces[0].readKeys;
            ifaces.back().readStrengths = ifaces[0].readStrengths;
            ifaces.back().writeGate = t == seq % tiles ? 1.0 : 0.0;
        }
        const bool perTile = seq % 2 == 0;
        if (seq % 4 == 2) {
            std::vector<InterfaceVector> divergent = ifaces;
            if (seq % 8 == 2)
                divergent[3].readKeys[2][5] += 0.25;
            else
                divergent[1].readStrengths[3] += 1.0;
            const LaneStepEntry bad[] = {
                {0, (1u << heads) - 1, divergent.data(), tiles}};
            encodeLaneStep(seq, false, bad, 1, w);
            sink.frames.clear();
            ASSERT_TRUE(worker.handleFrame(w.buffer().data(),
                                           w.buffer().size(), sink));
            ASSERT_EQ(sink.frames.size(), 1u);
            ErrorMsg err;
            ASSERT_TRUE(decodeError(sink.frames[0].data(),
                                    sink.frames[0].size(), err));
            EXPECT_NE(err.message.find("diverge"), std::string::npos)
                << err.message;
        }
        if (perTile)
            ref.stepInterfaces(ifaces);
        else
            ref.stepInterface(ifaces[0]);
        const LaneStepEntry entry[] = {
            {0, (1u << heads) - 1, ifaces.data(), perTile ? tiles : 0}};
        encodeLaneStep(seq, false, entry, 1, w);
        sink.frames.clear();
        ASSERT_TRUE(
            worker.handleFrame(w.buffer().data(), w.buffer().size(), sink));
        ASSERT_EQ(sink.frames.size(), 1u);
        ASSERT_TRUE(decodeLaneStepReply(sink.frames[0].data(),
                                        sink.frames[0].size(), shard, tiles,
                                        1, reply));
        for (Index t = 0; t < tiles; ++t) {
            ASSERT_TRUE(worker.laneTile(0, t).memory() ==
                        ref.shard(t).memory());
            for (Index h = 0; h < heads; ++h)
                EXPECT_EQ(reply.confidence[t * heads + h],
                          ref.shard(t).readConfidence(h))
                    << "tile " << t << " head " << h;
        }
    }
}

TEST(ShardWorkerProtocol, StepBeforeHelloIsAnError)
{
    ShardWorker worker;
    CollectSink sink;
    WireWriter w;
    Rng rng(1);
    const InterfaceVector iface =
        golden::randomIface(gridConfig(2, 1, false), rng);
    const LaneStepEntry entry[] = {{0, 0, &iface}};
    encodeLaneStep(1, false, entry, 1, w);
    worker.handleFrame(w.buffer().data(), w.buffer().size(), sink);
    ASSERT_EQ(sink.frames.size(), 1u);
    MsgType type;
    ASSERT_TRUE(peekType(sink.frames[0].data(), sink.frames[0].size(),
                         type));
    EXPECT_EQ(type, MsgType::Error);
}

TEST(ShardWorkerProtocol, InvalidConfigIsRejectedInTheAck)
{
    // Zero shapes, tile assignments that do not fit inside the Nt
    // tiles a per-tile LaneStep entry carries, and handshakes whose
    // every field is inside its cap but whose hosted tile state is not
    // inside kMaxHostedStateBytes (the worker would allocate it all).
    const DncConfig shard = shardConfigFor(gridConfig(4, 1, false), 4);
    std::vector<WireConfig> bad(7, WireConfig::fromShard(shard, 2));
    bad[0] = WireConfig();
    bad[1].tiles = 3;
    bad[1].firstTile = 2; // tiles 2..3 of a 3-tile fleet
    bad[2].tiles = 4;
    bad[2].firstTile = 5; // starts past the fleet
    bad[3].tiles = 1u << 20; // beyond the Nt cap
    bad[4].memoryRows = 1u << 14; // 2 GiB of linkage per tile
    bad[5].memoryRows = 4096;     // 16 tiles of 128 MiB linkage
    bad[5].lanes = 8;
    bad[6].memoryRows = 1024;     // 2^16 tiles of 8 MiB linkage
    bad[6].lanes = 4096;
    bad[6].hostedTiles = 16;
    bad[6].tiles = 16;
    for (Index i = 4; i < bad.size(); ++i) {
        const WireConfig &c = bad[i];
        const std::uint64_t n = c.memoryRows;
        EXPECT_GT(c.lanes * c.hostedTiles * sizeof(Real) * n * n,
                  kMaxHostedStateBytes)
            << "entry " << i << " must be over budget";
    }
    for (const WireConfig &config : bad) {
        ShardWorker worker;
        CollectSink sink;
        WireWriter w;
        encodeHello(config, w);
        worker.handleFrame(w.buffer().data(), w.buffer().size(), sink);
        ASSERT_EQ(sink.frames.size(), 1u);
        HelloAckMsg ack;
        ASSERT_TRUE(decodeHelloAck(sink.frames[0].data(),
                                   sink.frames[0].size(), ack));
        EXPECT_FALSE(ack.ok);
        EXPECT_FALSE(worker.configured());
    }
}

TEST(ShardWorkerProtocol, MalformedFrameIsAnsweredWithError)
{
    ShardWorker worker;
    CollectSink sink;
    const std::uint8_t garbage[] = {0x00, 0x01, 0x02};
    EXPECT_TRUE(worker.handleFrame(garbage, sizeof(garbage), sink));
    ASSERT_EQ(sink.frames.size(), 1u);
    ErrorMsg err;
    EXPECT_TRUE(decodeError(sink.frames[0].data(), sink.frames[0].size(),
                            err));
}

TEST(ShardWorkerProtocol, AdmitControlCountsEpisodes)
{
    const DncConfig cfg = gridConfig(2, 1, false);
    LocalShardCluster stack =
        makeLocalCluster(ClusterTransport::Loopback, cfg, 2, 1);
    EXPECT_EQ(stack.workers[0]->episodesServed(), 0u);
    stack.coordinator->beginEpisode();
    stack.coordinator->beginEpisode();
    stack.coordinator->reset(); // EpisodeReset does not count
    EXPECT_EQ(stack.workers[0]->episodesServed(), 2u);
}

TEST(ShardWorkerProtocol, RejoinRecordsTheTileAssignment)
{
    const DncConfig cfg = gridConfig(4, 1, false);
    const DncConfig shard = shardConfigFor(cfg, 4);
    ShardWorker worker;
    CollectSink sink;
    WireWriter w;
    WireConfig assignment =
        WireConfig::fromShard(shard, /*hostedTiles=*/2, /*lanes=*/3);
    assignment.tiles = 4;
    assignment.firstTile = 2;
    encodeRejoin(assignment, w);
    worker.handleFrame(w.buffer().data(), w.buffer().size(), sink);
    ASSERT_EQ(sink.frames.size(), 1u);
    HelloAckMsg ack;
    ASSERT_TRUE(decodeHelloAck(sink.frames[0].data(),
                               sink.frames[0].size(), ack));
    ASSERT_TRUE(ack.ok);
    EXPECT_EQ(ack.hostedTiles, 2u);
    EXPECT_TRUE(worker.configured());
    EXPECT_EQ(worker.lanes(), 3u);
    EXPECT_EQ(worker.firstGlobalTile(), 2u);
}

TEST(ShardWorkerProtocol, CheckpointAndRestoreBeforeHelloAreErrors)
{
    ShardWorker worker;
    CollectSink sink;
    WireWriter w;
    encodeCheckpointRequest(1, w);
    worker.handleFrame(w.buffer().data(), w.buffer().size(), sink);
    encodeRestore(1, nullptr, 0, gridConfig(2, 1, false), w);
    worker.handleFrame(w.buffer().data(), w.buffer().size(), sink);
    ASSERT_EQ(sink.frames.size(), 2u);
    for (const auto &frame : sink.frames) {
        MsgType type;
        ASSERT_TRUE(peekType(frame.data(), frame.size(), type));
        EXPECT_EQ(type, MsgType::Error);
    }
    EXPECT_FALSE(worker.configured());
}

TEST(ShardFault, ScriptedKillSilencesTheWorkerAtTheExactFrame)
{
    // Protocol-level view of a kill: the worker answers step frames
    // normally until the scripted one, then plays dead — no reply, no
    // Error — exactly what a crashed process looks like to the
    // coordinator.
    const DncConfig cfg = gridConfig(2, 1, false);
    const DncConfig shard = shardConfigFor(cfg, 2);
    ShardWorker worker;
    CollectSink sink;
    WireWriter w;
    encodeHello(WireConfig::fromShard(shard, 2), w);
    ASSERT_TRUE(worker.handleFrame(w.buffer().data(), w.buffer().size(),
                                   sink));
    FaultSpec kill;
    kill.killAtStepFrame = 3;
    worker.injectFault(kill);

    Rng rng(13);
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        const InterfaceVector iface = golden::randomIface(shard, rng);
        const LaneStepEntry entry[] = {{0, 0, &iface}};
        encodeLaneStep(seq, false, entry, 1, w);
        const bool alive =
            worker.handleFrame(w.buffer().data(), w.buffer().size(), sink);
        EXPECT_EQ(alive, seq < 3) << "seq " << seq;
    }
    // Hello ack + the two steps served before the kill; nothing after.
    EXPECT_EQ(sink.frames.size(), 3u);
    EXPECT_TRUE(worker.faultFired());
}

// --------------------------------------------------------------------
// Zero-allocation steady state over loopback.
// --------------------------------------------------------------------

TEST(ShardZeroAlloc, SteadyStateLoopbackRoundTrip)
{
    const DncConfig cfg = serveCfg();
    ShardedDnc model(cfg, 9,
                     loopbackBackend(cfg, /*tiles=*/4, /*workers=*/2));
    Rng rng(606);
    std::vector<Vector> inputs;
    for (int i = 0; i < 8; ++i)
        inputs.push_back(rng.normalVector(cfg.inputSize));

    Vector out;
    model.stepInto(inputs[0], out); // sizes every buffer on both ends
    model.stepInto(inputs[1], out);
    model.stepInto(inputs[2], out);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 3; i < 8; ++i)
        model.stepInto(inputs[i], out);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state sharded step performed heap allocations "
           "(encode, decode, worker step, or merge path regressed)";
}

TEST(ShardZeroAlloc, SteadyStateShmRoundTrip)
{
    // The zero-copy transport must hold the same bar as loopback: once
    // ring slots and decode buffers are warm, a full scatter/gather
    // step over shared memory allocates nothing on either side of the
    // rings (the worker thread's allocations land in the same
    // process-wide counter).
    const DncConfig cfg = serveCfg();
    LocalShardCluster stack = makeLocalCluster(
        ClusterTransport::Shm, cfg, /*tiles=*/4, /*workerCount=*/2,
        MergePolicy::Confidence, /*wantWeightings=*/false);

    Rng rng(606);
    std::vector<InterfaceVector> ifaces;
    for (int i = 0; i < 8; ++i)
        ifaces.push_back(golden::randomIface(cfg, rng));

    MemoryReadout out;
    for (int i = 0; i < 3; ++i) // sizes every buffer on both ends
        stack.coordinator->stepInterfaceInto(ifaces[i], out);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 3; i < 8; ++i)
        stack.coordinator->stepInterfaceInto(ifaces[i], out);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state shm step performed heap allocations (in-place "
           "encode, slot borrow/release, worker step, or merge path "
           "regressed)";
}

/**
 * Time steps [3, 8) of an engine after three warm-up steps, with lane
 * churn between the timed steps: slot 1 drains and leaves (its column
 * compacts away), then is re-admitted at the end of the active prefix
 * below the still-Active slots 2 and 3, so the later steps run with
 * slots out of column order. Returns the allocations in that window.
 */
std::uint64_t
allocationsAcrossChurn(LaneEngine &engine)
{
    const DncConfig &cfg = engine.config();
    Rng rng(707);
    std::vector<std::vector<Vector>> inputs;
    for (int i = 0; i < 8; ++i) {
        inputs.emplace_back();
        for (Index lane = 0; lane < cfg.batchSize; ++lane)
            inputs.back().push_back(rng.normalVector(cfg.inputSize));
    }

    std::vector<Vector> outputs;
    engine.stepInto(inputs[0], outputs); // sizes every buffer, both ends
    engine.stepInto(inputs[1], outputs);
    engine.stepInto(inputs[2], outputs);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 3; i < 8; ++i) {
        if (i == 4) {
            engine.markDraining(1);
            engine.release(1);
        }
        if (i == 6)
            engine.admit();
        engine.stepInto(inputs[i], outputs);
    }
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(engine.laneState(1), LaneState::Active);
    EXPECT_EQ(engine.activeLanes(), cfg.batchSize);
    return after - before;
}

TEST(ShardZeroAlloc, SteadyStatePipelinedEngineStep)
{
    DncConfig cfg = serveCfg();
    cfg.batchSize = 4;
    cfg.shardLanesPerBatch = 2; // two overlapped batches per step
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::Loopback, cfg, /*tiles=*/4, cfg.batchSize,
        /*workerCount=*/2);
    PipelinedShardedLaneEngine engine(cfg, 9, cluster.group);

    EXPECT_EQ(allocationsAcrossChurn(engine), 0u)
        << "steady-state pipelined engine step performed heap "
           "allocations (lane-batched encode/decode, scatter window and "
           "its slot sort, worker lane step, merge path, or the "
           "controller's column moves regressed)";
}

TEST(ShardZeroAlloc, SteadyStateSyncEngineStep)
{
    DncConfig cfg = serveCfg();
    cfg.batchSize = 4;
    ShardedLaneEngine engine(cfg, 9, [&cfg](Index) {
        return loopbackBackend(cfg, /*tiles=*/4, /*workers=*/2);
    });

    EXPECT_EQ(allocationsAcrossChurn(engine), 0u)
        << "steady-state sync engine step performed heap allocations "
           "(batched controller step, per-lane round trip, output head, "
           "or the controller's column moves regressed)";
}

TEST(ShardZeroAlloc, SteadyStateWithCheckpointingAndReplayLog)
{
    // Recovery armed with the tightest cadence: every counted window
    // spans multiple checkpoint pulls (CheckpointState frames, snapshot
    // decode, replay-log ring) and must still allocate nothing once the
    // rings are warm.
    DncConfig cfg = serveCfg();
    cfg.shardCheckpointIntervalSteps = 2;
    LocalShardCluster stack =
        makeLocalCluster(ClusterTransport::Loopback, cfg, /*tiles=*/4,
                         /*workerCount=*/2, MergePolicy::Confidence,
                         /*wantWeightings=*/false);
    auto harness = armClusterRecovery(stack, ClusterTransport::Loopback);

    Rng rng(606);
    std::vector<InterfaceVector> ifaces;
    for (int i = 0; i < 11; ++i)
        ifaces.push_back(golden::randomIface(cfg, rng));

    MemoryReadout out;
    for (int i = 0; i < 5; ++i) // warm: two full checkpoint intervals
        stack.coordinator->stepInterfaceInto(ifaces[i], out);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 5; i < 11; ++i)
        stack.coordinator->stepInterfaceInto(ifaces[i], out);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state step with checkpointing performed heap "
           "allocations (checkpoint encode/decode, snapshot store, "
           "pending-frame tracking, or replay-log ring regressed)";
    EXPECT_EQ(stack.coordinator->checkpointsTaken(), 5u);
}

TEST(ShardZeroAlloc, SteadyStatePipelinedEngineWithCheckpointing)
{
    DncConfig cfg = serveCfg();
    cfg.batchSize = 4;
    cfg.shardLanesPerBatch = 2;         // two overlapped batches per step
    cfg.shardCheckpointIntervalSteps = 2; // per lane: pull every 2 steps
    LocalLaneCluster cluster = makeLocalLaneCluster(
        ClusterTransport::Loopback, cfg, /*tiles=*/4, cfg.batchSize,
        /*workerCount=*/2);
    auto harness = armClusterRecovery(cluster, ClusterTransport::Loopback);
    PipelinedShardedLaneEngine engine(cfg, 9, cluster.group);

    Rng rng(707);
    std::vector<std::vector<Vector>> inputs;
    for (int i = 0; i < 9; ++i) {
        inputs.emplace_back();
        for (Index lane = 0; lane < cfg.batchSize; ++lane)
            inputs.back().push_back(rng.normalVector(cfg.inputSize));
    }

    std::vector<Vector> outputs;
    for (int i = 0; i < 4; ++i) // warm: two checkpoint pulls
        engine.stepInto(inputs[i], outputs);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 4; i < 9; ++i)
        engine.stepInto(inputs[i], outputs);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state pipelined step with checkpointing performed "
           "heap allocations (lane-major checkpoint store, shared-frame "
           "replay log, or in-flight window tracking regressed)";
    // The cadence counts steps per lane: a pull after every second
    // engine step (steps 2, 4, 6, 8), not whenever the four lanes'
    // summed steps reach the interval (which would pull every step).
    EXPECT_EQ(cluster.group->checkpointsTaken(), 4u);
}

} // namespace
} // namespace hima
