/**
 * @file
 * Lane-lifecycle + router bit-exactness proof.
 *
 * The contract under test extends PR 2's: every request served through
 * the dynamic-batching router is bit-identical to a dedicated sequential
 * Dnc run of the same token stream — regardless of when the request
 * arrived, which slot it landed in, what admissions/evictions its
 * co-tenants went through, the thread count or fixed-point mode.
 * Engine-level churn is covered by the randomized
 * admit/evict lockstep in golden_util.h; router-level by replaying
 * Poisson and bursty arrival traces and checking every completed
 * request against a reference model. Lifecycle mechanics, greedy
 * admission, queue back-pressure and the DncConfig queue bound get
 * their own unit tests.
 */

#include <algorithm>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "golden_util.h"
#include "serve/router.h"
#include "workload/arrival.h"

namespace hima {
namespace {

DncConfig
tinyConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 40;
    cfg.memoryWidth = 12;
    cfg.readHeads = 2;
    cfg.controllerSize = 24;
    cfg.inputSize = 10;
    cfg.outputSize = 8;
    return cfg;
}

// --------------------------------------------------------------------
// Engine-level churn golden sweep: randomized admit/evict interleavings
// across threads x datapath, per the issue's acceptance grid.
// --------------------------------------------------------------------

class LaneChurnBitExact
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(LaneChurnBitExact, ChurnedLanesMatchSequentialReference)
{
    const auto [threads, fixedPoint] = GetParam();
    DncConfig cfg = tinyConfig();
    cfg.fixedPoint = fixedPoint;
    golden::runChurnLockstep(cfg, /*capacity=*/6,
                             static_cast<Index>(threads), /*steps=*/16);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LaneChurnBitExact,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Bool()),
    [](const auto &info) {
        return "T" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "Fixed" : "Float");
    });

TEST(LaneChurn, FreshEpisodeZeroRowSkipsStayBitIdentical)
{
    // Every admitted episode's first step skips its all-zero rows;
    // re-admissions must skip again without disturbing co-tenants.
    const DncConfig cfg = tinyConfig();
    std::uint64_t skips = 0;
    golden::runChurnLockstep(cfg, 5, 4, 12, /*weightSeed=*/3,
                             /*churnSeed=*/11, /*inputSeed=*/31, &skips);
    EXPECT_GT(skips, 5 * cfg.memoryRows);
}

TEST(LaneChurn, CrossesTheLaneChunkBoundary)
{
    // Churn moves the active prefix across the kBatchLaneChunk=4
    // register-chunk boundary: capacity 7 visits every tail width
    // (1-3 masked lanes) and the one-lane scalar path; capacity 70
    // adds prefixes many chunks deep.
    static_assert(kBatchLaneChunk == 4, "revisit the capacities below");
    DncConfig cfg = tinyConfig();
    cfg.memoryRows = 16;
    cfg.controllerSize = 12;
    for (Index capacity : {Index(7), Index(70)})
        golden::runChurnLockstep(cfg, capacity, 2, 6, /*weightSeed=*/19,
                                 /*churnSeed=*/23, /*inputSeed=*/29);
}

// --------------------------------------------------------------------
// Lane-lifecycle mechanics.
// --------------------------------------------------------------------

TEST(LaneLifecycle, StartsFullyOccupiedAndRoundTrips)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 4;
    BatchedDnc engine(cfg, 5);
    EXPECT_EQ(engine.activeLanes(), 4u);
    EXPECT_EQ(engine.freeLanes(), 0u);
    EXPECT_EQ(engine.capacity(), 4u);

    engine.markDraining(2);
    EXPECT_EQ(engine.laneState(2), LaneState::Draining);
    EXPECT_EQ(engine.activeLanes(), 3u);
    EXPECT_EQ(engine.drainingLanes(), 1u);

    engine.release(2);
    engine.release(0); // Active -> Free directly is allowed
    EXPECT_EQ(engine.laneState(0), LaneState::Free);
    EXPECT_EQ(engine.freeLanes(), 2u);
    EXPECT_EQ(engine.activeLanes(), 2u);

    const Index a = engine.admit();
    const Index b = engine.admit();
    EXPECT_EQ(engine.freeLanes(), 0u);
    EXPECT_EQ(engine.activeLanes(), 4u);
    // Slot ids are recycled from the free pool, never invented.
    EXPECT_TRUE((a == 0 && b == 2) || (a == 2 && b == 0));
}

TEST(LaneLifecycle, AdmitIsAFreshEpisode)
{
    // A slot that served one episode and was recycled must reproduce a
    // fresh lane's trajectory exactly, even though its neighbors kept
    // their state.
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 3;
    BatchedDnc engine(cfg, 13);
    Rng rng(17);

    std::vector<Vector> inputs(cfg.batchSize);
    std::vector<Vector> outputs;
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        inputs[slot] = rng.normalVector(cfg.inputSize);
    engine.stepInto(inputs, outputs);
    const Vector firstStepOut = outputs[1];

    engine.stepInto(inputs, outputs); // slot 1 accumulates more state
    engine.release(1);
    ASSERT_EQ(engine.admit(), 1u); // the only free slot

    engine.stepInto(inputs, outputs);
    EXPECT_TRUE(outputs[1] == firstStepOut)
        << "recycled slot did not restart from a fresh episode";
}

TEST(LaneLifecycle, DrainingLaneStateStaysFrozen)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 3;
    BatchedDnc engine(cfg, 21);
    Rng rng(23);

    std::vector<Vector> inputs(cfg.batchSize);
    std::vector<Vector> outputs;
    for (int step = 0; step < 3; ++step) {
        for (Index slot = 0; slot < cfg.batchSize; ++slot)
            inputs[slot] = rng.normalVector(cfg.inputSize);
        engine.stepInto(inputs, outputs);
    }

    const Vector hidden = engine.laneHidden(1);
    const Matrix memory = engine.laneMemory(1).memory();
    engine.markDraining(1);
    for (int step = 0; step < 2; ++step) {
        for (Index slot = 0; slot < cfg.batchSize; ++slot)
            inputs[slot] = rng.normalVector(cfg.inputSize);
        engine.stepInto(inputs, outputs);
    }
    EXPECT_TRUE(engine.laneHidden(1) == hidden);
    EXPECT_TRUE(engine.laneMemory(1).memory() == memory);
}

TEST(LaneLifecycle, EmptyEngineStepIsANoOp)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    BatchedDnc engine(cfg, 31);
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        engine.release(slot);

    std::vector<Vector> inputs(cfg.batchSize);
    std::vector<Vector> outputs;
    engine.stepInto(inputs, outputs); // must not touch the empty inputs
    EXPECT_EQ(outputs.size(), cfg.batchSize);
    EXPECT_EQ(engine.activeLanes(), 0u);
}

TEST(LaneLifecycle, ResetRestoresFullOccupancy)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 3;
    BatchedDnc engine(cfg, 33);
    engine.release(0);
    engine.markDraining(2);
    engine.reset();
    EXPECT_EQ(engine.activeLanes(), 3u);
    EXPECT_EQ(engine.freeLanes(), 0u);
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        EXPECT_EQ(engine.laneState(slot), LaneState::Active);
}

// --------------------------------------------------------------------
// Router-level golden: arrival traces served through the router must be
// bit-identical, request by request, to dedicated sequential runs.
// --------------------------------------------------------------------

/**
 * Serve a trace through a router and check every completed request
 * against a dedicated reference Dnc fed the same regenerated tokens.
 */
void
routerGolden(DncConfig cfg, const ArrivalSpec &spec, Index horizon,
             std::uint64_t weightSeed = 1, std::uint64_t traceSeed = 41,
             std::uint64_t tokenSeed = 43)
{
    Router router(cfg, weightSeed);
    Rng traceRng(traceSeed);
    const std::vector<ArrivalEvent> trace =
        makeArrivalTrace(spec, horizon, traceRng);
    ASSERT_FALSE(trace.empty()) << "arrival spec generated no load";

    std::map<std::uint64_t, ArrivalEvent> accepted;
    std::size_t next = 0;
    while (next < trace.size()) {
        while (next < trace.size() && trace[next].step <= router.now()) {
            const ArrivalEvent &event = trace[next];
            ServeRequest request;
            request.id = event.ordinal;
            request.tokens = requestTokens(event, cfg.inputSize, tokenSeed);
            if (router.submit(std::move(request)))
                accepted.emplace(event.ordinal, event);
            ++next;
        }
        router.step();
    }
    router.drain();

    ASSERT_EQ(router.completed().size(), accepted.size());
    EXPECT_EQ(router.rejectedRequests(), trace.size() - accepted.size())
        << "rejection counter out of sync with refused submissions";
    EXPECT_EQ(router.activeRequests(), 0u);
    EXPECT_EQ(router.queuedRequests(), 0u);

    DncConfig refCfg = cfg;
    refCfg.batchSize = 1;
    refCfg.numThreads = 1;
    Dnc ref(refCfg, weightSeed);
    for (const ServeResult &result : router.completed()) {
        SCOPED_TRACE(::testing::Message() << "request " << result.id);
        const auto it = accepted.find(result.id);
        ASSERT_NE(it, accepted.end());
        const std::vector<Vector> tokens =
            requestTokens(it->second, cfg.inputSize, tokenSeed);
        ASSERT_EQ(result.outputs.size(), tokens.size());
        ref.reset();
        for (Index t = 0; t < tokens.size(); ++t)
            ASSERT_TRUE(ref.step(tokens[t]) == result.outputs[t])
                << "output " << t << " diverged";
        EXPECT_GE(result.admitStep, result.arrivalStep);
        EXPECT_EQ(result.finishStep,
                  result.admitStep + tokens.size() - 1)
            << "service must be one token per step once admitted";
    }
}

class RouterBitExact
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(RouterBitExact, PoissonTraceMatchesSequentialReference)
{
    const auto [threads, fixedPoint] = GetParam();
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 4;
    cfg.numThreads = static_cast<Index>(threads);
    cfg.fixedPoint = fixedPoint;
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rate = 0.35; // oversubscribes 4 lanes: queueing + churn
    routerGolden(cfg, spec, /*horizon=*/40);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RouterBitExact,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Bool()),
    [](const auto &info) {
        return "T" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "Fixed" : "Float");
    });

TEST(Router, BurstyTraceMatchesSequentialReference)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 3;
    cfg.numThreads = 2;
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rate = 0.05;
    spec.burstProbability = 0.15;
    spec.burstSize = 5; // bursts exceed capacity: forced queueing
    for (const bool fixedPoint : {false, true}) {
        SCOPED_TRACE(fixedPoint ? "fixed point" : "float");
        cfg.fixedPoint = fixedPoint;
        routerGolden(cfg, spec, /*horizon=*/30, /*weightSeed=*/3,
                     /*traceSeed=*/47, /*tokenSeed=*/53);
    }
}

// --------------------------------------------------------------------
// Overload: bursty traffic overflowing routerQueueCapacity. Rejected
// submissions must be counted deterministically, and every *accepted*
// request must still come back bit-exact (routerGolden only tracks
// requests submit() accepted, so it proves exactly that).
// --------------------------------------------------------------------

TEST(RouterOverload, BurstyOverflowRejectsAndAcceptedStayBitExact)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    cfg.routerQueueCapacity = 3; // bursts of 7 must overflow
    cfg.numThreads = 2;
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rate = 0.05;
    spec.burstProbability = 0.3;
    spec.burstSize = 7;
    routerGolden(cfg, spec, /*horizon=*/30, /*weightSeed=*/7,
                 /*traceSeed=*/101, /*tokenSeed=*/103);
}

TEST(RouterOverload, RejectionCountIsDeterministicAndNonZero)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    cfg.routerQueueCapacity = 2;
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rate = 0.05;
    spec.burstProbability = 0.4;
    spec.burstSize = 8;

    auto serveOnce = [&]() -> std::pair<Index, Index> {
        Router router(cfg, 1);
        Rng traceRng(107);
        const auto trace = makeArrivalTrace(spec, 24, traceRng);
        std::size_t next = 0;
        Index refused = 0;
        while (next < trace.size() || !router.idle()) {
            while (next < trace.size() &&
                   trace[next].step <= router.now()) {
                ServeRequest request;
                request.id = trace[next].ordinal;
                request.tokens =
                    requestTokens(trace[next], cfg.inputSize, 109);
                if (!router.submit(std::move(request)))
                    ++refused;
                ++next;
            }
            router.step();
        }
        router.drain();
        EXPECT_EQ(router.rejectedRequests(), refused);
        EXPECT_EQ(router.completed().size(), trace.size() - refused);
        return {router.rejectedRequests(), router.completed().size()};
    };

    const auto [rejectedA, completedA] = serveOnce();
    const auto [rejectedB, completedB] = serveOnce();
    EXPECT_GT(rejectedA, 0u) << "trace must actually overflow the queue";
    EXPECT_GT(completedA, 0u);
    EXPECT_EQ(rejectedA, rejectedB) << "back-pressure must be deterministic";
    EXPECT_EQ(completedA, completedB);
}

// --------------------------------------------------------------------
// Router behavior that doesn't need the reference model.
// --------------------------------------------------------------------

ServeRequest
makeRequest(std::uint64_t id, Index tokens, const DncConfig &cfg, Rng &rng)
{
    ServeRequest request;
    request.id = id;
    for (Index t = 0; t < tokens; ++t)
        request.tokens.push_back(rng.normalVector(cfg.inputSize));
    return request;
}

TEST(Router, QueueCapacityAppliesBackPressure)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 1;
    cfg.routerQueueCapacity = 2;
    Router router(cfg);
    Rng rng(67);

    EXPECT_TRUE(router.submit(makeRequest(0, 4, cfg, rng)));
    EXPECT_TRUE(router.submit(makeRequest(1, 4, cfg, rng)));
    EXPECT_FALSE(router.submit(makeRequest(2, 4, cfg, rng)))
        << "third submission must bounce off capacity 2";
    EXPECT_EQ(router.rejectedRequests(), 1u);

    router.step(); // admits request 0, queue has room again
    EXPECT_TRUE(router.submit(makeRequest(3, 4, cfg, rng)));
    router.drain();
    EXPECT_EQ(router.completed().size(), 3u);
}

TEST(Router, DrainLeavesEveryLaneFree)
{
    // Lanes that finish on the final step are Draining at that instant;
    // drain() must flush them so an idle router reports a fully free
    // engine (callers may check capacity or hand the engine elsewhere).
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    Router router(cfg);
    Rng rng(89);
    ASSERT_TRUE(router.submit(makeRequest(0, 3, cfg, rng)));
    ASSERT_TRUE(router.submit(makeRequest(1, 5, cfg, rng)));
    router.drain();
    EXPECT_TRUE(router.idle());
    EXPECT_EQ(router.engine().freeLanes(), cfg.batchSize);
    EXPECT_EQ(router.engine().drainingLanes(), 0u);
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        EXPECT_EQ(router.engine().laneState(slot), LaneState::Free);

    // And the router keeps serving after a drain.
    ASSERT_TRUE(router.submit(makeRequest(2, 2, cfg, rng)));
    router.drain();
    EXPECT_EQ(router.completed().size(), 3u);
    EXPECT_EQ(router.engine().freeLanes(), cfg.batchSize);
}

TEST(Router, GreedyAdmissionBindsImmediately)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 4;
    Router router(cfg);
    Rng rng(73);
    ASSERT_TRUE(router.submit(makeRequest(7, 5, cfg, rng)));
    router.drain();
    ASSERT_EQ(router.completed().size(), 1u);
    const ServeResult &result = router.completed()[0];
    EXPECT_EQ(result.queueSteps(), 0u);
    EXPECT_EQ(result.latencySteps(), 5u); // pure service time
}

// --------------------------------------------------------------------
// DncConfig queue-bound validation.
// --------------------------------------------------------------------

using RouterConfigDeath = ::testing::Test;

TEST(RouterConfigDeath, ZeroQueueCapacityIsFatal)
{
    DncConfig cfg = tinyConfig();
    cfg.routerQueueCapacity = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "routerQueueCapacity");
}

TEST(RouterConfig, DefaultsAndBoundaryValuesValidate)
{
    DncConfig cfg = tinyConfig();
    cfg.validate(); // default queue: 256
    cfg.routerQueueCapacity = 1; // minimum legal queue
    cfg.validate();
}

} // namespace
} // namespace hima
