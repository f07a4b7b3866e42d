/**
 * @file
 * Bit-exactness proof for the batched serving engine: every lane of a
 * BatchedDnc must match an independent reference Dnc run — outputs and
 * complete per-lane state, compared with exact double equality — for
 * every combination of batch size, thread count and datapath mode, plus
 * the feature knobs that change the memory-unit fast path
 * (writeSkipThreshold, usage skimming, approximate softmax). The
 * batched controller the engines share is also checked on its own
 * column-range surface against dedicated Controllers.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "golden_util.h"

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
// The B x threads x datapath sweep from the issue:
// B in {1,2,7,16} x threads in {1,4} x {float, fixed-point}.
// --------------------------------------------------------------------

class BatchedDncBitExact
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(BatchedDncBitExact, LanesMatchSequentialReference)
{
    const auto [batch, threads, fixedPoint] = GetParam();
    DncConfig cfg = tinyConfig();
    cfg.fixedPoint = fixedPoint;
    golden::runLockstep(cfg, static_cast<Index>(batch),
                        static_cast<Index>(threads), 8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedDncBitExact,
    ::testing::Combine(::testing::Values(1, 2, 7, 16),
                       ::testing::Values(1, 4), ::testing::Bool()),
    [](const auto &info) {
        return "B" + std::to_string(std::get<0>(info.param)) + "T" +
               std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "Fixed" : "Float");
    });

// --------------------------------------------------------------------
// Feature knobs that alter the memory-unit hot path.
// --------------------------------------------------------------------

TEST(BatchedDnc, WriteSkipThresholdStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.writeSkipThreshold = 1e-6;
    golden::runLockstep(cfg, 5, 4, 8, /*weightSeed=*/3, /*inputSeed=*/31);
}

TEST(BatchedDnc, UsageSkimmingStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.skimRate = 0.25;
    golden::runLockstep(cfg, 3, 2, 8, /*weightSeed=*/5, /*inputSeed=*/51);
}

TEST(BatchedDnc, ApproximateSoftmaxStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.approximateSoftmax = true;
    golden::runLockstep(cfg, 4, 1, 6, /*weightSeed=*/7, /*inputSeed=*/71);
}

TEST(BatchedDnc, LinkageSkipThresholdStaysBitIdentical)
{
    DncConfig cfg = tinyConfig();
    cfg.linkageSkipThreshold = 1e-6;
    golden::runLockstep(cfg, 5, 4, 8, /*weightSeed=*/9, /*inputSeed=*/41);
}

TEST(BatchedDnc, LinkageSkipChurnStaysBitIdentical)
{
    // Admit/release churn with the linkage approximation on: every
    // admit's episode reset must clear the lane's active-row set, and
    // the row-mass compare inside expectLaneStateIdentical pins each
    // lane's skip decisions to its sequential reference every step.
    DncConfig cfg = tinyConfig();
    cfg.linkageSkipThreshold = 1e-6;
    golden::runChurnLockstep(cfg, /*capacity=*/5, /*threads=*/2, 14,
                             /*weightSeed=*/21, /*churnSeed=*/9,
                             /*inputSeed=*/61);
}

TEST(BatchedDnc, BeyondOneLaneChunkStaysBitIdentical)
{
    // The controller sweeps take lanes in register chunks of
    // kBatchLaneChunk=4. B=7 is one full chunk plus a 3-lane masked
    // tail; B=70 is seventeen full chunks plus a 2-lane tail, so lanes
    // at b0 > 0 and both tail widths are checked against Dnc.
    static_assert(kBatchLaneChunk == 4, "revisit the batch sizes below");
    DncConfig cfg = tinyConfig();
    cfg.memoryRows = 16;
    cfg.controllerSize = 12;
    for (Index batch : {Index(7), Index(70)})
        golden::runLockstep(cfg, batch, 2, 3, /*weightSeed=*/19,
                            /*inputSeed=*/23,
                            /*stateEvery=*/0); // outputs every step, state last
}

TEST(BatchedDnc, LargerShapesSpotCheck)
{
    DncConfig cfg;
    cfg.memoryRows = 128;
    cfg.memoryWidth = 32;
    cfg.readHeads = 4;
    cfg.controllerSize = 64;
    cfg.inputSize = 32;
    cfg.outputSize = 32;
    golden::runLockstep(cfg, 4, 4, 4, /*weightSeed=*/11, /*inputSeed=*/13,
                        /*stateEvery=*/0); // outputs every step, state last
}

// --------------------------------------------------------------------
// Behavioral checks that don't need the reference model.
// --------------------------------------------------------------------

TEST(BatchedDnc, ResetRestartsEveryLane)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 3;
    BatchedDnc engine(cfg, 17);
    Rng rng(23);

    // Record a trajectory from fresh state, reset, replay: identical.
    const std::vector<Vector> inputs =
        golden::randomBatchInputs(cfg, cfg.batchSize, rng);
    const std::vector<Vector> first = engine.step(inputs);
    engine.step(golden::randomBatchInputs(cfg, cfg.batchSize, rng));
    engine.reset();
    const std::vector<Vector> replay = engine.step(inputs);
    for (Index b = 0; b < cfg.batchSize; ++b)
        EXPECT_TRUE(first[b] == replay[b]) << "lane " << b;
}

TEST(BatchedDnc, AdmitResetClearsLinkageActivity)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    cfg.numThreads = 1;
    BatchedDnc engine(cfg, 17);
    Rng rng(5);

    // Fresh lanes start with no active linkage rows.
    EXPECT_EQ(engine.laneMemory(0).linkage().activeRowCount(), 0u);

    std::vector<Vector> outputs;
    for (int step = 0; step < 6; ++step)
        engine.stepInto(golden::randomBatchInputs(cfg, cfg.batchSize, rng),
                        outputs);
    // Full-DNC traffic (softmax content weighting) activates rows.
    EXPECT_GT(engine.laneMemory(0).linkage().activeRowCount(), 0u);

    // Release + re-admit: the in-place episode reset must leave the
    // lane indistinguishable from a fresh one — no active rows, no
    // cached mass, a bit-zero matrix.
    engine.release(0);
    const Index slot = engine.admit();
    ASSERT_EQ(slot, 0u);
    const TemporalLinkage &tl = engine.laneMemory(slot).linkage();
    EXPECT_EQ(tl.activeRowCount(), 0u);
    EXPECT_DOUBLE_EQ(tl.rowMass().sum(), 0.0);
    const Matrix zeros(cfg.memoryRows, cfg.memoryRows);
    EXPECT_TRUE(tl.linkage() == zeros);
}

TEST(BatchedDnc, LanesAreIndependent)
{
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 2;
    BatchedDnc engine(cfg, 29);
    Rng rng(37);

    // Distinct inputs must produce distinct per-lane trajectories (the
    // lanes share weights, not state).
    std::vector<Vector> outputs;
    for (int step = 0; step < 3; ++step)
        outputs =
            engine.step(golden::randomBatchInputs(cfg, cfg.batchSize, rng));
    EXPECT_FALSE(outputs[0] == outputs[1]);

    // Identical inputs on every lane must produce identical lanes.
    BatchedDnc uniform(cfg, 29);
    const Vector token = rng.normalVector(cfg.inputSize);
    std::vector<Vector> same(cfg.batchSize, token);
    for (int step = 0; step < 3; ++step)
        outputs = uniform.step(same);
    EXPECT_TRUE(outputs[0] == outputs[1]);
}

// --------------------------------------------------------------------
// BatchedController on its own: the column-range surface the shard
// engines drive. Seven slots (one full four-lane chunk plus a partial
// one) are stepped as ranges [0, 3) and [3, 7) — the second range
// starting inside the first chunk — with the ranges' controller steps
// and output heads interleaved as the pipelined engine interleaves
// them, after churn that leaves slots out of column order. Every slot
// must equal its own Controller(config, Rng(seed)) fed the same inputs
// and read vectors.
// --------------------------------------------------------------------

class BatchedControllerRanges : public ::testing::TestWithParam<int>
{};

TEST_P(BatchedControllerRanges, SlotsMatchDedicatedControllers)
{
    const Index threads = static_cast<Index>(GetParam());
    DncConfig cfg = tinyConfig();
    cfg.batchSize = 7;
    constexpr std::uint64_t kSeed = 31;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
    BatchedController controller(cfg, kSeed, pool.get());

    std::vector<std::unique_ptr<Controller>> refs;
    std::vector<std::vector<Vector>> refReads(cfg.batchSize);
    const auto freshRef = [&](Index slot) {
        Rng rng(kSeed);
        refs[slot] = std::make_unique<Controller>(cfg, rng);
        refReads[slot].assign(cfg.readHeads, Vector(cfg.memoryWidth));
    };
    refs.resize(cfg.batchSize);
    for (Index slot = 0; slot < cfg.batchSize; ++slot)
        freshRef(slot);

    // Churn: slots 1 and 2 leave, slot 4 drains, then both free slots
    // come back at the end of the prefix below still-Active 5 and 6.
    Rng rng(97);
    std::vector<Vector> inputs(cfg.batchSize);
    std::vector<Vector> outputs(cfg.batchSize);
    std::vector<std::vector<Vector>> reads(cfg.batchSize);
    const auto stepRange = [&](Index c0, Index k) {
        controller.stepControllers(inputs, c0, k);
        for (Index c = c0; c < c0 + k; ++c) {
            const Index slot = controller.slotAt(c);
            const InterfaceVector &want =
                refs[slot]->stepInto(inputs[slot], refReads[slot]);
            const InterfaceVector &got = controller.laneInterface(slot);
            ASSERT_TRUE(want.writeKey == got.writeKey) << "slot " << slot;
            ASSERT_TRUE(want.writeVector == got.writeVector)
                << "slot " << slot;
            ASSERT_TRUE(want.readKeys == got.readKeys) << "slot " << slot;
            ASSERT_EQ(want.writeGate, got.writeGate) << "slot " << slot;
            reads[slot].clear();
            for (Index h = 0; h < cfg.readHeads; ++h)
                reads[slot].push_back(rng.normalVector(cfg.memoryWidth));
            controller.storeReads(c, reads[slot]);
            refReads[slot] = reads[slot];
        }
    };
    const auto finishRange = [&](Index c0, Index k) {
        controller.outputInto(c0, k, outputs);
        for (Index c = c0; c < c0 + k; ++c) {
            const Index slot = controller.slotAt(c);
            Vector want;
            refs[slot]->outputInto(refReads[slot], want);
            ASSERT_TRUE(want == outputs[slot]) << "slot " << slot;
        }
    };

    bool outOfOrder = false;
    for (int step = 0; step < 12; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        if (step == 3) {
            controller.release(1);
            controller.markDraining(2);
            controller.release(2);
            controller.markDraining(4);
        }
        if (step == 5) {
            for (int i = 0; i < 2; ++i)
                freshRef(controller.admit());
            controller.release(4);
        }
        for (Index slot = 0; slot < cfg.batchSize; ++slot)
            inputs[slot] = rng.normalVector(cfg.inputSize);
        const Index active = controller.activeLanes();
        for (Index c = 1; c < active; ++c)
            outOfOrder |= controller.slotAt(c) < controller.slotAt(c - 1);
        const Index split = std::min<Index>(3, active);
        stepRange(0, split);
        if (active > split)
            stepRange(split, active - split);
        finishRange(0, split);
        if (active > split)
            finishRange(split, active - split);
    }
    EXPECT_TRUE(outOfOrder) << "churn never put slots out of column order";
    EXPECT_EQ(controller.activeLanes(), 6u);
    EXPECT_EQ(controller.freeLanes(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedControllerRanges,
                         ::testing::Values(1, 3), [](const auto &info) {
                             return "T" + std::to_string(info.param);
                         });

TEST(BatchedDnc, BatchSizeOneMatchesDncExactly)
{
    // The degenerate batch: a one-lane engine is a drop-in Dnc.
    golden::runLockstep(tinyConfig(), 1, 1, 10, /*weightSeed=*/41,
                        /*inputSeed=*/43);
}

} // namespace
} // namespace hima
