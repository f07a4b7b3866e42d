/**
 * @file
 * Tests for the distributed DNC-D model (Sec. 5.1): sharding, read-vector
 * merge, learned write-gating, and the accuracy relationship to the
 * monolithic DNC.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "dnc/dncd.h"
#include "golden_util.h"
#include "workload/retrieval.h"
#include "workload/task_suite.h"

namespace hima {
namespace {

DncConfig
testConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 64;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    return cfg;
}

TEST(DncD, ShardShapes)
{
    DncD model(testConfig(), 4);
    EXPECT_EQ(model.tiles(), 4u);
    EXPECT_EQ(model.shardConfig().memoryRows, 16u);
    EXPECT_EQ(model.shard(0).memory().rows(), 16u);
    EXPECT_EQ(model.globalConfig().memoryRows, 64u);
}

TEST(DncD, RejectsIndivisibleTiles)
{
    EXPECT_DEATH(DncD(testConfig(), 5), "divisible");
}

TEST(DncD, MergeWeightsAreDistribution)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    model.stepInterface(scripter.writeInterface(3, 7));
    model.stepInterface(scripter.queryInterface(3));

    ASSERT_EQ(model.lastAlphas().size(), cfg.readHeads);
    for (const auto &alphas : model.lastAlphas()) {
        Real sum = 0.0;
        for (Real a : alphas) {
            EXPECT_GE(a, 0.0);
            EXPECT_LE(a, 1.0);
            sum += a;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(DncD, UniformPolicyGivesEqualAlphas)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4, MergePolicy::Uniform);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    model.stepInterface(scripter.queryInterface(0));
    for (const auto &alphas : model.lastAlphas())
        for (Real a : alphas)
            EXPECT_NEAR(a, 0.25, 1e-12);
}

TEST(DncD, ConfidenceMergeFindsTheOwningTile)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    // Write token 5's pair into tile 1 only (learned sharding).
    std::vector<InterfaceVector> perTile(
        4, scripter.writeInterface(5, 9));
    for (Index t = 0; t < 4; ++t)
        if (t != 1)
            perTile[t].writeGate = 0.0;
    model.stepInterfaces(perTile);

    model.stepInterface(scripter.queryInterface(5));
    const auto &alphas = model.lastAlphas()[0];
    Index best = 0;
    for (Index t = 1; t < 4; ++t)
        if (alphas[t] > alphas[best])
            best = t;
    EXPECT_EQ(best, 1u);
}

TEST(DncD, RetrievalWorksThroughTheMerge)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(32, cfg.memoryWidth / 2, 1);
    TokenCodebook values(32, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    Episode ep;
    for (Index i = 0; i < 6; ++i) {
        ep.steps.push_back({StepKind::Write, i, i + 10});
        ++ep.writes;
    }
    for (Index i = 0; i < 6; ++i) {
        ep.steps.push_back({StepKind::Query, i, i + 10});
        ++ep.scoredQueries;
    }
    const EpisodeResult res = runEpisodeDistributed(model, scripter, ep);
    EXPECT_EQ(res.scored, 6u);
    EXPECT_GE(res.correct, 5u) << "DNC-D content retrieval mostly works";
}

TEST(DncD, ErrorNotBetterThanMonolithicDnc)
{
    // Fig. 10's premise: DNC-D trades accuracy for locality. Across the
    // task suite the distributed model must not beat monolithic DNC.
    DncConfig cfg = testConfig();
    cfg.memoryRows = 128;
    Dnc mono(cfg, 3);
    DncD dist(cfg, 8);

    TokenCodebook keys(128, cfg.memoryWidth / 2, 1);
    TokenCodebook values(128, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    Rng rng(11);
    Real monoErr = 0.0, distErr = 0.0;
    const auto suite = taskSuite();
    for (Index t = 0; t < 6; ++t) { // first six tasks keep the test fast
        const Episode ep = makeEpisode(suite[t], 128, rng);
        monoErr += runEpisode(mono, scripter, ep).errorRate();
        distErr += runEpisodeDistributed(dist, scripter, ep).errorRate();
    }
    EXPECT_LE(monoErr, distErr + 1e-9);
}

TEST(DncD, AggregateProfileSumsShards)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    model.stepInterface(scripter.writeInterface(1, 2));

    const KernelProfiler total = model.aggregateProfile();
    // Every shard ran the linkage kernel once.
    EXPECT_EQ(total.at(Kernel::Linkage).invocations, 4u);
    // Aggregate linkage work equals 4 shards of (N/Nt)^2 cells * 4 ops.
    EXPECT_EQ(total.at(Kernel::Linkage).elementOps, 4ull * 4 * 16 * 16);
}

TEST(DncD, ResetClearsAllShards)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    model.stepInterface(scripter.writeInterface(0, 1));
    model.reset();
    for (Index t = 0; t < 4; ++t)
        EXPECT_DOUBLE_EQ(model.shard(t).usage().sum(), 0.0);
}

/**
 * Test-side full scan of tileConfidenceScore: every row scored, no row
 * skipped, sums ascending as in dotRow and the memory write's norms.
 */
Real
fullScanConfidence(const Matrix &mem, const Vector &key, Real strength)
{
    Real keyAcc = 0.0;
    for (Index c = 0; c < key.size(); ++c)
        keyAcc += key[c] * key[c];
    const Real keyNorm = std::sqrt(keyAcc);
    Real best = -1.0;
    for (Index i = 0; i < mem.rows(); ++i) {
        Real dot = 0.0;
        Real sq = 0.0;
        for (Index c = 0; c < mem.cols(); ++c) {
            dot += mem(i, c) * key[c];
            sq += mem(i, c) * mem(i, c);
        }
        best = std::max(best, dot / (std::sqrt(sq) * keyNorm + 1e-6));
    }
    return strength * best;
}

/**
 * The scorer folds never-written (zero-norm) rows in as a literal 0.0
 * without their dot; that must equal the full scan bit for bit,
 * including when a zero row holds the maximum.
 */
TEST(DncD, ConfidenceZeroNormSkipMatchesFullScan)
{
    DncConfig cfg = testConfig();
    cfg.memoryRows = 16;
    MemoryUnit tile(cfg);
    Rng rng(5);
    MemoryReadout out;
    // One allocation-gated write: exactly one row holds content.
    InterfaceVector iface = golden::randomIface(cfg, rng);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    tile.stepInto(iface, out);

    Index written = 0;
    while (written < cfg.memoryRows && tile.rowNorms()[written] == 0.0)
        ++written;
    ASSERT_LT(written, cfg.memoryRows);
    Vector away(cfg.memoryWidth);
    for (Index c = 0; c < cfg.memoryWidth; ++c)
        away[c] = -tile.memory()(written, c);
    // Every written row points away from the key: a zero row's +0.0 is
    // the maximum.
    const Real awayScore = tileConfidenceScore(tile, away, 3.0);
    EXPECT_EQ(awayScore, fullScanConfidence(tile.memory(), away, 3.0));
    EXPECT_EQ(awayScore, 0.0);

    for (int step = 0; step < 4; ++step) {
        iface = golden::randomIface(cfg, rng);
        iface.allocationGate = 1.0;
        iface.writeGate = 1.0;
        tile.stepInto(iface, out);
    }
    Index zeroRows = 0;
    for (Index i = 0; i < cfg.memoryRows; ++i)
        zeroRows += tile.rowNorms()[i] == 0.0 ? 1 : 0;
    ASSERT_GT(zeroRows, 0u);
    ASSERT_LT(zeroRows, cfg.memoryRows);
    for (int k = 0; k < 8; ++k) {
        const Vector key = rng.normalVector(cfg.memoryWidth);
        const Real strength = 1.0 + rng.uniform(0.0, 8.0);
        EXPECT_EQ(tileConfidenceScore(tile, key, strength),
                  fullScanConfidence(tile.memory(), key, strength))
            << "key " << k;
    }
}

} // namespace
} // namespace hima
