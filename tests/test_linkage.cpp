/**
 * @file
 * Tests for the temporal linkage state (HR.(1)-(3)): linkage matrix,
 * precedence, forward/backward weightings, and their invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/random.h"
#include "dense_oracle.h"
#include "dnc/temporal_linkage.h"

namespace hima {
namespace {

/** A one-hot write weighting. */
Vector
oneHot(Index n, Index where)
{
    Vector v(n);
    v[where] = 1.0;
    return v;
}

TEST(Precedence, TracksLastWrite)
{
    TemporalLinkage tl(8);
    tl.updatePrecedence(oneHot(8, 3));
    EXPECT_DOUBLE_EQ(tl.precedence()[3], 1.0);

    tl.updatePrecedence(oneHot(8, 5));
    EXPECT_DOUBLE_EQ(tl.precedence()[5], 1.0);
    EXPECT_DOUBLE_EQ(tl.precedence()[3], 0.0); // fully overwritten
}

TEST(Precedence, PartialWriteBlends)
{
    TemporalLinkage tl(4);
    Vector w(4);
    w[0] = 0.5;
    tl.updatePrecedence(w);
    EXPECT_DOUBLE_EQ(tl.precedence()[0], 0.5);
    tl.updatePrecedence(w);
    // p = (1 - 0.5) * 0.5 + 0.5 = 0.75.
    EXPECT_DOUBLE_EQ(tl.precedence()[0], 0.75);
}

TEST(Linkage, HardWritesChainInOrder)
{
    TemporalLinkage tl(8);
    // Write slots 2 -> 5 -> 1 in sequence.
    for (Index slot : {2, 5, 1}) {
        tl.updateLinkage(oneHot(8, slot));
        tl.updatePrecedence(oneHot(8, slot));
    }
    // L[to][from]: 5 follows 2, 1 follows 5.
    EXPECT_NEAR(tl.linkage()(5, 2), 1.0, 1e-12);
    EXPECT_NEAR(tl.linkage()(1, 5), 1.0, 1e-12);
    EXPECT_NEAR(tl.linkage()(2, 5), 0.0, 1e-12);
}

TEST(Linkage, DiagonalAlwaysZero)
{
    TemporalLinkage tl(16);
    Rng rng(5);
    for (int step = 0; step < 20; ++step) {
        Vector w = rng.uniformVector(16);
        w = scale(w, 1.0 / w.sum());
        tl.updateLinkage(w);
        tl.updatePrecedence(w);
    }
    for (Index i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(tl.linkage()(i, i), 0.0);
}

TEST(ForwardBackward, FollowTheChain)
{
    TemporalLinkage tl(8);
    for (Index slot : {2, 5, 1}) {
        tl.updateLinkage(oneHot(8, slot));
        tl.updatePrecedence(oneHot(8, slot));
    }
    // Reading slot 2, the forward weighting points to 5.
    const Vector f = tl.forwardWeighting(oneHot(8, 2));
    EXPECT_EQ(f.argmax(), 5u);
    // Reading slot 5, the backward weighting points to 2.
    const Vector b = tl.backwardWeighting(oneHot(8, 5));
    EXPECT_EQ(b.argmax(), 2u);
}

/**
 * Invariant from the DNC paper: rows and columns of L remain
 * sub-stochastic (sums <= 1) for simplex write weightings.
 */
class LinkageInvariant : public ::testing::TestWithParam<int>
{};

TEST_P(LinkageInvariant, RowAndColumnSumsBounded)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
    TemporalLinkage tl(24);
    for (int step = 0; step < 40; ++step) {
        Vector w = rng.uniformVector(24);
        w = scale(w, rng.uniform() / w.sum()); // sum in [0, 1)
        tl.updateLinkage(w);
        tl.updatePrecedence(w);

        const Matrix &link = tl.linkage();
        for (Index i = 0; i < 24; ++i) {
            Real rowSum = 0.0, colSum = 0.0;
            for (Index j = 0; j < 24; ++j) {
                EXPECT_GE(link(i, j), -1e-9);
                rowSum += link(i, j);
                colSum += link(j, i);
            }
            EXPECT_LE(rowSum, 1.0 + 1e-9);
            EXPECT_LE(colSum, 1.0 + 1e-9);
        }
        // Precedence stays a sub-distribution too.
        Real pSum = tl.precedence().sum();
        EXPECT_GE(pSum, -1e-9);
        EXPECT_LE(pSum, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkageInvariant, ::testing::Range(0, 6));

TEST(ForwardBackward, PreservesSubDistribution)
{
    Rng rng(11);
    TemporalLinkage tl(16);
    for (int step = 0; step < 10; ++step) {
        Vector w = rng.uniformVector(16);
        w = scale(w, 1.0 / w.sum());
        tl.updateLinkage(w);
        tl.updatePrecedence(w);
    }
    Vector r = rng.uniformVector(16);
    r = scale(r, 1.0 / r.sum());
    EXPECT_LE(tl.forwardWeighting(r).sum(), 1.0 + 1e-9);
    EXPECT_LE(tl.backwardWeighting(r).sum(), 1.0 + 1e-9);
}

TEST(Linkage, ResetClearsState)
{
    TemporalLinkage tl(8);
    tl.updateLinkage(oneHot(8, 1));
    tl.updatePrecedence(oneHot(8, 1));
    tl.reset();
    EXPECT_DOUBLE_EQ(tl.precedence().sum(), 0.0);
    for (Index i = 0; i < 8; ++i)
        for (Index j = 0; j < 8; ++j)
            EXPECT_DOUBLE_EQ(tl.linkage()(i, j), 0.0);
}

TEST(Linkage, ProfilerChargesQuadraticWork)
{
    KernelProfiler prof;
    TemporalLinkage tl(32);
    tl.updateLinkage(oneHot(32, 0), &prof);
    tl.forwardWeighting(oneHot(32, 0), &prof);
    EXPECT_EQ(prof.at(Kernel::Linkage).elementOps, 4u * 32 * 32);
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).macOps, 32u * 32);
    EXPECT_GT(prof.at(Kernel::Linkage).stateMemAccesses, 2u * 32 * 32);
}

/**
 * Ground-truth row activity, computed by scanning a (dense-swept)
 * reference matrix rather than trusting the sparse instance's own
 * cache: a row is swept when its absolute mass, or its current write
 * weight, exceeds the threshold.
 */
Index
referenceActiveRows(const Matrix &link, const Vector &w, Real threshold)
{
    const Index n = w.size();
    Index active = 0;
    for (Index i = 0; i < n; ++i) {
        Real mass = 0.0;
        for (Index j = 0; j < n; ++j)
            mass += std::fabs(link(i, j));
        if (mass > threshold || w[i] > threshold)
            ++active;
    }
    return active;
}

/**
 * Row mass recomputed from the matrix in the canonical order the class
 * documents for rowMass(): lane j & 7 sums |L[i][j]| in ascending j,
 * and the lanes combine as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)).
 */
Real
canonicalRowMass(const Matrix &link, Index i)
{
    Real a[8] = {};
    for (Index j = 0; j < link.cols(); ++j)
        a[j & 7] += std::fabs(link(i, j));
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

/**
 * A sparse write pattern: most steps write 1-3 slots drawn from a pool
 * that grows over time, and some steps write nothing (closed write
 * gate), so a prefix of the slots accumulates linkage mass while the
 * rest stays exactly zero.
 */
Vector
sparseWritePattern(Rng &rng, Index n, int step)
{
    Vector w(n);
    if (step % 5 == 4)
        return w; // closed write gate: no slot written
    const Index pool = std::min<Index>(n, 4 + static_cast<Index>(step));
    const Index k = 1 + rng.uniformInt(3);
    for (Index x = 0; x < k; ++x)
        w[rng.uniformInt(pool)] = rng.uniform(0.05, 0.3);
    return w;
}

/**
 * Property test for the active-row sweep: under random sparse write
 * patterns, the fused updateAndRead() and the standalone forward/
 * backward kernels are bit-identical to the dense
 * oracle's equations, and the profiler's skipped-row counts match the
 * activity predicted from the oracle's matrix at every step.
 */
class SparseLinkage : public ::testing::TestWithParam<int>
{};

TEST_P(SparseLinkage, BitIdenticalToDenseWithPredictedSkips)
{
    const Index n = 48;
    const Index heads = static_cast<Index>(GetParam());
    Rng rng(0xbeef + heads);

    TemporalLinkage sparse(n); // exact-zero skipping enabled
    Matrix denseLink(n, n);    // the oracle's linkage and precedence
    Vector densePrec(n);
    KernelProfiler profSparse;

    std::vector<Vector> prevReads(heads), fS, bS;
    std::uint64_t totalSkipped = 0;
    for (int step = 0; step < 60; ++step) {
        const Vector w = sparseWritePattern(rng, n, step);
        for (auto &pr : prevReads) {
            pr = rng.uniformVector(n);
            pr = scale(pr, 1.0 / pr.sum());
        }

        // Predict this step's activity from the dense matrix *before*
        // the update (the sweep decides from pre-update mass).
        const Index active = referenceActiveRows(denseLink, w, 0.0);
        const std::uint64_t linkBefore =
            profSparse.at(Kernel::Linkage).skippedRows;
        const std::uint64_t fbBefore =
            profSparse.at(Kernel::ForwardBackward).skippedRows;

        sparse.updateAndRead(w, prevReads, fS, bS, &profSparse);
        oracle::updateLinkage(denseLink, w, densePrec);

        const std::uint64_t skipped = static_cast<std::uint64_t>(n - active);
        EXPECT_EQ(profSparse.at(Kernel::Linkage).skippedRows - linkBefore,
                  skipped);
        EXPECT_EQ(
            profSparse.at(Kernel::ForwardBackward).skippedRows - fbBefore,
            2 * static_cast<std::uint64_t>(heads) * skipped);
        totalSkipped += skipped;

        // Bit-identical state and readouts (operator== is exact).
        ASSERT_TRUE(sparse.linkage() == denseLink) << "step " << step;
        for (Index h = 0; h < heads; ++h) {
            EXPECT_TRUE(fS[h] == oracle::matVec(denseLink, prevReads[h]))
                << "forward head " << h;
            EXPECT_TRUE(bS[h] == oracle::matTVec(denseLink, prevReads[h]))
                << "backward head " << h;
        }

        // The standalone kernels skip by cached mass alone; they must
        // agree with the dense reference bit-for-bit too.
        Vector probe = rng.uniformVector(n);
        probe = scale(probe, 1.0 / probe.sum());
        Vector f, b;
        sparse.forwardWeightingInto(probe, f);
        sparse.backwardWeightingInto(probe, b);
        EXPECT_TRUE(f == oracle::matVec(denseLink, probe));
        EXPECT_TRUE(b == oracle::matTVec(denseLink, probe));

        // The cache itself matches a fresh recompute of the matrix in
        // the canonical lane order, bit for bit.
        for (Index i = 0; i < n; ++i)
            EXPECT_EQ(sparse.rowMass()[i], canonicalRowMass(sparse.linkage(), i))
                << "row " << i;

        sparse.updatePrecedence(w, &profSparse);
        oracle::updatePrecedence(densePrec, w);
        EXPECT_TRUE(sparse.precedence() == densePrec);
    }
    // The pattern must actually exercise skipping, or this test proves
    // nothing about the sparse path.
    EXPECT_GT(totalSkipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Heads, SparseLinkage, ::testing::Values(1, 2, 4));

TEST(SparseLinkage, SelfLinkOnlyRowStaysInactive)
{
    // Writing only slot 3, every step: the lone precedence support is
    // slot 3 itself, the diagonal zeroing kills the only product, and
    // row 3 stays exactly zero — written, swept, but never gaining
    // mass. The standalone read kernels may then skip all 8 rows.
    const Index n = 8;
    TemporalLinkage tl(n);
    Vector w(n);
    w[3] = 0.5;
    KernelProfiler prof;
    for (int step = 0; step < 4; ++step) {
        const std::uint64_t before = prof.at(Kernel::Linkage).skippedRows;
        tl.updateLinkage(w, &prof);
        tl.updatePrecedence(w, &prof);
        // Only row 3 is active (write weight), the other 7 skip.
        EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows - before, 7u);
    }
    for (Index i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(tl.rowMass()[i], 0.0);
        for (Index j = 0; j < n; ++j)
            EXPECT_DOUBLE_EQ(tl.linkage()(i, j), 0.0);
    }
    EXPECT_EQ(tl.activeRowCount(), 0u);
    Vector f;
    tl.forwardWeightingInto(oneHot(n, 3), f, &prof);
    EXPECT_EQ(prof.at(Kernel::ForwardBackward).skippedRows, 8u);
    EXPECT_DOUBLE_EQ(f.sum(), 0.0);
}

TEST(SparseLinkage, ResetClearsRowMass)
{
    TemporalLinkage tl(8);
    for (Index slot : {2, 5, 1}) {
        tl.updateLinkage(oneHot(8, slot));
        tl.updatePrecedence(oneHot(8, slot));
    }
    EXPECT_GT(tl.activeRowCount(), 0u);
    tl.reset();
    EXPECT_EQ(tl.activeRowCount(), 0u);
    for (Index i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(tl.rowMass()[i], 0.0);
    // Post-reset, a zero write weighting sweeps nothing.
    KernelProfiler prof;
    tl.updateLinkage(Vector(8), &prof);
    EXPECT_EQ(prof.at(Kernel::Linkage).skippedRows, 8u);
}

/**
 * A dense, softmax-like write pattern: every slot receives a share of a
 * gated write each step (all shares far above 1e-6), so every column is
 * touched from the first step on and the sweeps take the full-column
 * path.
 */
Vector
denseWritePattern(Rng &rng, Index n)
{
    Vector w(n);
    Real total = 0.0;
    for (Index j = 0; j < n; ++j) {
        w[j] = std::exp(rng.uniform(-3.0, 3.0));
        total += w[j];
    }
    return scale(w, rng.uniform(0.5, 0.95) / total);
}

/**
 * restoreState() must rebuild the row-mass cache and derive the touched
 * set from the restored matrix and precedence so that a restored
 * instance makes bit-identical skip decisions to the undisturbed one.
 * `writes(rng, step)` draws the write weighting of a step.
 */
template <typename WritePattern>
void
expectRestoreBitIdentical(Index n, Index heads, WritePattern writes)
{
    Rng rng(77);
    TemporalLinkage undisturbed(n);
    TemporalLinkage victim(n);

    std::vector<Vector> prevReads(heads), fU, bU, fV, bV;
    auto stepBoth = [&](int step) {
        const Vector w = writes(rng, step);
        for (auto &pr : prevReads) {
            pr = rng.uniformVector(n);
            pr = scale(pr, 1.0 / pr.sum());
        }
        undisturbed.updateAndRead(w, prevReads, fU, bU, nullptr);
        victim.updateAndRead(w, prevReads, fV, bV, nullptr);
        undisturbed.updatePrecedence(w);
        victim.updatePrecedence(w);
    };
    for (int step = 0; step < 20; ++step)
        stepBoth(step);

    // Snapshot mid-run, then wreck the victim with unrelated
    // traffic so the restore has real work to undo.
    Vector flat(n * n), prec(n);
    std::copy(undisturbed.linkage().data(),
              undisturbed.linkage().data() + n * n, flat.begin());
    std::copy(undisturbed.precedence().begin(),
              undisturbed.precedence().end(), prec.begin());
    Rng wrecker(123);
    for (int step = 0; step < 5; ++step) {
        Vector w = wrecker.uniformVector(n);
        w = scale(w, 0.9 / w.sum());
        victim.updateLinkage(w);
        victim.updatePrecedence(w);
    }

    victim.restoreState(flat, prec);
    ASSERT_TRUE(victim.linkage() == undisturbed.linkage());
    ASSERT_TRUE(victim.precedence() == undisturbed.precedence());
    // The rebuilt cache is bit-identical to the incrementally
    // maintained one (same values, same summation order).
    ASSERT_TRUE(victim.rowMass() == undisturbed.rowMass());

    // And the continuation diverges nowhere: same sweeps, same
    // skips, same bits.
    for (int step = 20; step < 40; ++step) {
        stepBoth(step);
        ASSERT_TRUE(victim.linkage() == undisturbed.linkage())
            << "step " << step;
        ASSERT_TRUE(victim.rowMass() == undisturbed.rowMass())
            << "step " << step;
        for (Index h = 0; h < heads; ++h) {
            EXPECT_TRUE(fV[h] == fU[h]);
            EXPECT_TRUE(bV[h] == bU[h]);
        }
    }
}

/** Restore under sparse traffic: the sweeps refresh over touched columns. */
TEST(SparseLinkage, RestoreRebuildsActivityBitIdentical)
{
    expectRestoreBitIdentical(32, 2, [](Rng &rng, int step) {
        return sparseWritePattern(rng, 32, step);
    });
}

/**
 * A slot written once has nonzero precedence but an all-zero linkage
 * column until the next write, which must then fill L[next][slot]. The
 * restored touched set therefore has to include the slots of nonzero
 * precedence, not only the columns holding linkage mass: snapshot right
 * after single one-hot writes and check that the next update lands.
 */
TEST(SparseLinkage, RestoreTouchesSlotsOfNonzeroPrecedence)
{
    const Index n = 8;
    TemporalLinkage undisturbed(n);
    undisturbed.updateLinkage(oneHot(n, 3));
    undisturbed.updatePrecedence(oneHot(n, 3));
    ASSERT_EQ(undisturbed.linkage().data()[5 * n + 3], 0.0);

    Vector flat(n * n), prec(n);
    std::copy(undisturbed.linkage().data(),
              undisturbed.linkage().data() + n * n, flat.begin());
    std::copy(undisturbed.precedence().begin(),
              undisturbed.precedence().end(), prec.begin());
    TemporalLinkage restored(n);
    restored.restoreState(flat, prec);
    EXPECT_EQ(restored.touchedSlots(), undisturbed.touchedSlots());

    for (TemporalLinkage *tl : {&undisturbed, &restored}) {
        tl->updateLinkage(oneHot(n, 5));
        tl->updatePrecedence(oneHot(n, 5));
    }
    EXPECT_EQ(restored.linkage().data()[5 * n + 3], 1.0);
    EXPECT_TRUE(restored.linkage() == undisturbed.linkage());
    EXPECT_TRUE(restored.rowMass() == undisturbed.rowMass());
}

/**
 * Restore under dense traffic: every column is touched, so the sweeps
 * refresh row masses on the full-column path while the rebuild sums all
 * N columns — the two must share one summation order. N = 37 is not a
 * multiple of the 4-row block or the 8 mass lanes.
 */
TEST(SparseLinkage, RestoreRebuildsActivityBitIdenticalOnDenseTraffic)
{
    expectRestoreBitIdentical(37, 4, [](Rng &rng, int) {
        return denseWritePattern(rng, 37);
    });
}

/**
 * The fused sweep against the standalone kernels on dense traffic: L,
 * every head's forward/backward weightings and the row-mass cache agree
 * bit for bit. The sizes cover full 4-row blocks, a short tail block and
 * the last block's prefetch bound; 3 heads take the runtime-R fallback.
 */
class FusedVsStandalone
    : public ::testing::TestWithParam<std::tuple<Index, Index>>
{};

TEST_P(FusedVsStandalone, BitIdenticalOnDenseTraffic)
{
    const auto [n, heads] = GetParam();
    Rng rng(0x5eed + n * 8 + heads);
    TemporalLinkage fused(n);
    TemporalLinkage twin(n);

    std::vector<Vector> prevReads(heads), fF, bF;
    Vector f, b;
    for (int step = 0; step < 24; ++step) {
        const Vector w = denseWritePattern(rng, n);
        for (auto &pr : prevReads) {
            pr = rng.uniformVector(n);
            pr = scale(pr, 1.0 / pr.sum());
        }
        fused.updateAndRead(w, prevReads, fF, bF, nullptr);
        twin.updateLinkage(w);
        ASSERT_TRUE(fused.linkage() == twin.linkage()) << "step " << step;
        ASSERT_TRUE(fused.rowMass() == twin.rowMass()) << "step " << step;
        for (Index h = 0; h < heads; ++h) {
            twin.forwardWeightingInto(prevReads[h], f);
            twin.backwardWeightingInto(prevReads[h], b);
            EXPECT_TRUE(fF[h] == f) << "forward head " << h << " step " << step;
            EXPECT_TRUE(bF[h] == b) << "backward head " << h << " step " << step;
        }
        fused.updatePrecedence(w);
        twin.updatePrecedence(w);
    }
    EXPECT_EQ(fused.touchedSlots().size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndHeads, FusedVsStandalone,
    ::testing::Combine(::testing::Values<Index>(5, 37, 130),
                       ::testing::Values<Index>(1, 3, 4)));

} // namespace
} // namespace hima
