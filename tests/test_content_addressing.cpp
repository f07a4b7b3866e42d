/**
 * @file
 * Tests for content-based addressing (CW/CR kernels).
 */

#include <cmath>
#include <gtest/gtest.h>

#include "common/random.h"
#include "dnc/content_addressing.h"
#include "dnc/kernel_profiler.h"

namespace hima {
namespace {

TEST(ContentAddressing, WeightingIsDistribution)
{
    Rng rng(1);
    ContentAddressing ca;
    const Matrix mem = rng.normalMatrix(16, 8);
    const Vector key = rng.normalVector(8);
    const Vector w = ca.weighting(mem, key, 2.0);
    ASSERT_EQ(w.size(), 16u);
    Real sum = 0.0;
    for (Index i = 0; i < w.size(); ++i) {
        EXPECT_GT(w[i], 0.0);
        sum += w[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ContentAddressing, ExactMatchWins)
{
    Rng rng(2);
    Matrix mem = rng.normalMatrix(32, 8);
    const Vector key = mem.row(13);
    ContentAddressing ca;
    const Vector w = ca.weighting(mem, key, 10.0);
    EXPECT_EQ(w.argmax(), 13u);
    EXPECT_GT(w[13], 0.5);
}

TEST(ContentAddressing, StrengthSharpens)
{
    Rng rng(3);
    Matrix mem = rng.normalMatrix(32, 8);
    const Vector key = mem.row(5);
    ContentAddressing ca;
    const Vector soft = ca.weighting(mem, key, 1.0);
    const Vector sharp = ca.weighting(mem, key, 20.0);
    EXPECT_GT(sharp[5], soft[5]);
}

TEST(ContentAddressing, ScaleInvarianceOfCosine)
{
    // Cosine similarity ignores row magnitude: scaling a row must not
    // change the weighting materially.
    Rng rng(4);
    Matrix mem = rng.normalMatrix(8, 8);
    const Vector key = rng.normalVector(8);
    ContentAddressing ca;
    const Vector before = ca.weighting(mem, key, 3.0);
    mem.setRow(2, scale(mem.row(2), 7.0));
    const Vector after = ca.weighting(mem, key, 3.0);
    for (Index i = 0; i < 8; ++i)
        EXPECT_NEAR(before[i], after[i], 1e-4);
}

TEST(ContentAddressing, ZeroMemoryDoesNotCrash)
{
    const Matrix mem(8, 4); // all zeros: epsilon guard path
    ContentAddressing ca;
    const Vector w = ca.weighting(mem, Vector(4, 1.0), 1.0);
    EXPECT_NEAR(w.sum(), 1.0, 1e-9);
    // Uniform: no row is preferable.
    for (Index i = 0; i < 8; ++i)
        EXPECT_NEAR(w[i], 1.0 / 8.0, 1e-9);
}

TEST(ContentAddressing, ProfilerChargesKernels)
{
    Rng rng(5);
    const Matrix mem = rng.normalMatrix(16, 8);
    const Vector key = rng.normalVector(8);
    ContentAddressing ca;
    KernelProfiler prof;
    ca.weighting(mem, key, 2.0, &prof);

    const auto &norm = prof.at(Kernel::Normalize);
    EXPECT_EQ(norm.invocations, 1u);
    EXPECT_EQ(norm.macOps, 16u * 8 + 8);
    EXPECT_EQ(norm.extMemAccesses, 16u * 8);

    const auto &sim = prof.at(Kernel::Similarity);
    EXPECT_EQ(sim.macOps, 16u * 8);
    EXPECT_GT(sim.specialOps, 0u);
}

/**
 * The R-key lookup is R one-key lookups fused: every head's weighting,
 * its kept raw dots and key norm, and the profiler charges must equal
 * those of a separate weightingInto() per key, at every compile-time
 * head count, counts split into several groups (3, 5, 11), a column
 * tail and zero-norm rows.
 */
TEST(ContentAddressing, MultiKeyLookupEqualsOneLookupPerKey)
{
    Rng rng(9);
    for (bool approximate : {false, true}) {
        const ContentAddressing ca(approximate);
        for (Index heads : {1u, 2u, 3u, 4u, 5u, 8u, 11u}) {
            for (Index w : {16u, 20u}) {
                const Index n = 23;
                Matrix mem = rng.normalMatrix(n, w);
                for (Index i = 0; i < n; i += 7)
                    for (Index c = 0; c < w; ++c)
                        mem(i, c) = 0.0;
                Vector norms(n);
                for (Index i = 0; i < n; ++i)
                    norms[i] = rowNorm(mem, i);
                std::vector<Vector> keys;
                std::vector<Real> strengths;
                for (Index h = 0; h < heads; ++h) {
                    keys.push_back(rng.normalVector(w));
                    strengths.push_back(1.0 + rng.uniform(0.0, 9.0));
                }
                Workspace ws(n, w, heads);
                std::vector<Vector> fused(heads);
                KernelProfiler fusedProf;
                ca.weightingsInto(mem, keys.data(), strengths.data(), heads,
                                  norms, ws, fused.data(), &fusedProf);

                KernelProfiler oneProf;
                for (Index h = 0; h < heads; ++h) {
                    SCOPED_TRACE(::testing::Message()
                                 << "approx " << approximate << " R "
                                 << heads << " W " << w << " head " << h);
                    Vector scores, one;
                    ca.weightingInto(mem, keys[h], strengths[h], &norms,
                                     scores, one, &oneProf);
                    EXPECT_TRUE(fused[h] == one);
                    EXPECT_EQ(ws.keyNorms[h], keys[h].norm());
                    for (Index i = 0; i < n; ++i) {
                        const Real dot =
                            norms[i] > 0.0 ? dotRow(mem, i, keys[h]) : 0.0;
                        EXPECT_EQ(ws.dots[i * heads + h], dot) << "row " << i;
                    }
                }
                for (Kernel k : {Kernel::Normalize, Kernel::Similarity}) {
                    const KernelCounters &a = fusedProf.at(k);
                    const KernelCounters &b = oneProf.at(k);
                    EXPECT_EQ(a.invocations, b.invocations);
                    EXPECT_EQ(a.macOps, b.macOps);
                    EXPECT_EQ(a.elementOps, b.elementOps);
                    EXPECT_EQ(a.specialOps, b.specialOps);
                    EXPECT_EQ(a.extMemAccesses, b.extMemAccesses);
                    EXPECT_EQ(a.stateMemAccesses, b.stateMemAccesses);
                    EXPECT_EQ(a.skippedRows, b.skippedRows);
                    EXPECT_EQ(a.skippedOps, b.skippedOps);
                }
            }
        }
    }
}

TEST(ContentAddressing, ApproximateMatchesExactClosely)
{
    Rng rng(6);
    const Matrix mem = rng.normalMatrix(64, 16);
    const Vector key = rng.normalVector(16);
    ContentAddressing exact(false);
    ContentAddressing approx(true, 32);
    const Vector we = exact.weighting(mem, key, 5.0);
    const Vector wa = approx.weighting(mem, key, 5.0);
    EXPECT_EQ(we.argmax(), wa.argmax());
    Real l1 = 0.0;
    for (Index i = 0; i < we.size(); ++i)
        l1 += std::fabs(we[i] - wa[i]);
    EXPECT_LT(l1, 0.05);
}

/** Property: weighting is invariant to key scaling (cosine). */
class KeyScale : public ::testing::TestWithParam<double>
{};

TEST_P(KeyScale, WeightingInvariant)
{
    Rng rng(7);
    const Matrix mem = rng.normalMatrix(16, 8);
    const Vector key = rng.normalVector(8);
    ContentAddressing ca;
    const Vector base = ca.weighting(mem, key, 4.0);
    const Vector scaled = ca.weighting(mem, scale(key, GetParam()), 4.0);
    for (Index i = 0; i < base.size(); ++i)
        EXPECT_NEAR(base[i], scaled[i], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Scales, KeyScale,
                         ::testing::Values(0.5, 2.0, 10.0, 100.0));

} // namespace
} // namespace hima
