/**
 * @file
 * Tests for the allocation-free hot path: every destination-passing
 * kernel must match its value-returning counterpart bit-for-bit, the
 * memory unit's row-norm cache must stay equal to freshly computed
 * norms under randomized write sequences, a steady-state
 * MemoryUnit::stepInto() must perform zero heap allocations (checked
 * via a global operator-new hook), and the threaded DNC-D tile path
 * must be bit-identical to the sequential one.
 */

#include <atomic>
#include <cstdlib>
#include <cstdint>
#include <new>

#include <gtest/gtest.h>

#include "approx/fixed_point.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "dnc/dncd.h"
#include "dnc/memory_unit.h"
#include "golden_util.h"
#include "serve/router.h"

// --------------------------------------------------------------------
// Global operator-new hook: counts every heap allocation in the test
// binary. The zero-allocation assertions read the counter delta around
// a steady-state step. All four allocating forms are hooked — scalar,
// array, and their over-aligned C++17 variants — so an allocation
// cannot dodge the counter by coming in through `new[]` or through a
// type with extended alignment; the array forms additionally bump their
// own counter so the hook itself is testable.
// --------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocationCount{0};
std::atomic<std::uint64_t> g_arrayAllocationCount{0};
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
    g_arrayAllocationCount.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(size); // bumps the total counter
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
    g_arrayAllocationCount.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(size, align); // bumps the total counter
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

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hima {
namespace {

// --------------------------------------------------------------------
// Destination-passing kernels match the value-returning API.
// --------------------------------------------------------------------

class InplaceKernels : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng_{static_cast<std::uint64_t>(GetParam()) * 7919 + 1};
};

TEST_P(InplaceKernels, VectorKernelsMatch)
{
    const Index n = 1 + rng_.uniformInt(48);
    const Vector a = rng_.normalVector(n);
    const Vector b = rng_.normalVector(n);
    const Real s = rng_.uniform(-3.0, 3.0);

    Vector out;
    addInto(a, b, out);
    EXPECT_EQ(out, add(a, b));
    subInto(a, b, out);
    EXPECT_EQ(out, sub(a, b));
    mulInto(a, b, out);
    EXPECT_EQ(out, mul(a, b));

    out = a;
    scaleInPlace(out, s);
    EXPECT_EQ(out, scale(a, s));

    out = a;
    addInPlace(out, b);
    EXPECT_EQ(out, add(a, b));

    out = b;
    axpy(s, a, out);
    EXPECT_EQ(out, add(b, scale(a, s)));

    softmaxInto(a, out);
    EXPECT_EQ(out, softmax(a));
}

TEST_P(InplaceKernels, ElementwiseAliasingIsAllowed)
{
    const Index n = 1 + rng_.uniformInt(32);
    const Vector a = rng_.normalVector(n);
    const Vector b = rng_.normalVector(n);

    Vector alias = a;
    addInto(alias, b, alias);
    EXPECT_EQ(alias, add(a, b));

    alias = a;
    softmaxInto(alias, alias);
    EXPECT_EQ(alias, softmax(a));
}

TEST_P(InplaceKernels, MatrixKernelsMatch)
{
    const Index rows = 1 + rng_.uniformInt(16);
    const Index cols = 1 + rng_.uniformInt(16);
    const Matrix m = rng_.normalMatrix(rows, cols);
    const Vector x = rng_.normalVector(cols);
    const Vector xr = rng_.normalVector(rows);

    Vector y;
    matVecInto(m, x, y);
    EXPECT_EQ(y, matVec(m, x));

    Vector acc = rng_.normalVector(rows);
    const Vector expected = add(acc, matVec(m, x));
    matVecAccumulate(m, x, acc);
    EXPECT_EQ(acc, expected);

    matTVecInto(m, xr, y);
    EXPECT_EQ(y, matTVec(m, xr));

    Matrix o(rows, cols);
    outerAccumulate(xr, x, 1.0, o);
    EXPECT_EQ(o, outer(xr, x));

    const Index inner = 1 + rng_.uniformInt(8);
    const Matrix a = rng_.normalMatrix(rows, inner);
    const Matrix b = rng_.normalMatrix(inner, cols);
    Matrix prod;
    matMulInto(a, b, prod);
    EXPECT_EQ(prod, matMul(a, b));
}

TEST_P(InplaceKernels, RowKernelsMatchMaterializedRows)
{
    const Index rows = 1 + rng_.uniformInt(12);
    const Index cols = 1 + rng_.uniformInt(12);
    const Matrix m = rng_.normalMatrix(rows, cols);
    const Vector x = rng_.normalVector(cols);
    for (Index r = 0; r < rows; ++r) {
        EXPECT_DOUBLE_EQ(dotRow(m, r, x), dot(m.row(r), x));
        EXPECT_DOUBLE_EQ(rowNorm(m, r), m.row(r).norm());
    }
}

TEST_P(InplaceKernels, QuantizeInPlaceMatches)
{
    const Index n = 1 + rng_.uniformInt(32);
    const Vector v = rng_.normalVector(n, 0.0, 100.0);
    Vector q = v;
    quantizeInPlace(q);
    EXPECT_EQ(q, quantize(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InplaceKernels, ::testing::Range(0, 8));

// --------------------------------------------------------------------
// Batched (struct-of-arrays) kernels: per-lane results must equal the
// single-lane kernels bit-for-bit, including across the 4-lane register
// chunks of the mat-vec kernel.
// --------------------------------------------------------------------

class BatchedKernels : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng_{static_cast<std::uint64_t>(GetParam()) * 104729 + 3};
};

TEST_P(BatchedKernels, MatVecMatchesPerLane)
{
    const Index rows = 1 + rng_.uniformInt(12);
    const Index cols = 1 + rng_.uniformInt(12);
    const Index lanes = 1 + rng_.uniformInt(90); // many 4-lane chunks
    const Matrix m = rng_.normalMatrix(rows, cols);

    std::vector<Vector> xs;
    Vector soaX(cols * lanes);
    for (Index b = 0; b < lanes; ++b) {
        xs.push_back(rng_.normalVector(cols));
        laneScatterInto(xs[b], lanes, b, soaX);
    }

    Vector soaY;
    batchedMatVecInto(m, soaX, lanes, soaY);
    Vector lane, ref;
    for (Index b = 0; b < lanes; ++b) {
        laneGatherInto(soaY, lanes, b, rows, lane);
        matVecInto(m, xs[b], ref);
        ASSERT_EQ(lane, ref) << "lane " << b;
    }

    // Accumulate on top of randomized destinations.
    std::vector<Vector> ys;
    Vector soaAcc(rows * lanes);
    for (Index b = 0; b < lanes; ++b) {
        ys.push_back(rng_.normalVector(rows));
        laneScatterInto(ys[b], lanes, b, soaAcc);
    }
    batchedMatVecAccumulate(m, soaX, lanes, soaAcc);
    for (Index b = 0; b < lanes; ++b) {
        laneGatherInto(soaAcc, lanes, b, rows, lane);
        ref = ys[b];
        matVecAccumulate(m, xs[b], ref);
        ASSERT_EQ(lane, ref) << "lane " << b;
    }
}

TEST_P(BatchedKernels, LaneHelpersMatchSingleLaneKernels)
{
    const Index n = 1 + rng_.uniformInt(24);
    const Index lanes = 1 + rng_.uniformInt(70);
    const Vector bias = rng_.normalVector(n);
    const Real alpha = rng_.uniform(-3.0, 3.0);

    std::vector<Vector> ys;
    Vector soa(n * lanes);
    for (Index b = 0; b < lanes; ++b) {
        ys.push_back(rng_.normalVector(n));
        laneScatterInto(ys[b], lanes, b, soa);
    }

    // Round-trip: gather(scatter(v)) == v.
    Vector lane;
    for (Index b = 0; b < lanes; ++b) {
        laneGatherInto(soa, lanes, b, n, lane);
        ASSERT_EQ(lane, ys[b]) << "lane " << b;
    }

    laneBroadcastAdd(bias, lanes, soa);
    for (Index b = 0; b < lanes; ++b) {
        laneGatherInto(soa, lanes, b, n, lane);
        Vector ref = ys[b];
        addInPlace(ref, bias);
        ASSERT_EQ(lane, ref) << "lane " << b;
        ys[b] = ref;
    }

    const Vector x = rng_.normalVector(n);
    const Index target = rng_.uniformInt(lanes);
    laneAxpy(alpha, x, lanes, target, soa);
    for (Index b = 0; b < lanes; ++b) {
        laneGatherInto(soa, lanes, b, n, lane);
        Vector ref = ys[b];
        if (b == target)
            axpy(alpha, x, ref);
        ASSERT_EQ(lane, ref) << "lane " << b;
    }
}

TEST_P(BatchedKernels, PartialOccupancyMatchesPerLane)
{
    // The compacted-active-lane forms: only the leading `active` columns
    // of a stride-`stride` tile are swept; they must match the
    // single-lane kernels bit-for-bit and leave the stale columns alone.
    const Index rows = 1 + rng_.uniformInt(10);
    const Index cols = 1 + rng_.uniformInt(10);
    const Index stride = 2 + rng_.uniformInt(80); // any chunk tail
    const Index active = 1 + rng_.uniformInt(stride);
    const Matrix m = rng_.normalMatrix(rows, cols);

    std::vector<Vector> xs;
    Vector soaX = rng_.normalVector(cols * stride); // stale noise beyond
    for (Index b = 0; b < active; ++b) {
        xs.push_back(rng_.normalVector(cols));
        laneScatterInto(xs[b], stride, b, soaX);
    }

    Vector soaY = rng_.normalVector(rows * stride);
    const Vector before = soaY;
    batchedMatVecInto(m, soaX, stride, active, soaY);
    Vector lane, ref;
    for (Index b = 0; b < active; ++b) {
        laneGatherInto(soaY, stride, b, rows, lane);
        matVecInto(m, xs[b], ref);
        ASSERT_EQ(lane, ref) << "lane " << b;
    }
    for (Index b = active; b < stride; ++b)
        for (Index r = 0; r < rows; ++r)
            ASSERT_EQ(soaY[r * stride + b], before[r * stride + b])
                << "inactive column " << b << " was touched";

    // Accumulate form on randomized destinations.
    std::vector<Vector> ys;
    Vector soaAcc(rows * stride);
    for (Index b = 0; b < active; ++b) {
        ys.push_back(rng_.normalVector(rows));
        laneScatterInto(ys[b], stride, b, soaAcc);
    }
    batchedMatVecAccumulate(m, soaX, stride, active, soaAcc);
    for (Index b = 0; b < active; ++b) {
        laneGatherInto(soaAcc, stride, b, rows, lane);
        ref = ys[b];
        matVecAccumulate(m, xs[b], ref);
        ASSERT_EQ(lane, ref) << "lane " << b;
    }

    // Broadcast-add over the active prefix only.
    const Vector bias = rng_.normalVector(rows);
    Vector soaBias = soaAcc;
    laneBroadcastAdd(bias, stride, active, soaBias);
    for (Index b = 0; b < active; ++b) {
        laneGatherInto(soaBias, stride, b, rows, lane);
        laneGatherInto(soaAcc, stride, b, rows, ref);
        addInPlace(ref, bias);
        ASSERT_EQ(lane, ref) << "lane " << b;
    }
    for (Index b = active; b < stride; ++b)
        for (Index r = 0; r < rows; ++r)
            ASSERT_EQ(soaBias[r * stride + b], soaAcc[r * stride + b])
                << "inactive column " << b << " was biased";
}

TEST_P(BatchedKernels, ScatterRowOffsetPlacesSegments)
{
    // Concatenated segments per lane (the reads-flat layout): scatter
    // each segment at its row offset, gather the whole lane back.
    const Index segments = 1 + rng_.uniformInt(4);
    const Index width = 1 + rng_.uniformInt(8);
    const Index lanes = 1 + rng_.uniformInt(20);
    Vector soa(segments * width * lanes);

    std::vector<std::vector<Vector>> parts(lanes);
    for (Index b = 0; b < lanes; ++b)
        for (Index s = 0; s < segments; ++s) {
            parts[b].push_back(rng_.normalVector(width));
            laneScatterInto(parts[b][s], lanes, b, soa, s * width);
        }

    Vector lane;
    for (Index b = 0; b < lanes; ++b) {
        laneGatherInto(soa, lanes, b, segments * width, lane);
        for (Index s = 0; s < segments; ++s)
            for (Index c = 0; c < width; ++c)
                ASSERT_EQ(lane[s * width + c], parts[b][s][c])
                    << "lane " << b << " segment " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedKernels, ::testing::Range(0, 8));

// --------------------------------------------------------------------
// Independent mat-vec oracle. The tests above compare one mat-vec entry
// point with another, and every entry point runs the same tiled kernel,
// so a reordered accumulation chain would pass them all. The oracle
// below is a naive double loop — one c-ascending chain per (row, lane),
// multiply then add — compared with exact equality. The grid crosses
// the kernel's 8-row tile with every row tail and its 4-lane register
// chunk with every lane tail, inside a wider lane stride.
// --------------------------------------------------------------------

namespace {

/** sum_c M(r, c) * x[c * stride + lane], accumulated c-ascending. */
Real
oracleRowSum(const Matrix &m, Index r, const Vector &x, Index stride,
             Index lane)
{
    Real acc = 0.0;
    for (Index c = 0; c < m.cols(); ++c)
        acc += m(r, c) * x[c * stride + lane];
    return acc;
}

} // namespace

TEST(MatVecOracle, SingleLaneFormsMatchNaiveLoop)
{
    Rng rng(2718);
    for (Index rows = 1; rows <= 19; ++rows) {
        for (Index cols = 1; cols <= 40; ++cols) {
            const Matrix m = rng.normalMatrix(rows, cols);
            const Vector x = rng.normalVector(cols);
            const Vector y0 = rng.normalVector(rows);
            Vector into;
            matVecInto(m, x, into);
            Vector acc = y0;
            matVecAccumulate(m, x, acc);
            ASSERT_EQ(into.size(), rows);
            for (Index r = 0; r < rows; ++r) {
                const Real want = oracleRowSum(m, r, x, 1, 0);
                ASSERT_EQ(into[r], want)
                    << rows << "x" << cols << " row " << r;
                ASSERT_EQ(acc[r], y0[r] + want)
                    << rows << "x" << cols << " row " << r;
            }
        }
    }
}

TEST(MatVecOracle, BatchedFormsMatchNaiveLoop)
{
    Rng rng(31415);
    for (Index rows = 1; rows <= 19; ++rows) {
        for (Index cols = 1; cols <= 40; ++cols) {
            // A row range starting past row 0 whose length sweeps full
            // tiles plus every tail as cols varies.
            const Index row0 = std::min<Index>(1 + cols % 3, rows - 1);
            const Index row1 = std::max(row0 + 1, rows - cols % 2);
            for (Index active = 1; active <= 9; ++active) {
                const Index stride = active + cols % 3;
                const Matrix m = rng.normalMatrix(rows, cols);
                const Vector x = rng.normalVector(cols * stride);
                const Vector y0 = rng.normalVector(rows * stride);

                Vector into = y0;
                batchedMatVecInto(m, x, stride, active, into);
                Vector acc = y0;
                batchedMatVecAccumulate(m, x, stride, active, acc);
                // The ranged forms start past lane 0 too, so a lane
                // chunk straddles the caller's column range.
                const Index first = std::min<Index>(cols % 3, active - 1);
                Vector rowsInto = y0;
                batchedMatVecRowsInto(m, row0, row1, x, stride, first,
                                      active - first, rowsInto);
                Vector rowsAcc = y0;
                batchedMatVecRowsAccumulate(m, row0, row1, x, stride, first,
                                            active - first, rowsAcc);
                if (stride == active) {
                    Vector full = y0;
                    batchedMatVecInto(m, x, stride, full);
                    ASSERT_EQ(full, into);
                    full = y0;
                    batchedMatVecAccumulate(m, x, stride, full);
                    ASSERT_EQ(full, acc);
                }

                for (Index r = 0; r < rows; ++r) {
                    for (Index b = 0; b < stride; ++b) {
                        const Index k = r * stride + b;
                        const bool live = b < active;
                        const bool ranged =
                            live && b >= first && r >= row0 && r < row1;
                        const Real want =
                            live ? oracleRowSum(m, r, x, stride, b) : 0.0;
                        // Streamed only when an assertion fails.
                        const auto where = [&] {
                            return ::testing::Message()
                                   << rows << "x" << cols << " active "
                                   << active << " stride " << stride
                                   << " row " << r << " lane " << b;
                        };
                        ASSERT_EQ(into[k], live ? want : y0[k]) << where();
                        ASSERT_EQ(acc[k], live ? y0[k] + want : y0[k])
                            << where();
                        ASSERT_EQ(rowsInto[k], ranged ? want : y0[k])
                            << where();
                        ASSERT_EQ(rowsAcc[k], ranged ? y0[k] + want : y0[k])
                            << where();
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Memory-unit helpers shared by the cache / allocation / DNC-D tests.
// --------------------------------------------------------------------

DncConfig
smallConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 32;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    return cfg;
}

/** A randomized but valid interface vector (shared golden helper). */
InterfaceVector
randomIface(const DncConfig &cfg, Rng &rng)
{
    return golden::randomIface(cfg, rng);
}

void
expectNormCacheFresh(const MemoryUnit &mu)
{
    for (Index i = 0; i < mu.memory().rows(); ++i) {
        EXPECT_DOUBLE_EQ(mu.rowNorms()[i], mu.memory().row(i).norm())
            << "row " << i;
    }
}

// --------------------------------------------------------------------
// Row-norm cache invariant.
// --------------------------------------------------------------------

TEST(RowNormCache, MatchesFreshNormsAfterRandomizedWrites)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(101);
    for (int step = 0; step < 40; ++step) {
        mu.step(randomIface(cfg, rng));
        expectNormCacheFresh(mu);
    }
}

TEST(RowNormCache, HoldsUnderWriteSkipThreshold)
{
    // With a positive skip threshold, low-weight rows are not written at
    // all — so the cache must still match the *actual* memory exactly.
    DncConfig cfg = smallConfig();
    cfg.writeSkipThreshold = 1e-6;
    MemoryUnit mu(cfg);
    Rng rng(102);
    for (int step = 0; step < 40; ++step) {
        mu.step(randomIface(cfg, rng));
        expectNormCacheFresh(mu);
    }
}

TEST(RowNormCache, HoldsInFixedPointMode)
{
    DncConfig cfg = smallConfig();
    cfg.fixedPoint = true;
    MemoryUnit mu(cfg);
    Rng rng(103);
    for (int step = 0; step < 20; ++step) {
        mu.step(randomIface(cfg, rng));
        expectNormCacheFresh(mu);
    }
}

TEST(RowNormCache, ResetRestoresZeroNorms)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(104);
    mu.step(randomIface(cfg, rng));
    mu.reset();
    expectNormCacheFresh(mu);
    EXPECT_DOUBLE_EQ(mu.rowNorms().sum(), 0.0);
}

TEST(RowNormCache, CachedWeightingMatchesUncachedReference)
{
    // Content addressing through the cache must equal the from-scratch
    // reference path bit-for-bit.
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(105);
    for (int step = 0; step < 10; ++step)
        mu.step(randomIface(cfg, rng));

    ContentAddressing ca;
    const Vector key = rng.normalVector(cfg.memoryWidth);
    Vector scores, cached;
    ca.weightingInto(mu.memory(), key, 7.0, &mu.rowNorms(), scores, cached);
    const Vector reference = ca.weighting(mu.memory(), key, 7.0);
    EXPECT_EQ(cached, reference);
}

// --------------------------------------------------------------------
// Zero steady-state allocations.
// --------------------------------------------------------------------

TEST(ZeroAllocation, SteadyStateMemoryUnitStep)
{
    const DncConfig cfg = smallConfig();
    MemoryUnit mu(cfg);
    Rng rng(201);

    // Pre-build the interfaces so the measured region is pure stepInto.
    std::vector<InterfaceVector> ifaces;
    for (int i = 0; i < 8; ++i)
        ifaces.push_back(randomIface(cfg, rng));

    MemoryReadout out;
    mu.stepInto(ifaces[0], out); // first call sizes every buffer
    mu.stepInto(ifaces[1], out);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 2; i < 8; ++i)
        mu.stepInto(ifaces[i], out);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state stepInto performed heap allocations";
}

TEST(ZeroAllocation, SteadyStateHoldsAtLargerShapes)
{
    DncConfig cfg;
    cfg.memoryRows = 128;
    cfg.memoryWidth = 32;
    cfg.readHeads = 4;
    MemoryUnit mu(cfg);
    Rng rng(202);
    const InterfaceVector iface = randomIface(cfg, rng);

    MemoryReadout out;
    mu.stepInto(iface, out);
    mu.stepInto(iface, out);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    mu.stepInto(iface, out);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
}

namespace {
// Opaque escape: forces the new-expressions in the hook self-test to
// materialize ([expr.new] lets the compiler elide calls to replaceable
// allocation functions for non-escaping pairs, which would unhook them).
volatile void *g_escapeSink = nullptr;
} // namespace

TEST(ZeroAllocation, HookTripsOnScalarAndArrayNew)
{
    // The hook itself must be trustworthy: both allocation forms bump
    // the total counter, and new[] additionally bumps the array counter
    // (it historically only counted via forwarding, which an
    // implementation-provided new[] would silently bypass).
    const std::uint64_t total0 =
        g_allocationCount.load(std::memory_order_relaxed);
    const std::uint64_t array0 =
        g_arrayAllocationCount.load(std::memory_order_relaxed);

    double *scalar = new double(1.5);
    g_escapeSink = scalar;
    EXPECT_GT(g_allocationCount.load(std::memory_order_relaxed), total0);
    delete scalar;

    double *array = new double[32];
    g_escapeSink = array;
    array[0] = 2.5;
    EXPECT_GT(g_arrayAllocationCount.load(std::memory_order_relaxed), array0);
    EXPECT_GT(g_allocationCount.load(std::memory_order_relaxed), total0 + 1);
    EXPECT_EQ(array[0], 2.5);
    delete[] array;
}

/**
 * BatchedDnc steady-state steps: zero heap allocations for the whole
 * engine — SoA controller sweeps, per-lane decode, every memory tile
 * and the thread-pool dispatch — at 1 worker and at 4.
 */
class BatchedZeroAlloc : public ::testing::TestWithParam<int>
{};

TEST_P(BatchedZeroAlloc, SteadyStateBatchedStep)
{
    DncConfig cfg = smallConfig();
    cfg.controllerSize = 32;
    cfg.inputSize = 16;
    cfg.outputSize = 16;
    cfg.batchSize = 4;
    cfg.numThreads = static_cast<Index>(GetParam());
    BatchedDnc engine(cfg, 9);
    Rng rng(203);

    // Pre-build every input batch so the measured region is pure
    // stepInto.
    std::vector<std::vector<Vector>> batches;
    for (int i = 0; i < 8; ++i)
        batches.push_back(golden::randomBatchInputs(cfg, cfg.batchSize, rng));

    std::vector<Vector> outputs;
    engine.stepInto(batches[0], outputs); // sizes every buffer
    engine.stepInto(batches[1], outputs);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 2; i < 8; ++i)
        engine.stepInto(batches[i], outputs);
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state batched step performed heap allocations";
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedZeroAlloc, ::testing::Values(1, 4));

/**
 * Router serving steps under queue overload: once requests are bound
 * and every lane is mid-episode, a router step — engine sweep, harvest
 * into the pre-sized result buffers, and rejected submissions bouncing
 * off the full queue — must not touch the heap. Admission boundaries
 * allocate (queueing, result sizing); the steady serving window, which
 * is where an overloaded deployment actually lives, must not.
 */
TEST(ZeroAllocation, RouterOverloadServingWindow)
{
    DncConfig cfg = smallConfig();
    cfg.controllerSize = 32;
    cfg.inputSize = 16;
    cfg.outputSize = 16;
    cfg.batchSize = 2;
    cfg.routerQueueCapacity = 2;
    Router router(cfg, 9);
    Rng rng(211);

    constexpr Index kTokens = 16;
    auto makeRequest = [&](std::uint64_t id) {
        ServeRequest request;
        request.id = id;
        for (Index t = 0; t < kTokens; ++t)
            request.tokens.push_back(rng.normalVector(cfg.inputSize));
        return request;
    };

    // Saturate: two bound lanes plus a full queue.
    ASSERT_TRUE(router.submit(makeRequest(0)));
    ASSERT_TRUE(router.submit(makeRequest(1)));
    router.step(); // binds both lanes
    ASSERT_TRUE(router.submit(makeRequest(2)));
    ASSERT_TRUE(router.submit(makeRequest(3)));
    ASSERT_EQ(router.activeRequests(), 2u);
    ASSERT_EQ(router.queuedRequests(), 2u);
    router.step();
    router.step(); // engine + harvest buffers all sized

    // Overflow submissions are pre-built so the measured region holds
    // only router work: step + rejected submit.
    ServeRequest overflowA = makeRequest(4);
    ServeRequest overflowB = makeRequest(5);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_FALSE(router.submit(std::move(overflowA)));
    for (int i = 0; i < 8; ++i)
        router.step(); // all mid-episode: no admissions, no completions
    EXPECT_FALSE(router.submit(std::move(overflowB)));
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "overloaded serving steps performed heap allocations";
    EXPECT_EQ(router.rejectedRequests(), 2u);

    router.drain();
    EXPECT_EQ(router.completed().size(), 4u);
}

/**
 * Lane churn must preserve the zero-allocation guarantee: admit(),
 * markDraining() and release() only reuse preallocated slots (column
 * copies + free-list pushes within reserved capacity), so a steady-state
 * serving loop with request turnover still never touches the heap.
 */
TEST_P(BatchedZeroAlloc, SteadyStateStepWithLaneChurn)
{
    DncConfig cfg = smallConfig();
    cfg.controllerSize = 32;
    cfg.inputSize = 16;
    cfg.outputSize = 16;
    cfg.batchSize = 4;
    cfg.numThreads = static_cast<Index>(GetParam());
    BatchedDnc engine(cfg, 9);
    Rng rng(205);

    std::vector<std::vector<Vector>> batches;
    for (int i = 0; i < 10; ++i)
        batches.push_back(golden::randomBatchInputs(cfg, cfg.batchSize, rng));

    std::vector<Vector> outputs;
    engine.stepInto(batches[0], outputs); // sizes every buffer
    engine.stepInto(batches[1], outputs);

    const std::uint64_t before =
        g_allocationCount.load(std::memory_order_relaxed);
    for (int i = 2; i < 10; ++i) {
        // Full lifecycle every step: one lane drains, is released, and a
        // fresh episode is admitted into the recycled slot.
        const Index victim = static_cast<Index>(i) % cfg.batchSize;
        engine.markDraining(victim);
        engine.release(victim);
        const Index slot = engine.admit();
        engine.stepInto(batches[i], outputs);
        HIMA_ASSERT(slot == victim, "free list must recycle the slot");
    }
    const std::uint64_t after =
        g_allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "lane churn performed heap allocations in steady state";
}

// --------------------------------------------------------------------
// Thread pool and threaded DNC-D determinism.
// --------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    constexpr Index kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    for (auto &h : hits)
        h.store(0);
    // Repeated jobs through the same pool: the second run would expose
    // stale workers crossing job generations.
    for (int round = 0; round < 3; ++round) {
        pool.parallelFor(kCount,
                         [&](Index i) { hits[i].fetch_add(1); });
        for (Index i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), round + 1) << "index " << i;
    }
    pool.parallelFor(0, [&](Index) { FAIL(); });
}

TEST(DncdThreads, FourThreadsBitIdenticalToSequential)
{
    DncConfig seq = smallConfig();
    seq.memoryRows = 64;
    DncConfig par = seq;
    par.numThreads = 4;

    DncD a(seq, 4);
    DncD b(par, 4);
    Rng rng(301);
    for (int step = 0; step < 12; ++step) {
        const InterfaceVector iface = randomIface(seq, rng);
        const MemoryReadout ra = a.stepInterface(iface);
        const MemoryReadout rb = b.stepInterface(iface);
        ASSERT_EQ(ra.readVectors.size(), rb.readVectors.size());
        for (Index h = 0; h < ra.readVectors.size(); ++h) {
            EXPECT_EQ(ra.readVectors[h], rb.readVectors[h]);
            EXPECT_EQ(ra.readWeightings[h], rb.readWeightings[h]);
        }
        EXPECT_EQ(ra.writeWeighting, rb.writeWeighting);
        EXPECT_EQ(a.lastAlphas(), b.lastAlphas());
    }
}

} // namespace
} // namespace hima
