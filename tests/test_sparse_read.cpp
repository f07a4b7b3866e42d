/**
 * @file
 * End-to-end active-set sparsity suite: the sparse read stage
 * (norm-cache similarity skip + sparse memory read), the column-sparse
 * linkage sweeps, skip-count accounting against the profiler, and the
 * one-pass restore-rebuild contract.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "dnc/memory_unit.h"
#include "dense_oracle.h"
#include "golden_util.h"

namespace hima {
namespace {

DncConfig
sparseCfg(Index rows = 48)
{
    DncConfig cfg;
    cfg.memoryRows = rows;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    return cfg;
}

/**
 * Allocation-gated write: while zero-usage slots remain, the allocation
 * weighting is exactly one-hot and the content blend is multiplied by
 * (1 - allocationGate) == +0.0, so each step touches exactly one fresh
 * slot and every untouched row stays bitwise zero.
 */
InterfaceVector
allocationIface(const DncConfig &cfg, Rng &rng)
{
    InterfaceVector iface = golden::randomIface(cfg, rng);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    return iface;
}

Index
countZeroNorms(const MemoryUnit &mu)
{
    Index zeros = 0;
    for (Index i = 0; i < mu.rowNorms().size(); ++i)
        if (mu.rowNorms()[i] == 0.0)
            ++zeros;
    return zeros;
}

void
expectUnitsIdentical(const MemoryUnit &a, const MemoryUnit &b, int step)
{
    SCOPED_TRACE(::testing::Message() << "step " << step);
    EXPECT_TRUE(a.memory() == b.memory()) << "memory diverged";
    EXPECT_TRUE(a.rowNorms() == b.rowNorms()) << "row norms diverged";
    EXPECT_TRUE(a.usage() == b.usage()) << "usage diverged";
    EXPECT_TRUE(a.writeWeighting() == b.writeWeighting())
        << "write weighting diverged";
    EXPECT_TRUE(a.linkage().linkage() == b.linkage().linkage())
        << "linkage diverged";
    EXPECT_TRUE(a.linkage().precedence() == b.linkage().precedence())
        << "precedence diverged";
    for (Index h = 0; h < a.readWeightings().size(); ++h)
        EXPECT_TRUE(a.readWeightings()[h] == b.readWeightings()[h])
            << "read weighting head " << h << " diverged";
}

} // namespace

// ------------------------------------------------------ sparse == dense

/**
 * The standing contract: the sparse read stage, sparse memory read and
 * column-sparse linkage sweeps are bit-identical to the dense DNC
 * equations, as computed by the test-side oracle, across
 * allocation-gated one-hot traffic, mixed soft traffic and episode
 * resets (a fresh oracle per episode). The row-norm cache, which the
 * oracle recomputes per lookup instead of keeping, must equal a fresh
 * ascending recompute of the memory rows.
 */
TEST(SparseReadStage, ChurnLockstepBitIdenticalToDense)
{
    const DncConfig cfg = sparseCfg();
    MemoryUnit unit(cfg);
    oracle::MemoryUnitSim ref(cfg);
    MemoryReadout out;
    Rng rng(0x5eadULL);
    for (int step = 0; step < 160; ++step) {
        if (step > 0 && step % 40 == 0) {
            unit.reset();
            ref = oracle::MemoryUnitSim(cfg);
        }
        const InterfaceVector iface = (step % 40 < 12)
                                          ? allocationIface(cfg, rng)
                                          : golden::randomIface(cfg, rng);
        const MemoryReadout expect = ref.step(iface);
        unit.stepInto(iface, out);
        SCOPED_TRACE(::testing::Message() << "step " << step);
        for (Index h = 0; h < cfg.readHeads; ++h) {
            EXPECT_TRUE(out.readVectors[h] == expect.readVectors[h])
                << "read vector head " << h;
            EXPECT_TRUE(out.readWeightings[h] == expect.readWeightings[h])
                << "read weighting head " << h;
            EXPECT_TRUE(unit.readWeightings()[h] == ref.readWeightings[h])
                << "stored read weighting head " << h;
        }
        EXPECT_TRUE(out.writeWeighting == expect.writeWeighting)
            << "write weighting";
        EXPECT_TRUE(unit.writeWeighting() == ref.writeWeighting)
            << "stored write weighting";
        EXPECT_TRUE(unit.memory() == ref.memory) << "memory diverged";
        EXPECT_TRUE(unit.usage() == ref.usage) << "usage diverged";
        EXPECT_TRUE(unit.linkage().linkage() == ref.linkage)
            << "linkage diverged";
        EXPECT_TRUE(unit.linkage().precedence() == ref.precedence)
            << "precedence diverged";
        for (Index i = 0; i < cfg.memoryRows; ++i) {
            Real acc = 0.0;
            for (Index c = 0; c < cfg.memoryWidth; ++c)
                acc += ref.memory(i, c) * ref.memory(i, c);
            EXPECT_EQ(unit.rowNorms()[i], std::sqrt(acc)) << "row norm " << i;
        }
    }
}

/**
 * Predicted skip counts match the profiler. Per step the write content
 * weighting scores once against the pre-write norms and each of the R
 * read weightings against the post-write norms; the sparse memory read
 * skips the zero-norm rows once per head.
 */
TEST(SparseReadStage, SkipCountersMatchZeroNormPrediction)
{
    const DncConfig cfg = sparseCfg(32);
    MemoryUnit mu(cfg);
    MemoryReadout out;
    Rng rng(77);
    const std::uint64_t heads = cfg.readHeads;
    for (int step = 0; step < 24; ++step) {
        if (step == 16)
            mu.reset(); // resets re-zero rows: skips must resume
        const std::uint64_t zerosBefore = countZeroNorms(mu);
        const std::uint64_t simBefore =
            mu.profiler().at(Kernel::Similarity).skippedRows;
        const std::uint64_t mrBefore =
            mu.profiler().at(Kernel::MemoryRead).skippedRows;
        const InterfaceVector iface = allocationIface(cfg, rng);
        mu.stepInto(iface, out);
        const std::uint64_t zerosAfter = countZeroNorms(mu);
        EXPECT_EQ(mu.profiler().at(Kernel::Similarity).skippedRows - simBefore,
                  zerosBefore + heads * zerosAfter)
            << "step " << step;
        EXPECT_EQ(mu.profiler().at(Kernel::MemoryRead).skippedRows - mrBefore,
                  heads * zerosAfter)
            << "step " << step;
    }
}

/**
 * Rows skipped by the read stage contribute exactly-zero read weight:
 * after allocation-gated one-hot writes, every slot outside the touched
 * set holds +0.0 in the forward and backward weightings (the
 * column-sparse backward scatter never writes them) and the touched set
 * is exactly the union of write supports.
 */
TEST(SparseReadStage, UntouchedSlotsCarryExactlyZeroReadWeight)
{
    const DncConfig cfg = sparseCfg(24);
    MemoryUnit mu(cfg);
    MemoryReadout out;
    Rng rng(11);
    std::set<Index> written;
    for (int step = 0; step < 6; ++step) {
        mu.stepInto(allocationIface(cfg, rng), out);
        for (Index i = 0; i < cfg.memoryRows; ++i)
            if (out.writeWeighting[i] != 0.0)
                written.insert(i);
    }
    ASSERT_EQ(written.size(), 6u) << "one-hot allocation writes expected";
    const std::vector<Index> expected(written.begin(), written.end());
    EXPECT_EQ(mu.linkage().touchedSlots(), expected);

    Vector prev(cfg.memoryRows, 0.0);
    for (Index s : written)
        prev[s] = 1.0 / static_cast<Real>(written.size());
    Vector f, b;
    mu.linkage().forwardWeightingInto(prev, f);
    mu.linkage().backwardWeightingInto(prev, b);
    for (Index j = 0; j < cfg.memoryRows; ++j) {
        if (written.count(j))
            continue;
        EXPECT_EQ(f[j], 0.0) << "forward weight at untouched slot " << j;
        EXPECT_FALSE(std::signbit(f[j])) << "-0.0 at slot " << j;
        EXPECT_EQ(b[j], 0.0) << "backward weight at untouched slot " << j;
        EXPECT_FALSE(std::signbit(b[j])) << "-0.0 at slot " << j;
    }
}

// -------------------------------------------------------------- restore

/**
 * The one-pass fused restore rebuilds the norm cache from the restored
 * memory rows and never trusts the snapshot's copy (sparse checkpoint
 * frames do not even carry one). Fixed-point config keeps the quantized
 * values flowing through the same accumulation order.
 */
TEST(SparseRestore, FixedPointRestoreRebuildsNormsBitExactly)
{
    DncConfig cfg = sparseCfg();
    cfg.fixedPoint = true;
    MemoryUnit live(cfg);
    MemoryReadout out;
    Rng rng(123);
    for (int step = 0; step < 30; ++step)
        live.stepInto(step < 8 ? allocationIface(cfg, rng)
                               : golden::randomIface(cfg, rng),
                      out);

    MemoryTileState snap;
    live.captureState(snap);
    const Vector originalNorms = snap.rowNorms;
    snap.rowNorms.fill(777.0); // a trusted copy would poison the cache

    MemoryUnit restored(cfg);
    restored.restoreState(snap);
    EXPECT_TRUE(restored.rowNorms() == originalNorms);
    EXPECT_TRUE(restored.rowNorms() == live.rowNorms());

    MemoryReadout ra, rb;
    for (int step = 0; step < 12; ++step) {
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        live.stepInto(iface, ra);
        restored.stepInto(iface, rb);
        for (Index h = 0; h < cfg.readHeads; ++h)
            EXPECT_TRUE(ra.readVectors[h] == rb.readVectors[h])
                << "head " << h << " step " << step;
        expectUnitsIdentical(live, restored, step);
    }
}

/**
 * A restore mid-way through allocation-gated one-hot traffic, while
 * most slots are untouched and the newest slot holds precedence but no
 * linkage mass yet: the derived touched set equals the undisturbed
 * run's, and the continuation, one-hot and soft, matches bit-for-bit.
 */
TEST(SparseRestore, EarlyEpisodeRestoreMatchesUndisturbedRun)
{
    const DncConfig cfg = sparseCfg();
    MemoryUnit live(cfg);
    MemoryReadout out;
    Rng rng(31);
    for (int step = 0; step < 6; ++step)
        live.stepInto(allocationIface(cfg, rng), out);

    MemoryTileState snap;
    live.captureState(snap);
    MemoryUnit restored(cfg);
    restored.restoreState(snap);
    ASSERT_EQ(live.linkage().touchedSlots().size(), 6u);
    EXPECT_EQ(restored.linkage().touchedSlots(),
              live.linkage().touchedSlots());

    MemoryReadout ra, rb;
    for (int step = 0; step < 20; ++step) {
        const InterfaceVector iface = step < 6
                                          ? allocationIface(cfg, rng)
                                          : golden::randomIface(cfg, rng);
        live.stepInto(iface, ra);
        restored.stepInto(iface, rb);
        for (Index h = 0; h < cfg.readHeads; ++h)
            EXPECT_TRUE(ra.readVectors[h] == rb.readVectors[h])
                << "head " << h << " step " << step;
        expectUnitsIdentical(live, restored, step);
    }
    EXPECT_EQ(restored.linkage().touchedSlots(),
              live.linkage().touchedSlots());
}

} // namespace hima
