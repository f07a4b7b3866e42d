#include "dnc/temporal_linkage.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace hima {

namespace {

/** Lane count of the canonical row-mass summation (see rowMassOf). */
constexpr Index kMassLanes = 8;

/** The canonical lane combine: ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)). */
inline Real
combineMassLanes(const Real a[kMassLanes])
{
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

/**
 * Absolute mass of one linkage row in the canonical summation order:
 * lane j & 7 accumulates |row[j]| in ascending j, and the eight lanes
 * are combined in combineMassLanes' fixed order. Every mass refresh —
 * both sweeps and restoreState()'s rebuild — goes through this order
 * (or rowMassOfSparse, which reproduces it), so an undisturbed run and
 * a checkpoint-restored one make identical skip decisions. The lanes
 * are independent chains, so vectorizing them reorders nothing: AVX2
 * and portable builds give the same bits.
 */
inline Real
rowMassOf(const Real *row, Index n)
{
    Real a[kMassLanes] = {};
    Index j = 0;
    for (; j + kMassLanes <= n; j += kMassLanes)
        for (Index l = 0; l < kMassLanes; ++l)
            a[l] += std::fabs(row[j + l]);
    for (; j < n; ++j)
        a[j & (kMassLanes - 1)] += std::fabs(row[j]);
    return combineMassLanes(a);
}

/**
 * Column-sparse variant: sums |row[j]| over the ascending touched-column
 * list only, into lane j & 7 — the lane is chosen by *column*, not by
 * list position. Bit-identical to rowMassOf when every unlisted column
 * is exactly zero (the touched-set invariant): each lane's chain only
 * misses fabs(+0.0) == +0.0 terms, and adding those to a nonnegative
 * accumulator never changes a bit.
 */
inline Real
rowMassOfSparse(const Real *row, const Index *cols, Index count)
{
    Real a[kMassLanes] = {};
    for (Index k = 0; k < count; ++k) {
        const Index j = cols[k];
        a[j & (kMassLanes - 1)] += std::fabs(row[j]);
    }
    return combineMassLanes(a);
}

/**
 * Software prefetch of the next row block, spread over the current
 * block's read stage: each step() requests one more 64-byte line of
 * [next, end) (with write intent — the update rewrites those rows).
 * The read kernels call it every second column, so a block of four
 * full rows (n/2 lines) is requested over one pass of readQuad4. A
 * default-constructed cursor is empty and step() is a no-op. Only the
 * full-column path arms it: the next block's rows are then contiguous
 * and lie inside the matrix, so no prefetch reaches past its end.
 */
struct BlockPrefetch
{
    const char *next = nullptr;
    const char *end = nullptr;

    void
    step()
    {
        if (next < end) {
            __builtin_prefetch(next, 1, 3);
            next += 64;
        }
    }
};

/**
 * Read-stage body for one updated row of L: accumulates the row's
 * contribution to every head's forward dot (chain order: j ascending)
 * and to the interleaved backward lanes (chain order: i ascending at
 * the caller). R is the compile-time head count; each head owns one
 * lane, multiplies and adds round separately. `pf` streams the next
 * row block towards the cache meanwhile (see BlockPrefetch).
 */
template <Index R>
inline void
readRow(const Real *row, Index n, const Real *wInt, Real *bwInt,
        const Real *wv, Real *accOut, BlockPrefetch &pf)
{
    Real acc[R] = {};
    for (Index j = 0; j < n; ++j) {
        if (!(j & 1))
            pf.step();
        const Real lij = row[j];
        const Real *wj = wInt + j * R;
        Real *bj = bwInt + j * R;
        for (Index h = 0; h < R; ++h) {
            acc[h] += lij * wj[h];
            bj[h] += lij * wv[h];
        }
    }
    for (Index h = 0; h < R; ++h)
        accOut[h] = acc[h];
}

/**
 * Column-sparse readRow: iterates the ascending touched-column list
 * instead of all N columns. An unlisted column j has row[j] == +0.0
 * (never written since reset), so its forward terms are +0.0 and its
 * backward lanes receive += +0.0 — dropping both leaves every
 * accumulation chain bit-identical to the dense kernel (L entries are
 * never -0.0 and the weightings are nonnegative, so no chain can sit
 * at -0.0 when a dropped +0.0 would have flushed it to +0.0).
 */
template <Index R>
inline void
readRowSparse(const Real *row, const Index *cols, Index count,
              const Real *wInt, Real *bwInt, const Real *wv, Real *accOut)
{
    Real acc[R] = {};
    for (Index k = 0; k < count; ++k) {
        const Index j = cols[k];
        const Real lij = row[j];
        const Real *wj = wInt + j * R;
        Real *bj = bwInt + j * R;
        for (Index h = 0; h < R; ++h) {
            acc[h] += lij * wj[h];
            bj[h] += lij * wv[h];
        }
    }
    for (Index h = 0; h < R; ++h)
        accOut[h] = acc[h];
}

#if defined(__AVX2__)
/**
 * Four-head specialization: the four lanes live in one 256-bit vector.
 * Explicit mul-then-add (no FMA contraction) keeps every lane's
 * arithmetic bit-identical to the scalar chains; the auto-vectorizer
 * misses this pattern, and the scalar version is latency-bound.
 */
template <>
inline void
readRow<4>(const Real *row, Index n, const Real *wInt, Real *bwInt,
           const Real *wv, Real *accOut, BlockPrefetch &pf)
{
    __m256d acc = _mm256_setzero_pd();
    const __m256d wvv = _mm256_loadu_pd(wv);
    for (Index j = 0; j < n; ++j) {
        if (!(j & 1))
            pf.step();
        const __m256d lij = _mm256_set1_pd(row[j]);
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(lij, _mm256_loadu_pd(wInt + 4 * j)));
        _mm256_storeu_pd(
            bwInt + 4 * j,
            _mm256_add_pd(_mm256_loadu_pd(bwInt + 4 * j),
                          _mm256_mul_pd(lij, wvv)));
    }
    _mm256_storeu_pd(accOut, acc);
}

/**
 * Four heads x four rows: amortizes the wInt/bwInt stream over four
 * rows and keeps eight independent multiply-add chains in flight. The
 * backward lanes absorb the four rows' contributions in ascending row
 * order (four separate adds per j), and each forward accumulator keeps
 * its own j-ascending chain — still bit-identical to the standalone
 * kernels. This is also where the next block's prefetch overlaps: the
 * four rows were just updated and are cache-resident, so without it
 * the loop would leave the memory system idle.
 */
inline void
readQuad4(const Real *r0, Index n, const Real *wInt, Real *bwInt,
          const Real *wv0, Real accOut[4][4], BlockPrefetch &pf)
{
    const Real *r1 = r0 + n;
    const Real *r2 = r1 + n;
    const Real *r3 = r2 + n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const __m256d v0 = _mm256_loadu_pd(wv0);
    const __m256d v1 = _mm256_loadu_pd(wv0 + 4);
    const __m256d v2 = _mm256_loadu_pd(wv0 + 8);
    const __m256d v3 = _mm256_loadu_pd(wv0 + 12);
    for (Index j = 0; j < n; ++j) {
        if (!(j & 1))
            pf.step();
        const __m256d wj = _mm256_loadu_pd(wInt + 4 * j);
        const __m256d l0 = _mm256_set1_pd(r0[j]);
        const __m256d l1 = _mm256_set1_pd(r1[j]);
        const __m256d l2 = _mm256_set1_pd(r2[j]);
        const __m256d l3 = _mm256_set1_pd(r3[j]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(l0, wj));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(l1, wj));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(l2, wj));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(l3, wj));
        __m256d b = _mm256_loadu_pd(bwInt + 4 * j);
        b = _mm256_add_pd(b, _mm256_mul_pd(l0, v0));
        b = _mm256_add_pd(b, _mm256_mul_pd(l1, v1));
        b = _mm256_add_pd(b, _mm256_mul_pd(l2, v2));
        b = _mm256_add_pd(b, _mm256_mul_pd(l3, v3));
        _mm256_storeu_pd(bwInt + 4 * j, b);
    }
    _mm256_storeu_pd(accOut[0], a0);
    _mm256_storeu_pd(accOut[1], a1);
    _mm256_storeu_pd(accOut[2], a2);
    _mm256_storeu_pd(accOut[3], a3);
}

/**
 * Column-sparse four-head specialization: same lanes and rounding as
 * readRow<4>, with j drawn from the touched-column list. The per-column
 * loads were already gathered (wInt + 4j), so the indirection adds no
 * extra memory traffic per visited column.
 */
template <>
inline void
readRowSparse<4>(const Real *row, const Index *cols, Index count,
                 const Real *wInt, Real *bwInt, const Real *wv,
                 Real *accOut)
{
    __m256d acc = _mm256_setzero_pd();
    const __m256d wvv = _mm256_loadu_pd(wv);
    for (Index k = 0; k < count; ++k) {
        const Index j = cols[k];
        const __m256d lij = _mm256_set1_pd(row[j]);
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(lij, _mm256_loadu_pd(wInt + 4 * j)));
        _mm256_storeu_pd(
            bwInt + 4 * j,
            _mm256_add_pd(_mm256_loadu_pd(bwInt + 4 * j),
                          _mm256_mul_pd(lij, wvv)));
    }
    _mm256_storeu_pd(accOut, acc);
}

/**
 * Column-sparse four-head x four-row kernel: readQuad4 walking the
 * touched-column list. Chain structure and rounding match readQuad4
 * column for column, so visiting only the (all other columns are
 * +0.0) touched set is bit-identical.
 */
inline void
readQuad4Sparse(const Real *r0, Index n, const Index *cols, Index count,
                const Real *wInt, Real *bwInt, const Real *wv0,
                Real accOut[4][4])
{
    const Real *r1 = r0 + n;
    const Real *r2 = r1 + n;
    const Real *r3 = r2 + n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const __m256d v0 = _mm256_loadu_pd(wv0);
    const __m256d v1 = _mm256_loadu_pd(wv0 + 4);
    const __m256d v2 = _mm256_loadu_pd(wv0 + 8);
    const __m256d v3 = _mm256_loadu_pd(wv0 + 12);
    for (Index k = 0; k < count; ++k) {
        const Index j = cols[k];
        const __m256d wj = _mm256_loadu_pd(wInt + 4 * j);
        const __m256d l0 = _mm256_set1_pd(r0[j]);
        const __m256d l1 = _mm256_set1_pd(r1[j]);
        const __m256d l2 = _mm256_set1_pd(r2[j]);
        const __m256d l3 = _mm256_set1_pd(r3[j]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(l0, wj));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(l1, wj));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(l2, wj));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(l3, wj));
        __m256d b = _mm256_loadu_pd(bwInt + 4 * j);
        b = _mm256_add_pd(b, _mm256_mul_pd(l0, v0));
        b = _mm256_add_pd(b, _mm256_mul_pd(l1, v1));
        b = _mm256_add_pd(b, _mm256_mul_pd(l2, v2));
        b = _mm256_add_pd(b, _mm256_mul_pd(l3, v3));
        _mm256_storeu_pd(bwInt + 4 * j, b);
    }
    _mm256_storeu_pd(accOut[0], a0);
    _mm256_storeu_pd(accOut[1], a1);
    _mm256_storeu_pd(accOut[2], a2);
    _mm256_storeu_pd(accOut[3], a3);
}
#endif

} // namespace

TemporalLinkage::TemporalLinkage(Index slots)
    : slots_(slots), linkage_(slots, slots), precedence_(slots),
      rowMass_(slots)
{
    HIMA_ASSERT(slots_ > 0, "linkage needs at least one slot");
    activeRows_.reserve(slots_);
    touched_.assign(slots_, 0);
    touchedList_.reserve(slots_);
}

Index
TemporalLinkage::gatherActiveRows(const Real *writeWeighting)
{
    activeRows_.clear();  // keeps the reserved capacity — no alloc
    touchedList_.clear(); // likewise
    const Real *mass = rowMass_.data();
    for (Index i = 0; i < slots_; ++i) {
        const bool writing = writeWeighting[i] > 0.0;
        if (writing)
            touched_[i] = 1;
        if (touched_[i])
            touchedList_.push_back(i);
        if (mass[i] > 0.0 || writing)
            activeRows_.push_back(i);
    }
    touchedListValid_ = true;
    return static_cast<Index>(activeRows_.size());
}

const std::vector<Index> &
TemporalLinkage::touchedSlots() const
{
    if (!touchedListValid_) {
        touchedList_.clear();
        for (Index i = 0; i < slots_; ++i)
            if (touched_[i])
                touchedList_.push_back(i);
        touchedListValid_ = true;
    }
    return touchedList_;
}

void
TemporalLinkage::updateLinkage(const Vector &writeWeighting,
                               KernelProfiler *profiler)
{
    HIMA_ASSERT(writeWeighting.size() == slots_, "write weighting length");

    std::optional<KernelScope> scope;
    if (profiler)
        scope.emplace(*profiler, Kernel::Linkage);

    // L[i][j] <- (1 - w[i] - w[j]) L[i][j] + w[i] p[j], diagonal zeroed,
    // over the active rows and touched columns only. An inactive row
    // (zero mass, zero write weight) is exactly zero — its update
    // computes (1 - 0 - w[j])*0 + 0*p[j] = 0 — and an untouched column
    // j has row[j] == 0 and p[j] == 0, so its update computes
    // (1 - wi - 0)*0 + wi*0 = 0; skipping both is bit-identical.
    const Real *w = writeWeighting.data();
    const Real *p = precedence_.data();
    Real *L = linkage_.data();
    const Index numActive = gatherActiveRows(w);
    const Index *cols = touchedList_.data();
    const Index tcount = static_cast<Index>(touchedList_.size());
    const bool fullCols = tcount == slots_;
    for (Index k = 0; k < numActive; ++k) {
        const Index i = activeRows_[k];
        const Real wi = w[i];
        Real *row = L + i * slots_;
        if (fullCols) {
            for (Index j = 0; j < slots_; ++j)
                row[j] = (1.0 - wi - w[j]) * row[j] + wi * p[j];
        } else {
            for (Index c = 0; c < tcount; ++c) {
                const Index j = cols[c];
                row[j] = (1.0 - wi - w[j]) * row[j] + wi * p[j];
            }
        }
        row[i] = 0.0;
        rowMass_[i] = fullCols ? rowMassOf(row, slots_)
                               : rowMassOfSparse(row, cols, tcount);
    }

    if (profiler) {
        auto &c = profiler->at(Kernel::Linkage);
        const std::uint64_t n2 = static_cast<std::uint64_t>(slots_) * slots_;
        c.elementOps += 4 * n2;          // sub, sub, mult, mac per cell
        c.stateMemAccesses += 2 * n2 + 2 * slots_; // L rd+wr, w and p reads
        const std::uint64_t skipped = slots_ - numActive;
        c.skippedRows += skipped;
        c.skippedOps += skipped * 4 * static_cast<std::uint64_t>(slots_);
        // Column skips on the rows that were visited.
        c.skippedOps += static_cast<std::uint64_t>(numActive) * 4 *
                        (slots_ - tcount);
    }
}

void
TemporalLinkage::updatePrecedence(const Vector &writeWeighting,
                                  KernelProfiler *profiler)
{
    HIMA_ASSERT(writeWeighting.size() == slots_, "write weighting length");

    std::optional<KernelScope> scope;
    if (profiler)
        scope.emplace(*profiler, Kernel::Precedence);

    const Real writeSum = writeWeighting.sum();
    const Real keep = 1.0 - writeSum;
    const Real *w = writeWeighting.data();
    Real *p = precedence_.data();
    for (Index i = 0; i < slots_; ++i)
        p[i] = keep * p[i] + w[i];

    if (profiler) {
        auto &c = profiler->at(Kernel::Precedence);
        c.elementOps += 3 * slots_; // acc-sum + scale + add
        c.stateMemAccesses += 3 * slots_;
    }
}

Vector
TemporalLinkage::forwardWeighting(const Vector &prevReadWeighting,
                                  KernelProfiler *profiler) const
{
    Vector f;
    forwardWeightingInto(prevReadWeighting, f, profiler);
    return f;
}

Vector
TemporalLinkage::backwardWeighting(const Vector &prevReadWeighting,
                                   KernelProfiler *profiler) const
{
    Vector b;
    backwardWeightingInto(prevReadWeighting, b, profiler);
    return b;
}

void
TemporalLinkage::forwardWeightingInto(const Vector &prevReadWeighting,
                                      Vector &f,
                                      KernelProfiler *profiler) const
{
    HIMA_ASSERT(prevReadWeighting.size() == slots_, "read weighting length");

    std::optional<KernelScope> scope;
    if (profiler)
        scope.emplace(*profiler, Kernel::ForwardBackward);

    // f = L w_prev, sweeping only rows that carry mass and, within a
    // row, only the touched columns. A skipped row's dot product would
    // be +0.0 exactly (all entries are zero), and a
    // skipped column's term is +0.0 (untouched columns are exactly
    // zero); the surviving per-row accumulation order is matVecInto's.
    f.resize(slots_);
    const Real *pm = linkage_.data();
    const Real *px = prevReadWeighting.data();
    const Real *mass = rowMass_.data();
    const std::vector<Index> &tl = touchedSlots();
    const Index *cols = tl.data();
    const Index tcount = static_cast<Index>(tl.size());
    const bool fullCols = tcount == slots_;
    Real *py = f.data();
    Index skipped = 0;
    for (Index r = 0; r < slots_; ++r) {
        if (mass[r] <= 0.0) {
            py[r] = 0.0;
            ++skipped;
            continue;
        }
        const Real *row = pm + r * slots_;
        Real acc = 0.0;
        if (fullCols) {
            for (Index c = 0; c < slots_; ++c)
                acc += row[c] * px[c];
        } else {
            for (Index k = 0; k < tcount; ++k)
                acc += row[cols[k]] * px[cols[k]];
        }
        py[r] = acc;
    }
    if (profiler) {
        auto &c = profiler->at(Kernel::ForwardBackward);
        const std::uint64_t n2 = static_cast<std::uint64_t>(slots_) * slots_;
        c.macOps += n2;
        c.stateMemAccesses += n2 + 2 * slots_;
        c.skippedRows += skipped;
        c.skippedOps +=
            static_cast<std::uint64_t>(skipped) * slots_;
        c.skippedOps += static_cast<std::uint64_t>(slots_ - skipped) *
                        (slots_ - tcount);
    }
}

void
TemporalLinkage::backwardWeightingInto(const Vector &prevReadWeighting,
                                       Vector &b,
                                       KernelProfiler *profiler) const
{
    HIMA_ASSERT(prevReadWeighting.size() == slots_, "read weighting length");

    std::optional<KernelScope> scope;
    if (profiler)
        scope.emplace(*profiler, Kernel::ForwardBackward);

    // The hardware path is transpose + mat-vec (Table 1); the functional
    // path fuses them to avoid materializing L^T, and additionally skips
    // massless rows and untouched columns — the column-sparse backward
    // sweep: instead of scanning each visited row's dense columns, it
    // scatters into the touched columns only (the transpose of the
    // active-row structure). A skipped row contributes row[c]*xv = +0.0
    // to every accumulator and a skipped column's output
    // stays the +0.0 it was zero-filled with, so dropping both never
    // changes a bit. Visited rows accumulate in ascending-r order and
    // visited columns in ascending-c order, matTVecInto's order.
    b.resize(slots_);
    const Real *pm = linkage_.data();
    const Real *px = prevReadWeighting.data();
    const Real *mass = rowMass_.data();
    const std::vector<Index> &tl = touchedSlots();
    const Index *cols = tl.data();
    const Index tcount = static_cast<Index>(tl.size());
    const bool fullCols = tcount == slots_;
    Real *py = b.data();
    for (Index c = 0; c < slots_; ++c)
        py[c] = 0.0;
    Index skipped = 0;
    for (Index r = 0; r < slots_; ++r) {
        if (mass[r] <= 0.0) {
            ++skipped;
            continue;
        }
        const Real xv = px[r];
        const Real *row = pm + r * slots_;
        if (fullCols) {
            for (Index c = 0; c < slots_; ++c)
                py[c] += row[c] * xv;
        } else {
            for (Index k = 0; k < tcount; ++k)
                py[cols[k]] += row[cols[k]] * xv;
        }
    }
    if (profiler) {
        auto &c = profiler->at(Kernel::ForwardBackward);
        const std::uint64_t n2 = static_cast<std::uint64_t>(slots_) * slots_;
        c.macOps += n2;
        c.stateMemAccesses += n2 + 2 * slots_;
        c.skippedRows += skipped;
        c.skippedOps +=
            static_cast<std::uint64_t>(skipped) * slots_;
        c.skippedOps += static_cast<std::uint64_t>(slots_ - skipped) *
                        (slots_ - tcount);
    }
}

void
TemporalLinkage::updateAndRead(const Vector &writeWeighting,
                               const std::vector<Vector> &prevReadWeightings,
                               std::vector<Vector> &forward,
                               std::vector<Vector> &backward,
                               KernelProfiler *profiler)
{
    HIMA_ASSERT(writeWeighting.size() == slots_, "write weighting length");
    const Index heads = prevReadWeightings.size();
    HIMA_ASSERT(heads > 0, "need at least one read head");
    if (forward.size() != heads)
        forward.resize(heads);
    if (backward.size() != heads)
        backward.resize(heads);
    for (Index h = 0; h < heads; ++h) {
        HIMA_ASSERT(prevReadWeightings[h].size() == slots_,
                    "read weighting length");
        forward[h].resize(slots_);
        backward[h].resize(slots_);
    }

    // Interleave the previous read weightings (lane h of word j =
    // head h, slot j) and zero the interleaved backward accumulators.
    // O(RN) — negligible next to the O(A*N) sweep it enables.
    interleavedReads_.resize(slots_ * heads);
    interleavedBackward_.assign(slots_ * heads, 0.0);
    for (Index h = 0; h < heads; ++h) {
        const Real *wr = prevReadWeightings[h].data();
        for (Index j = 0; j < slots_; ++j)
            interleavedReads_[j * heads + h] = wr[j];
    }

    // Activity is decided once per step, before the sweep, from the
    // cached row masses and the *current* write weighting — a row
    // receiving its first mass this step is swept this step.
    gatherActiveRows(writeWeighting.data());

    switch (heads) {
      case 1:
        updateAndReadImpl<1>(writeWeighting, forward, backward, profiler);
        break;
      case 2:
        updateAndReadImpl<2>(writeWeighting, forward, backward, profiler);
        break;
      case 4:
        updateAndReadImpl<4>(writeWeighting, forward, backward, profiler);
        break;
      case 8:
        updateAndReadImpl<8>(writeWeighting, forward, backward, profiler);
        break;
      default:
        updateAndReadImpl<0>(writeWeighting, forward, backward, profiler);
        break;
    }
}

/**
 * The fused sweep body. R is the compile-time head count (0 = runtime
 * fallback): a constant trip count lets the compiler unroll the per-head
 * lane loops and fuse them into SIMD over the interleaved buffers. Each
 * head's accumulation chain keeps its own lane and its own order, and
 * multiplies/adds round separately (FMA contraction is off), so the
 * results are bit-identical to the standalone kernels at any R.
 */
template <Index R>
void
TemporalLinkage::updateAndReadImpl(const Vector &writeWeighting,
                                   std::vector<Vector> &forward,
                                   std::vector<Vector> &backward,
                                   KernelProfiler *profiler)
{
    const Index heads = R == 0 ? forward.size() : R;
    const Real *w = writeWeighting.data();
    const Real *p = precedence_.data();
    const Real *wInt = interleavedReads_.data();
    Real *bwInt = interleavedBackward_.data();
    Real *L = linkage_.data();
    const Index numActive = static_cast<Index>(activeRows_.size());

    // Column-sparse traversal: every inner loop walks the touched
    // columns (rebuilt by gatherActiveRows just before this call)
    // instead of all N. When every slot is touched the loops fall back
    // to the contiguous dense kernels — same order, same bits, no
    // index indirection.
    const Index *cols = touchedList_.data();
    const Index tcount = static_cast<Index>(touchedList_.size());
    const bool fullCols = tcount == slots_;

    // Rows the sweep skips are exactly zero: their forward dots are
    // +0.0 and they contribute
    // nothing to the interleaved backward lanes, so zero-fill the
    // forward outputs once and let the sweep overwrite only the rows it
    // visits. O(RN), like the de-interleave below.
    for (Index h = 0; h < heads; ++h)
        forward[h].fill(0.0);

    // Row-blocked so the read stage re-traverses freshly-updated rows
    // out of L1; L streams through DRAM once per step instead of once
    // per kernel invocation. Four rows x 8 KB stays cache-resident.
    // Blocks are runs of *consecutive* active rows (up to kBlock long),
    // so an all-active matrix blocks exactly as the dense sweep did and
    // a sparse one pays only for the rows it visits. Skipped rows never
    // enter a timed region — their wall-clock attribution is zero.
    //
    // While one block's read stage runs from cache, the next block's
    // rows are prefetched (full-column path only; see BlockPrefetch),
    // so the update stream of block k+1 overlaps the compute of block
    // k instead of following it.
    constexpr Index kBlock = 4;
    using Clock = std::chrono::steady_clock;
    const bool timed = profiler != nullptr;
    std::uint64_t updateNs = 0;
    std::uint64_t readNs = 0;

    // Length of the run of consecutive active rows starting at
    // activeRows_[at], capped at kBlock.
    auto runLength = [&](Index at) {
        Index len = 1;
        while (len < kBlock && at + len < numActive &&
               activeRows_[at + len] == activeRows_[at] + len)
            ++len;
        return len;
    };

    Index cursor = 0;
    Index blockLen = numActive > 0 ? runLength(0) : 0;
    while (cursor < numActive) {
        const Index blockStart = activeRows_[cursor];
        const Index blockEnd = blockStart + blockLen;
        cursor += blockLen;
        const Index nextLen = cursor < numActive ? runLength(cursor) : 0;
        BlockPrefetch pf;
        if (fullCols && nextLen > 0) {
            const Real *next = L + activeRows_[cursor] * slots_;
            pf.next = reinterpret_cast<const char *>(next);
            pf.end = reinterpret_cast<const char *>(next + nextLen * slots_);
        }
        blockLen = nextLen;
        const auto t0 = timed ? Clock::now() : Clock::time_point{};

        // HR.(1): update rows [blockStart, blockEnd) of L, exactly as
        // updateLinkage() does, refreshing each row's mass cache from
        // the finished row in the canonical lane order (rowMassOf —
        // restoreState()'s order). Untouched columns hold +0.0 in row,
        // p and w's touched test, so iterating only the touched
        // columns is bit-identical.
        for (Index i = blockStart; i < blockEnd; ++i) {
            const Real wi = w[i];
            Real *row = L + i * slots_;
            if (fullCols) {
                for (Index j = 0; j < slots_; ++j)
                    row[j] = (1.0 - wi - w[j]) * row[j] + wi * p[j];
            } else {
                for (Index k = 0; k < tcount; ++k) {
                    const Index j = cols[k];
                    row[j] = (1.0 - wi - w[j]) * row[j] + wi * p[j];
                }
            }
            row[i] = 0.0;
            rowMass_[i] = fullCols ? rowMassOf(row, slots_)
                                   : rowMassOfSparse(row, cols, tcount);
        }
        const auto t1 = timed ? Clock::now() : Clock::time_point{};

        // HR.(3): fold the freshly-updated rows into every head's
        // forward and backward weightings. forward[h][i] accumulates
        // over j in ascending order (matVec's order) and the
        // interleaved backward lanes accumulate row contributions in
        // ascending i (matTVec's order).
#if defined(__AVX2__)
        if constexpr (R == 4) {
            if (blockEnd - blockStart == 4) {
                Real acc[4][4];
                if (fullCols)
                    readQuad4(L + blockStart * slots_, slots_, wInt, bwInt,
                              wInt + blockStart * 4, acc, pf);
                else
                    readQuad4Sparse(L + blockStart * slots_, slots_, cols,
                                    tcount, wInt, bwInt,
                                    wInt + blockStart * 4, acc);
                for (Index k = 0; k < 4; ++k)
                    for (Index h = 0; h < 4; ++h)
                        forward[h][blockStart + k] = acc[k][h];
                const auto t2q =
                    timed ? Clock::now() : Clock::time_point{};
                updateNs +=
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0).count();
                readNs +=
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t2q - t1).count();
                continue;
            }
        }
#endif
        for (Index i = blockStart; i < blockEnd; ++i) {
            const Real *row = L + i * slots_;
            if (R != 0) {
                Real acc[R == 0 ? 1 : R];
                if (fullCols)
                    readRow<R == 0 ? 1 : R>(row, slots_, wInt, bwInt,
                                            wInt + i * heads, acc, pf);
                else
                    readRowSparse<R == 0 ? 1 : R>(row, cols, tcount, wInt,
                                                  bwInt, wInt + i * heads,
                                                  acc);
                for (Index h = 0; h < heads; ++h)
                    forward[h][i] = acc[h];
            } else {
                // Runtime-R fallback: same math, lane loop unbounded.
                for (Index h = 0; h < heads; ++h) {
                    const Real hv = wInt[i * heads + h];
                    Real a = 0.0;
                    if (fullCols) {
                        for (Index j = 0; j < slots_; ++j) {
                            if (!(j & 1))
                                pf.step();
                            a += row[j] * wInt[j * heads + h];
                            bwInt[j * heads + h] += row[j] * hv;
                        }
                    } else {
                        for (Index k = 0; k < tcount; ++k) {
                            const Index j = cols[k];
                            a += row[j] * wInt[j * heads + h];
                            bwInt[j * heads + h] += row[j] * hv;
                        }
                    }
                    forward[h][i] = a;
                }
            }
        }
        const auto t2 = timed ? Clock::now() : Clock::time_point{};
        updateNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0).count();
        readNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t2 - t1).count();
    }

    // De-interleave the backward lanes.
    for (Index h = 0; h < heads; ++h) {
        Real *bw = backward[h].data();
        for (Index j = 0; j < slots_; ++j)
            bw[j] = bwInt[j * heads + h];
    }

    if (profiler) {
        const std::uint64_t n2 = static_cast<std::uint64_t>(slots_) * slots_;
        const std::uint64_t skipped = slots_ - numActive;
        auto &link = profiler->at(Kernel::Linkage);
        link.invocations += 1;
        link.nanoseconds += updateNs;
        link.elementOps += 4 * n2;
        link.stateMemAccesses += 2 * n2 + 2 * slots_;
        link.skippedRows += skipped;
        link.skippedOps += skipped * 4 * static_cast<std::uint64_t>(slots_);
        link.skippedOps += static_cast<std::uint64_t>(numActive) * 4 *
                           (slots_ - tcount);
        auto &fb = profiler->at(Kernel::ForwardBackward);
        fb.invocations += 2 * heads; // mirrors the 2R standalone calls
        fb.nanoseconds += readNs;
        fb.macOps += 2 * heads * n2;
        fb.stateMemAccesses += 2 * heads * (n2 + 2 * slots_);
        fb.skippedRows += 2 * heads * skipped;
        fb.skippedOps +=
            2 * heads * skipped * static_cast<std::uint64_t>(slots_);
        fb.skippedOps += 2 * heads * static_cast<std::uint64_t>(numActive) *
                         (slots_ - tcount);
    }
}

void
TemporalLinkage::reset()
{
    linkage_.fill(0.0);
    precedence_.fill(0.0);
    // Every row is massless again: rows never written after this reset
    // stay exactly zero and are skipped by every sweep. The touched set
    // empties with them — it only ever grows within an episode.
    rowMass_.fill(0.0);
    std::fill(touched_.begin(), touched_.end(), 0);
    touchedListValid_ = false;
}

void
TemporalLinkage::rebuildMassAndMarkTouched()
{
    // The mass rebuild calls the sweeps' own rowMassOf, so a
    // mid-episode restore makes bit-identical skip decisions to the
    // undisturbed run it snapshots. Marking every column that holds a
    // nonzero entry keeps the sweeps' "untouched columns are exactly
    // zero" invariant.
    for (Index i = 0; i < slots_; ++i) {
        const Real *row = linkage_.data() + i * slots_;
        for (Index j = 0; j < slots_; ++j)
            if (row[j] != 0.0)
                touched_[j] = 1;
        rowMass_[i] = rowMassOf(row, slots_);
    }
    touchedListValid_ = false;
}

void
TemporalLinkage::restoreState(const Vector &linkageFlat,
                              const Vector &precedence)
{
    HIMA_ASSERT(linkageFlat.size() == slots_ * slots_,
                "linkage restore: %zu reals for %zu slots",
                linkageFlat.size(), slots_);
    HIMA_ASSERT(precedence.size() == slots_,
                "precedence restore: %zu reals for %zu slots",
                precedence.size(), slots_);
    std::copy(linkageFlat.begin(), linkageFlat.end(), linkage_.data());
    std::copy(precedence.begin(), precedence.end(), precedence_.begin());
    // The touched set is derived (see restoreState's doc): slots with
    // nonzero precedence here, nonzero linkage columns in the rebuild.
    for (Index j = 0; j < slots_; ++j)
        touched_[j] = precedence_[j] != 0.0 ? 1 : 0;
    rebuildMassAndMarkTouched();
}

} // namespace hima
