#include "common/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace hima {

void
Vector::fill(Real value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Real
Vector::sum() const
{
    return std::accumulate(data_.begin(), data_.end(), 0.0);
}

Real
Vector::norm() const
{
    Real acc = 0.0;
    for (Real v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

Real
Vector::max() const
{
    HIMA_ASSERT(!data_.empty(), "max() of empty vector");
    return *std::max_element(data_.begin(), data_.end());
}

Real
Vector::min() const
{
    HIMA_ASSERT(!data_.empty(), "min() of empty vector");
    return *std::min_element(data_.begin(), data_.end());
}

Index
Vector::argmax() const
{
    HIMA_ASSERT(!data_.empty(), "argmax() of empty vector");
    return static_cast<Index>(
        std::max_element(data_.begin(), data_.end()) - data_.begin());
}

void
Matrix::fill(Real value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Vector
Matrix::row(Index r) const
{
    HIMA_ASSERT(r < rows_, "row %zu out of range %zu", r, rows_);
    Vector v(cols_);
    for (Index c = 0; c < cols_; ++c)
        v[c] = data_[r * cols_ + c];
    return v;
}

void
Matrix::setRow(Index r, const Vector &v)
{
    HIMA_ASSERT(r < rows_, "row %zu out of range %zu", r, rows_);
    HIMA_ASSERT(v.size() == cols_, "row length %zu != cols %zu",
                v.size(), cols_);
    for (Index c = 0; c < cols_; ++c)
        data_[r * cols_ + c] = v[c];
}

namespace {

void
checkSameSize(const Vector &a, const Vector &b, const char *op)
{
    HIMA_ASSERT(a.size() == b.size(), "%s: size mismatch %zu vs %zu",
                op, a.size(), b.size());
}

void
checkSameShape(const Matrix &a, const Matrix &b, const char *op)
{
    HIMA_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                "%s: shape mismatch (%zu,%zu) vs (%zu,%zu)",
                op, a.rows(), a.cols(), b.rows(), b.cols());
}

} // namespace

void
addInto(const Vector &a, const Vector &b, Vector &out)
{
    checkSameSize(a, b, "addInto");
    const Index n = a.size();
    out.resize(n);
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index i = 0; i < n; ++i)
        po[i] = pa[i] + pb[i];
}

void
subInto(const Vector &a, const Vector &b, Vector &out)
{
    checkSameSize(a, b, "subInto");
    const Index n = a.size();
    out.resize(n);
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index i = 0; i < n; ++i)
        po[i] = pa[i] - pb[i];
}

void
mulInto(const Vector &a, const Vector &b, Vector &out)
{
    checkSameSize(a, b, "mulInto");
    const Index n = a.size();
    out.resize(n);
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index i = 0; i < n; ++i)
        po[i] = pa[i] * pb[i];
}

void
addInPlace(Vector &a, const Vector &b)
{
    checkSameSize(a, b, "addInPlace");
    Real *pa = a.data();
    const Real *pb = b.data();
    for (Index i = 0, n = a.size(); i < n; ++i)
        pa[i] += pb[i];
}

void
scaleInPlace(Vector &a, Real s)
{
    Real *pa = a.data();
    for (Index i = 0, n = a.size(); i < n; ++i)
        pa[i] *= s;
}

void
axpy(Real alpha, const Vector &x, Vector &y)
{
    checkSameSize(x, y, "axpy");
    const Real *px = x.data();
    Real *py = y.data();
    for (Index i = 0, n = x.size(); i < n; ++i)
        py[i] += alpha * px[i];
}

namespace {

/** Output rows per register tile of the mat-vec kernel. */
constexpr Index kRowTile = 8;

/**
 * Eight output rows x one lane, at any lane stride: eight scalar
 * c-ascending chains, each in its own register. The first `nr` sums
 * are stored (or added to y) at y[i * stride].
 *
 * GCC would vectorize these in-order chains as fold-left reductions
 * (vector multiplies, then one lane extract per in-order add), which
 * measured ~20% slower than the scalar loop at the controller shapes,
 * so loop vectorization is switched off for this function only.
 */
template <bool Accumulate>
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
void
tileOneLane(const Real *const *w, Index nr, Index cols, const Real *x,
            Index stride, Real *y)
{
    const Real *w0 = w[0], *w1 = w[1], *w2 = w[2], *w3 = w[3];
    const Real *w4 = w[4], *w5 = w[5], *w6 = w[6], *w7 = w[7];
    Real a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    Real a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
    for (Index c = 0; c < cols; ++c) {
        const Real xv = x[c * stride];
        a0 += w0[c] * xv;
        a1 += w1[c] * xv;
        a2 += w2[c] * xv;
        a3 += w3[c] * xv;
        a4 += w4[c] * xv;
        a5 += w5[c] * xv;
        a6 += w6[c] * xv;
        a7 += w7[c] * xv;
    }
    const Real acc[kRowTile] = {a0, a1, a2, a3, a4, a5, a6, a7};
    for (Index i = 0; i < nr; ++i) {
        Real &out = y[i * stride];
        out = Accumulate ? out + acc[i] : acc[i];
    }
}

#if defined(__AVX2__)
/**
 * Eight output rows x up to four lanes: eight vector chains, one per
 * row, each lane of a vector its own c-ascending chain. Multiply and
 * add stay separate roundings (this file's hot-path flags carry
 * -ffp-contract=off, so GCC never fuses them into an FMA), so every
 * lane rounds exactly as tileOneLane does. `mask` selects the live lanes; masked-out lanes
 * are neither loaded nor stored, so nothing outside the tile is read.
 */
template <bool Accumulate>
void
tileFourLanes(const Real *const *w, Index nr, Index cols, const Real *x,
              Index stride, __m256i mask, Real *y)
{
    const Real *w0 = w[0], *w1 = w[1], *w2 = w[2], *w3 = w[3];
    const Real *w4 = w[4], *w5 = w[5], *w6 = w[6], *w7 = w[7];
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd(), a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd(), a7 = _mm256_setzero_pd();
    for (Index c = 0; c < cols; ++c) {
        const __m256d xv = _mm256_maskload_pd(x + c * stride, mask);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_set1_pd(w0[c]), xv));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_set1_pd(w1[c]), xv));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_set1_pd(w2[c]), xv));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_set1_pd(w3[c]), xv));
        a4 = _mm256_add_pd(a4, _mm256_mul_pd(_mm256_set1_pd(w4[c]), xv));
        a5 = _mm256_add_pd(a5, _mm256_mul_pd(_mm256_set1_pd(w5[c]), xv));
        a6 = _mm256_add_pd(a6, _mm256_mul_pd(_mm256_set1_pd(w6[c]), xv));
        a7 = _mm256_add_pd(a7, _mm256_mul_pd(_mm256_set1_pd(w7[c]), xv));
    }
    const __m256d acc[kRowTile] = {a0, a1, a2, a3, a4, a5, a6, a7};
    for (Index i = 0; i < nr; ++i) {
        Real *out = y + i * stride;
        __m256d v = acc[i];
        if (Accumulate)
            v = _mm256_add_pd(_mm256_maskload_pd(out, mask), v);
        _mm256_maskstore_pd(out, mask, v);
    }
}

/** Load/store mask selecting the first min(n, 4) lanes of a chunk. */
__m256i
laneMask(Index n)
{
    const long long live = static_cast<long long>(std::min<Index>(n, 4));
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live),
                              _mm256_setr_epi64x(0, 1, 2, 3));
}
#endif

/**
 * The one mat-vec kernel behind every public entry point:
 *   y[r * stride + b] (=|+=) sum_c M(r, c) * x[c * stride + b]
 * for rows r in [row0, row1) and lanes b in [0, active). Rows go in
 * tiles of kRowTile; with AVX2, two or more lanes go in chunks of
 * kBatchLaneChunk, otherwise each lane runs tileOneLane. Every
 * (row, lane) sum is one private c-ascending chain, completed before
 * the single store or += into y, so the result is bit-identical to a
 * naive per-row loop whatever the tiling. A row tile that runs past
 * row1 points its spare slots at row1 - 1 and drops their sums.
 */
template <bool Accumulate>
void
matVecRows(const Matrix &m, Index row0, Index row1, const Real *x,
           Index stride, Index active, Real *y)
{
    const Index cols = m.cols();
    const Real *pm = m.data();
    for (Index r = row0; r < row1; r += kRowTile) {
        const Index nr = std::min(kRowTile, row1 - r);
        const Real *w[kRowTile];
        for (Index i = 0; i < kRowTile; ++i)
            w[i] = pm + std::min(r + i, row1 - 1) * cols;
        Real *yr = y + r * stride;
#if defined(__AVX2__)
        if (active > 1) {
            for (Index b0 = 0; b0 < active; b0 += kBatchLaneChunk)
                tileFourLanes<Accumulate>(w, nr, cols, x + b0, stride,
                                          laneMask(active - b0), yr + b0);
            continue;
        }
#endif
        for (Index b = 0; b < active; ++b)
            tileOneLane<Accumulate>(w, nr, cols, x + b, stride, yr + b);
    }
}

/** Shape checks shared by every mat-vec entry point, then the kernel. */
template <bool Accumulate>
void
batchedRows(const Matrix &m, Index row0, Index row1, const Vector &x,
            Index stride, Index first, Index active, Vector &y,
            const char *op)
{
    HIMA_ASSERT(stride >= 1, "%s: zero lane stride", op);
    HIMA_ASSERT(active >= 1 && first + active <= stride,
                "%s: lanes [%zu, %zu + %zu) outside [0, %zu)", op, first,
                first, active, stride);
    HIMA_ASSERT(m.cols() * stride == x.size(),
                "%s: cols %zu * stride %zu != x %zu", op, m.cols(), stride,
                x.size());
    HIMA_ASSERT(y.size() == m.rows() * stride,
                "%s: y %zu != rows %zu * stride %zu", op, y.size(), m.rows(),
                stride);
    HIMA_ASSERT(row0 <= row1 && row1 <= m.rows(),
                "%s: rows [%zu, %zu) outside %zu", op, row0, row1, m.rows());
    matVecRows<Accumulate>(m, row0, row1, x.data() + first, stride, active,
                           y.data() + first);
}

} // namespace

void
matVecInto(const Matrix &m, const Vector &x, Vector &y)
{
    y.resize(m.rows());
    batchedRows<false>(m, 0, m.rows(), x, 1, 0, 1, y, "matVecInto");
}

void
matVecAccumulate(const Matrix &m, const Vector &x, Vector &y)
{
    batchedRows<true>(m, 0, m.rows(), x, 1, 0, 1, y, "matVecAccumulate");
}

void
matTVecInto(const Matrix &m, const Vector &x, Vector &y)
{
    HIMA_ASSERT(m.rows() == x.size(), "matTVecInto: rows %zu != x %zu",
                m.rows(), x.size());
    const Index rows = m.rows();
    const Index cols = m.cols();
    y.resize(cols);
    const Real *pm = m.data();
    const Real *px = x.data();
    Real *py = y.data();
    for (Index c = 0; c < cols; ++c)
        py[c] = 0.0;
    for (Index r = 0; r < rows; ++r) {
        const Real xv = px[r];
        const Real *row = pm + r * cols;
        for (Index c = 0; c < cols; ++c)
            py[c] += row[c] * xv;
    }
}

Index
matTVecSparseInto(const Matrix &m, const Vector &x, const Vector &rowGate,
                  Vector &y)
{
    HIMA_ASSERT(m.rows() == x.size(), "matTVecSparseInto: rows %zu != x %zu",
                m.rows(), x.size());
    HIMA_ASSERT(rowGate.size() == m.rows(),
                "matTVecSparseInto: gate %zu != rows %zu", rowGate.size(),
                m.rows());
    const Index rows = m.rows();
    const Index cols = m.cols();
    y.resize(cols);
    const Real *pm = m.data();
    const Real *px = x.data();
    const Real *pg = rowGate.data();
    Real *py = y.data();
    for (Index c = 0; c < cols; ++c)
        py[c] = 0.0;
    Index skipped = 0;
    for (Index r = 0; r < rows; ++r) {
        if (pg[r] <= 0.0) {
            ++skipped;
            continue;
        }
        const Real xv = px[r];
        const Real *row = pm + r * cols;
        for (Index c = 0; c < cols; ++c)
            py[c] += row[c] * xv;
    }
    return skipped;
}

void
outerAccumulate(const Vector &a, const Vector &b, Real s, Matrix &m)
{
    HIMA_ASSERT(m.rows() == a.size() && m.cols() == b.size(),
                "outerAccumulate: shape (%zu,%zu) != (%zu,%zu)",
                m.rows(), m.cols(), a.size(), b.size());
    const Index rows = a.size();
    const Index cols = b.size();
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *pm = m.data();
    for (Index r = 0; r < rows; ++r) {
        const Real av = s * pa[r];
        if (av == 0.0)
            continue;
        Real *row = pm + r * cols;
        for (Index c = 0; c < cols; ++c)
            row[c] += av * pb[c];
    }
}

void
matMulInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    HIMA_ASSERT(a.cols() == b.rows(), "matMulInto: inner dims %zu vs %zu",
                a.cols(), b.rows());
    out.resize(a.rows(), b.cols());
    out.fill(0.0);
    const Index rows = a.rows();
    const Index inner = a.cols();
    const Index cols = b.cols();
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index r = 0; r < rows; ++r) {
        Real *orow = po + r * cols;
        const Real *arow = pa + r * inner;
        for (Index k = 0; k < inner; ++k) {
            const Real av = arow[k];
            if (av == 0.0)
                continue;
            const Real *brow = pb + k * cols;
            for (Index c = 0; c < cols; ++c)
                orow[c] += av * brow[c];
        }
    }
}

void
batchedMatVecInto(const Matrix &m, const Vector &x, Index laneStride,
                  Index activeLanes, Vector &y)
{
    y.resize(m.rows() * laneStride);
    batchedRows<false>(m, 0, m.rows(), x, laneStride, 0, activeLanes, y,
                       "batchedMatVecInto");
}

void
batchedMatVecInto(const Matrix &m, const Vector &x, Index lanes, Vector &y)
{
    batchedMatVecInto(m, x, lanes, lanes, y);
}

void
batchedMatVecAccumulate(const Matrix &m, const Vector &x, Index laneStride,
                        Index activeLanes, Vector &y)
{
    batchedRows<true>(m, 0, m.rows(), x, laneStride, 0, activeLanes, y,
                      "batchedMatVecAccumulate");
}

void
batchedMatVecAccumulate(const Matrix &m, const Vector &x, Index lanes,
                        Vector &y)
{
    batchedMatVecAccumulate(m, x, lanes, lanes, y);
}

void
batchedMatVecRowsInto(const Matrix &m, Index row0, Index row1,
                      const Vector &x, Index laneStride, Index firstLane,
                      Index laneCount, Vector &y)
{
    batchedRows<false>(m, row0, row1, x, laneStride, firstLane, laneCount,
                       y, "batchedMatVecRowsInto");
}

void
batchedMatVecRowsAccumulate(const Matrix &m, Index row0, Index row1,
                            const Vector &x, Index laneStride,
                            Index firstLane, Index laneCount, Vector &y)
{
    batchedRows<true>(m, row0, row1, x, laneStride, firstLane, laneCount,
                      y, "batchedMatVecRowsAccumulate");
}

void
laneBroadcastAdd(const Vector &bias, Index laneStride, Index activeLanes,
                 Vector &y)
{
    HIMA_ASSERT(bias.size() * laneStride == y.size(),
                "laneBroadcastAdd: bias %zu * stride %zu != y %zu",
                bias.size(), laneStride, y.size());
    HIMA_ASSERT(activeLanes >= 1 && activeLanes <= laneStride,
                "laneBroadcastAdd: active lanes %zu outside [1, %zu]",
                activeLanes, laneStride);
    const Real *pb = bias.data();
    Real *py = y.data();
    for (Index r = 0, n = bias.size(); r < n; ++r) {
        const Real bv = pb[r];
        Real *yl = py + r * laneStride;
        for (Index b = 0; b < activeLanes; ++b)
            yl[b] += bv;
    }
}

void
laneBroadcastAdd(const Vector &bias, Index lanes, Vector &y)
{
    laneBroadcastAdd(bias, lanes, lanes, y);
}

void
laneGatherInto(const Vector &soa, Index lanes, Index lane, Index count,
               Vector &out)
{
    HIMA_ASSERT(lane < lanes, "laneGatherInto: lane %zu >= %zu", lane, lanes);
    HIMA_ASSERT(count * lanes <= soa.size(),
                "laneGatherInto: count %zu * lanes %zu > soa %zu",
                count, lanes, soa.size());
    out.resize(count);
    const Real *ps = soa.data() + lane;
    Real *po = out.data();
    for (Index k = 0; k < count; ++k)
        po[k] = ps[k * lanes];
}

void
laneScatterInto(const Vector &v, Index lanes, Index lane, Vector &soa,
                Index rowOffset)
{
    HIMA_ASSERT(lane < lanes, "laneScatterInto: lane %zu >= %zu", lane, lanes);
    HIMA_ASSERT((rowOffset + v.size()) * lanes <= soa.size(),
                "laneScatterInto: (%zu + %zu) * lanes %zu > soa %zu",
                rowOffset, v.size(), lanes, soa.size());
    const Real *pv = v.data();
    Real *ps = soa.data() + rowOffset * lanes + lane;
    for (Index k = 0, n = v.size(); k < n; ++k)
        ps[k * lanes] = pv[k];
}

void
laneAxpy(Real alpha, const Vector &x, Index lanes, Index lane, Vector &y)
{
    HIMA_ASSERT(lane < lanes, "laneAxpy: lane %zu >= %zu", lane, lanes);
    HIMA_ASSERT(x.size() * lanes <= y.size(),
                "laneAxpy: x %zu * lanes %zu > y %zu",
                x.size(), lanes, y.size());
    const Real *px = x.data();
    Real *py = y.data() + lane;
    for (Index k = 0, n = x.size(); k < n; ++k)
        py[k * lanes] += alpha * px[k];
}

Real
dotRow(const Matrix &m, Index r, const Vector &x)
{
    HIMA_ASSERT(m.cols() == x.size(), "dotRow: cols %zu != x %zu",
                m.cols(), x.size());
    const Real *row = m.rowPtr(r);
    const Real *px = x.data();
    Real acc = 0.0;
    for (Index c = 0, w = m.cols(); c < w; ++c)
        acc += row[c] * px[c];
    return acc;
}

Real
rowNorm(const Matrix &m, Index r)
{
    const Real *row = m.rowPtr(r);
    Real acc = 0.0;
    for (Index c = 0, w = m.cols(); c < w; ++c)
        acc += row[c] * row[c];
    return std::sqrt(acc);
}

Vector
add(const Vector &a, const Vector &b)
{
    Vector out;
    addInto(a, b, out);
    return out;
}

Vector
sub(const Vector &a, const Vector &b)
{
    Vector out;
    subInto(a, b, out);
    return out;
}

Vector
mul(const Vector &a, const Vector &b)
{
    Vector out;
    mulInto(a, b, out);
    return out;
}

Vector
scale(const Vector &a, Real s)
{
    Vector out = a;
    scaleInPlace(out, s);
    return out;
}

Real
dot(const Vector &a, const Vector &b)
{
    checkSameSize(a, b, "dot");
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real acc = 0.0;
    for (Index i = 0, n = a.size(); i < n; ++i)
        acc += pa[i] * pb[i];
    return acc;
}

Real
cosineSimilarity(const Vector &a, const Vector &b, Real eps)
{
    checkSameSize(a, b, "cosineSimilarity");
    return dot(a, b) / (a.norm() * b.norm() + eps);
}

Vector
matVec(const Matrix &m, const Vector &x)
{
    Vector y;
    matVecInto(m, x, y);
    return y;
}

Vector
matTVec(const Matrix &m, const Vector &x)
{
    Vector y;
    matTVecInto(m, x, y);
    return y;
}

Matrix
outer(const Vector &a, const Vector &b)
{
    Matrix m(a.size(), b.size());
    outerAccumulate(a, b, 1.0, m);
    return m;
}

Matrix
transpose(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "add");
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] + b.data()[i];
    return out;
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "sub");
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] - b.data()[i];
    return out;
}

Matrix
mul(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "mul");
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] * b.data()[i];
    return out;
}

Matrix
scale(const Matrix &a, Real s)
{
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] * s;
    return out;
}

Matrix
matMul(const Matrix &a, const Matrix &b)
{
    Matrix out;
    matMulInto(a, b, out);
    return out;
}

} // namespace hima
