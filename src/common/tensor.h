/**
 * @file
 * Dense vector/matrix types and the linear-algebra kernels the DNC memory
 * unit is built from.
 *
 * The types are intentionally simple — row-major, owning, bounds-checked in
 * the accessors — because every cycle- and energy-model in src/arch charges
 * cost from *operation counts*, and a transparent implementation keeps those
 * counts auditable. No external BLAS is used.
 */

#ifndef HIMA_COMMON_TENSOR_H
#define HIMA_COMMON_TENSOR_H

#include <cstddef>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace hima {

using Real = double;
using Index = std::size_t;

/**
 * Allocator that starts every buffer on a 64-byte cache line. malloc
 * alone guarantees 16 bytes, so which of a kernel's SIMD loads split a
 * line would depend on every allocation made before its buffers, and
 * an unrelated change (a field added to a struct) could move a kernel's
 * speed. Vector, Matrix and the linkage sweep's scratch use it.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlignment{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlignment));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, kAlignment);
    }

    template <typename U>
    bool
    operator==(const CacheLineAllocator<U> &) const
    {
        return true;
    }
};

/** Cache-line-aligned storage of Real (see CacheLineAllocator). */
using RealBuffer = std::vector<Real, CacheLineAllocator<Real>>;

/** A dense, owning, fixed-length vector of Real. */
class Vector
{
  public:
    Vector() = default;

    /** Construct a zero vector of the given length. */
    explicit Vector(Index n) : data_(n, 0.0) {}

    /** Construct a constant vector. */
    Vector(Index n, Real value) : data_(n, value) {}

    Vector(std::initializer_list<Real> init) : data_(init) {}

    Index size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    Real &
    operator[](Index i)
    {
        HIMA_ASSERT(i < data_.size(), "vector index %zu out of range %zu",
                    i, data_.size());
        return data_[i];
    }

    Real
    operator[](Index i) const
    {
        HIMA_ASSERT(i < data_.size(), "vector index %zu out of range %zu",
                    i, data_.size());
        return data_[i];
    }

    Real *data() { return data_.data(); }
    const Real *data() const { return data_.data(); }

    /**
     * Grow or shrink to n elements (new elements zeroed). Shrinking keeps
     * the capacity, so resize-to-previous-size never reallocates — the
     * destination-passing kernels rely on this for their no-steady-state-
     * allocation guarantee.
     */
    void resize(Index n) { data_.resize(n, 0.0); }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    /** Set every element to the given value. */
    void fill(Real value);

    /** Sum of all elements. */
    Real sum() const;

    /** Euclidean (L2) norm. */
    Real norm() const;

    /** Largest element; requires a non-empty vector. */
    Real max() const;

    /** Smallest element; requires a non-empty vector. */
    Real min() const;

    /** Index of the largest element; requires a non-empty vector. */
    Index argmax() const;

    bool operator==(const Vector &other) const = default;

  private:
    RealBuffer data_;
};

/** A dense, owning, row-major matrix of Real. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a zero matrix of the given shape. */
    Matrix(Index rows, Index cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {}

    /** Construct a constant matrix. */
    Matrix(Index rows, Index cols, Real value)
        : rows_(rows), cols_(cols), data_(rows * cols, value)
    {}

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index size() const { return data_.size(); }

    Real &
    operator()(Index r, Index c)
    {
        HIMA_ASSERT(r < rows_ && c < cols_,
                    "matrix index (%zu,%zu) out of range (%zu,%zu)",
                    r, c, rows_, cols_);
        return data_[r * cols_ + c];
    }

    Real
    operator()(Index r, Index c) const
    {
        HIMA_ASSERT(r < rows_ && c < cols_,
                    "matrix index (%zu,%zu) out of range (%zu,%zu)",
                    r, c, rows_, cols_);
        return data_[r * cols_ + c];
    }

    Real *data() { return data_.data(); }
    const Real *data() const { return data_.data(); }

    /** Pointer to the first element of row r (row-major contiguous). */
    Real *
    rowPtr(Index r)
    {
        HIMA_ASSERT(r < rows_, "row %zu out of range %zu", r, rows_);
        return data_.data() + r * cols_;
    }

    const Real *
    rowPtr(Index r) const
    {
        HIMA_ASSERT(r < rows_, "row %zu out of range %zu", r, rows_);
        return data_.data() + r * cols_;
    }

    /** Reshape to rows x cols (new elements zeroed; capacity retained). */
    void
    resize(Index rows, Index cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols, 0.0);
    }

    /** Set every element to the given value. */
    void fill(Real value);

    /** Copy row r out as a Vector. */
    Vector row(Index r) const;

    /** Overwrite row r from a Vector of matching length. */
    void setRow(Index r, const Vector &v);

    bool operator==(const Matrix &other) const = default;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    RealBuffer data_;
};

// ---------------------------------------------------------------------
// Destination-passing kernels
//
// The hot path of the simulator (MemoryUnit::step and the controller)
// runs entirely on these: the caller owns the output buffer, so a
// steady-state timestep performs zero heap allocations. Every `*Into`
// kernel resizes `out` to the result shape (a no-op when already sized)
// and overwrites it. Element-wise kernels allow `out` to alias an input;
// the mat-vec kernels require the output to be distinct from `x`.
// The value-returning API below is a thin wrapper over these.
// ---------------------------------------------------------------------

/** out = a + b (element-wise; out may alias a or b). */
void addInto(const Vector &a, const Vector &b, Vector &out);
/** out = a - b (element-wise; out may alias a or b). */
void subInto(const Vector &a, const Vector &b, Vector &out);
/** out = a .* b (element-wise; out may alias a or b). */
void mulInto(const Vector &a, const Vector &b, Vector &out);
/** a += b. */
void addInPlace(Vector &a, const Vector &b);
/** a *= s. */
void scaleInPlace(Vector &a, Real s);
/** y += alpha * x (BLAS axpy). */
void axpy(Real alpha, const Vector &x, Vector &y);
/**
 * y = M x; y must not alias x. Like every mat-vec entry point here it
 * runs on one register-tiled kernel (8 output rows per pass, see
 * batchedMatVecRowsInto) in which each row keeps its own c-ascending
 * chain: y[r] = ((0 + M(r,0) x[0]) + M(r,1) x[1]) + ..., multiply and
 * add rounded separately.
 */
void matVecInto(const Matrix &m, const Vector &x, Vector &y);
/**
 * y += M x; y must not alias x. The row sum is completed in its own
 * chain (as matVecInto) before the single += into y.
 */
void matVecAccumulate(const Matrix &m, const Vector &x, Vector &y);
/** y = M^T x; y must not alias x. */
void matTVecInto(const Matrix &m, const Vector &x, Vector &y);
/**
 * Calls fn(std::integral_constant<Index, G>{}, first) for consecutive
 * groups [first, first + G) covering [0, count): groups of 8 while
 * they fit, then at most one each of 4, 2 and 1. Lets a kernel
 * specialized for a compile-time vector count serve any count.
 */
template <typename Fn>
inline void
forEachPow2Group(Index count, Fn &&fn)
{
    Index g = 0;
    for (; g + 8 <= count; g += 8)
        fn(std::integral_constant<Index, 8>{}, g);
    if (g + 4 <= count) {
        fn(std::integral_constant<Index, 4>{}, g);
        g += 4;
    }
    if (g + 2 <= count) {
        fn(std::integral_constant<Index, 2>{}, g);
        g += 2;
    }
    if (g < count)
        fn(std::integral_constant<Index, 1>{}, g);
}

/**
 * ys[h] = M^T xs[h] for every h < count, one pass over M per
 * forEachPow2Group group (so one pass for 1, 2, 4 or 8 vectors),
 * skipping rows whose `rowGate` entry is at or below 0; returns the
 * number of rows skipped (per pass, not per vector). Every output word keeps
 * matTVecInto's chain: rows ascending from +0.0, multiply and add
 * rounded separately. With `rowGate` the cached L2 row norms and every
 * x nonnegative this is bit-identical to `count` matTVecInto calls: a
 * gated-out row is all-zero, each of its terms is +0.0, and adding +0.0
 * never changes an accumulator's bits. The columns are walked in
 * register blocks, one chain per (vector, column), so each block of M
 * is read once for all vectors of a group. ys[h] must not alias xs[h'].
 */
Index matTVecSparseMultiInto(const Matrix &m, const Vector *xs, Index count,
                             const Vector &rowGate, Vector *ys);
/** m += s * a b^T; m must already have shape rows(a) x rows(b). */
void outerAccumulate(const Vector &a, const Vector &b, Real s, Matrix &m);
/** out = A B; out must not alias A or B. */
void matMulInto(const Matrix &a, const Matrix &b, Matrix &out);

// ---------------------------------------------------------------------
// Batched (struct-of-arrays) kernels
//
// The serving engine (src/serve) runs B independent DNC lanes with
// lane-interleaved activations: element k of lane b lives at
// buf[k * laneStride + b], so one sweep over k touches all lanes per
// row block and a shared weight row is streamed once for the whole
// batch. Per-lane numerics are bit-identical to the single-lane kernels
// above: every lane keeps its own k-ascending accumulator chain, exactly
// as matVecInto() does — batching changes operand reuse, never the math.
//
// Every batched sweep takes the lane count in two parts: `laneStride`
// (the buffer's column capacity — column b of row k is at
// buf[k * laneStride + b]) and `activeLanes` (how many leading columns
// actually hold live lanes). The serving engine keeps its active lanes
// compacted into the leading columns, so a partially occupied batch
// sweeps only `activeLanes` columns — no flop is spent on padding. The
// (m, x, lanes, y) convenience forms below are the fully-occupied case
// (activeLanes == laneStride); the row-range forms take a first lane as
// well, for engines that step one column range of the prefix at a time.
//
// All mat-vecs, single-lane and batched, share one kernel: each pass
// computes 8 output rows x up to kBatchLaneChunk lanes, every
// (row, lane) chain in its own register. With AVX2 a lane chunk is one
// 256-bit vector (a masked load/store covers a 1-3 lane tail, so
// nothing past activeLanes is touched); a lone active lane, and every
// lane of a build without AVX2, runs eight scalar chains at any stride.
//
// laneBroadcastAdd/laneAxpy have no engine callers yet
// (BatchedController fuses its bias adds); they complete the kernel API
// for batched heads with biases and are pinned by the same per-lane
// unit tests.
// ---------------------------------------------------------------------

/**
 * Lanes per register chunk of the batched mat-vec kernel: four doubles
 * fill one AVX2 vector. The bit-exactness tests pick batch sizes that
 * cross this boundary with a partial tail chunk.
 */
inline constexpr Index kBatchLaneChunk = 4;

/**
 * Batched y = M x over lane-interleaved operands:
 *   y[r * laneStride + b] = sum_c M(r, c) * x[c * laneStride + b]
 * for every active lane b in [0, activeLanes). x must hold
 * cols(M) * laneStride values; y is resized to rows(M) * laneStride and
 * the active columns overwritten (inactive columns are untouched); y
 * must not alias x. Each lane's accumulation runs c-ascending,
 * bit-identical to matVecInto per lane.
 */
void batchedMatVecInto(const Matrix &m, const Vector &x, Index laneStride,
                       Index activeLanes, Vector &y);

/** Fully-occupied convenience form: activeLanes == laneStride. */
void batchedMatVecInto(const Matrix &m, const Vector &x, Index lanes,
                       Vector &y);

/**
 * Batched y += M x over the active columns (lane-interleaved, shapes as
 * batchedMatVecInto, y pre-sized to rows(M) * laneStride). Matches
 * matVecAccumulate per lane bit-for-bit: the row sum is completed in a
 * private accumulator before the single += into y.
 */
void batchedMatVecAccumulate(const Matrix &m, const Vector &x,
                             Index laneStride, Index activeLanes, Vector &y);

/** Fully-occupied convenience form: activeLanes == laneStride. */
void batchedMatVecAccumulate(const Matrix &m, const Vector &x, Index lanes,
                             Vector &y);

/**
 * Row- and lane-range batched y = M x: batchedMatVecInto restricted to
 * output rows [row0, row1) and lanes [firstLane, firstLane + laneCount).
 * y must already hold rows(M) * laneStride values; rows and lanes
 * outside the ranges are untouched. Pool tasks that own disjoint row
 * blocks of one product, and engines that step one column range of
 * their lanes while another range is elsewhere, call this. The lane
 * range only offsets the kernel's base pointers, so each lane's chain
 * is the one it gets at any other offset.
 */
void batchedMatVecRowsInto(const Matrix &m, Index row0, Index row1,
                           const Vector &x, Index laneStride,
                           Index firstLane, Index laneCount, Vector &y);

/** Ranged batched y += M x (batchedMatVecAccumulate on the ranges). */
void batchedMatVecRowsAccumulate(const Matrix &m, Index row0, Index row1,
                                 const Vector &x, Index laneStride,
                                 Index firstLane, Index laneCount,
                                 Vector &y);

/**
 * Broadcast-add a per-row bias across the active lanes:
 *   y[r * laneStride + b] += bias[r], b in [0, activeLanes).
 * Equivalent to addInPlace(y_b, bias) on every active lane.
 */
void laneBroadcastAdd(const Vector &bias, Index laneStride,
                      Index activeLanes, Vector &y);

/** Fully-occupied convenience form: activeLanes == laneStride. */
void laneBroadcastAdd(const Vector &bias, Index lanes, Vector &y);

/**
 * Gather one lane out of a lane-interleaved buffer:
 *   out[k] = soa[k * lanes + lane], k in [0, count).
 * out is resized to count.
 */
void laneGatherInto(const Vector &soa, Index lanes, Index lane, Index count,
                    Vector &out);

/**
 * Scatter a contiguous per-lane vector into a lane-interleaved buffer:
 *   soa[(rowOffset + k) * lanes + lane] = v[k].
 * soa must already hold (rowOffset + v.size()) * lanes values; rowOffset
 * places the vector at a row offset inside a larger SoA tile (e.g. read
 * head h at offset h * W of the concatenated-reads buffer).
 */
void laneScatterInto(const Vector &v, Index lanes, Index lane, Vector &soa,
                     Index rowOffset = 0);

/**
 * Lane-strided axpy: y_lane += alpha * x over a lane-interleaved y:
 *   y[k * lanes + lane] += alpha * x[k].
 * Bit-identical to axpy(alpha, x, y_lane) on the gathered lane.
 */
void laneAxpy(Real alpha, const Vector &x, Index lanes, Index lane,
              Vector &y);

/** Inner product of row r of m with x, without materializing the row. */
Real dotRow(const Matrix &m, Index r, const Vector &x);

/** Euclidean norm of row r of m, without materializing the row. */
Real rowNorm(const Matrix &m, Index r);

/**
 * Preallocated scratch vectors for the allocation-free memory-unit hot
 * path. One Workspace per MemoryUnit, sized once from the DncConfig
 * shapes (memoryRows x memoryWidth, R read heads). Every buffer is
 * overwritten each timestep; only the read lookup's dots and key norms
 * are read again after the step (the DNC-D confidence), until the next
 * step overwrites them.
 */
struct Workspace
{
    Workspace() = default;
    Workspace(Index rows, Index width, Index heads = 1)
    {
        resize(rows, width, heads);
    }

    /** (Re)size every scratch buffer for an N x W memory with R heads. */
    void
    resize(Index rows, Index width, Index heads = 1)
    {
        scores.resize(rows);
        contentW.resize(rows);
        retention.resize(rows);
        allocW.resize(rows);
        forwardW.resize(heads);
        backwardW.resize(heads);
        for (Index h = 0; h < heads; ++h) {
            forwardW[h].resize(rows);
            backwardW[h].resize(rows);
        }
        keys.resize(width * heads);
        dots.resize(rows * heads);
        keyNorms.resize(heads);
    }

    Vector scores;       ///< similarity scores (length N)
    Vector contentW;     ///< content weighting (length N)
    Vector retention;    ///< retention vector psi (length N)
    Vector allocW;       ///< allocation weighting (length N)
    std::vector<Vector> forwardW;  ///< per-head forward weightings (R x N)
    std::vector<Vector> backwardW; ///< per-head backward weightings (R x N)
    Vector keys;     ///< head-interleaved read keys (W x R)
    Vector dots;     ///< head-interleaved raw row-key dots (N x R)
    Vector keyNorms; ///< read key L2 norms (length R)
};

// ---------------------------------------------------------------------
// Vector kernels
// ---------------------------------------------------------------------

/** Element-wise a + b. */
Vector add(const Vector &a, const Vector &b);
/** Element-wise a - b. */
Vector sub(const Vector &a, const Vector &b);
/** Element-wise (Hadamard) a * b. */
Vector mul(const Vector &a, const Vector &b);
/** Scale every element of a by s. */
Vector scale(const Vector &a, Real s);
/** Inner (dot) product. */
Real dot(const Vector &a, const Vector &b);

/**
 * Cosine similarity between a and b with an epsilon guard against
 * zero-norm operands, matching the DNC paper's content addressing.
 */
Real cosineSimilarity(const Vector &a, const Vector &b, Real eps = 1e-6);

// ---------------------------------------------------------------------
// Matrix kernels
// ---------------------------------------------------------------------

/** y = M x  (rows(M) must equal x for transpose=false path sizes). */
Vector matVec(const Matrix &m, const Vector &x);

/** y = M^T x. */
Vector matTVec(const Matrix &m, const Vector &x);

/** Outer product a b^T as a rows(a) x rows(b) matrix. */
Matrix outer(const Vector &a, const Vector &b);

/** Explicit transpose (the hardware transpose primitive). */
Matrix transpose(const Matrix &m);

/** Element-wise a + b. */
Matrix add(const Matrix &a, const Matrix &b);
/** Element-wise a - b. */
Matrix sub(const Matrix &a, const Matrix &b);
/** Element-wise (Hadamard) a * b. */
Matrix mul(const Matrix &a, const Matrix &b);
/** Scale every element. */
Matrix scale(const Matrix &a, Real s);

/** Matrix-matrix product. */
Matrix matMul(const Matrix &a, const Matrix &b);

} // namespace hima

#endif // HIMA_COMMON_TENSOR_H
