#include "dnc/content_addressing.h"

#include <cmath>
#include <optional>

#include "common/math_util.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace hima {

namespace {

/**
 * Raw dots of rows [beg, end) with R head-interleaved keys
 * (keyInt[c * R + h]): dots[i * ld + h] = sum over c ascending of
 * row_i[c] * key_h[c], each (row, head) its own chain from +0.0,
 * multiply and add rounded separately. Four rows are in flight at once
 * so 4R independent chains overlap in the FPU pipeline; run alignment
 * does not affect bits, so the caller may split the rows into any runs.
 */
template <Index R>
inline void
dotRun(const Matrix &memory, const Real *keyInt, Index ld, Index beg,
       Index end, Real *dots)
{
    const Index w = memory.cols();
    Index i = beg;
    for (; i + 4 <= end; i += 4) {
        const Real *r0 = memory.rowPtr(i + 0);
        const Real *r1 = memory.rowPtr(i + 1);
        const Real *r2 = memory.rowPtr(i + 2);
        const Real *r3 = memory.rowPtr(i + 3);
        Real a0[R] = {}, a1[R] = {}, a2[R] = {}, a3[R] = {};
        for (Index c = 0; c < w; ++c) {
            const Real *kc = keyInt + c * R;
            const Real v0 = r0[c], v1 = r1[c], v2 = r2[c], v3 = r3[c];
            for (Index h = 0; h < R; ++h) {
                a0[h] += v0 * kc[h];
                a1[h] += v1 * kc[h];
                a2[h] += v2 * kc[h];
                a3[h] += v3 * kc[h];
            }
        }
        Real *d = dots + i * ld;
        for (Index h = 0; h < R; ++h) {
            d[h] = a0[h];
            d[ld + h] = a1[h];
            d[2 * ld + h] = a2[h];
            d[3 * ld + h] = a3[h];
        }
    }
    for (; i < end; ++i) {
        const Real *row = memory.rowPtr(i);
        Real acc[R] = {};
        for (Index c = 0; c < w; ++c)
            for (Index h = 0; h < R; ++h)
                acc[h] += row[c] * keyInt[c * R + h];
        for (Index h = 0; h < R; ++h)
            dots[i * ld + h] = acc[h];
    }
}

#if defined(__AVX2__)
/**
 * Four heads: lane h of one __m256d is head h's chain, so four rows are
 * four registers and each column costs one key load and four
 * broadcasts. Explicit mul-then-add (no FMA) keeps every lane
 * bit-identical to the scalar chain.
 */
template <>
inline void
dotRun<4>(const Matrix &memory, const Real *keyInt, Index ld, Index beg,
          Index end, Real *dots)
{
    const Index w = memory.cols();
    Index i = beg;
    for (; i + 4 <= end; i += 4) {
        const Real *r0 = memory.rowPtr(i + 0);
        const Real *r1 = memory.rowPtr(i + 1);
        const Real *r2 = memory.rowPtr(i + 2);
        const Real *r3 = memory.rowPtr(i + 3);
        __m256d a0 = _mm256_setzero_pd();
        __m256d a1 = _mm256_setzero_pd();
        __m256d a2 = _mm256_setzero_pd();
        __m256d a3 = _mm256_setzero_pd();
        for (Index c = 0; c < w; ++c) {
            const __m256d kc = _mm256_loadu_pd(keyInt + 4 * c);
            a0 = _mm256_add_pd(a0,
                               _mm256_mul_pd(_mm256_broadcast_sd(r0 + c), kc));
            a1 = _mm256_add_pd(a1,
                               _mm256_mul_pd(_mm256_broadcast_sd(r1 + c), kc));
            a2 = _mm256_add_pd(a2,
                               _mm256_mul_pd(_mm256_broadcast_sd(r2 + c), kc));
            a3 = _mm256_add_pd(a3,
                               _mm256_mul_pd(_mm256_broadcast_sd(r3 + c), kc));
        }
        _mm256_storeu_pd(dots + i * ld, a0);
        _mm256_storeu_pd(dots + (i + 1) * ld, a1);
        _mm256_storeu_pd(dots + (i + 2) * ld, a2);
        _mm256_storeu_pd(dots + (i + 3) * ld, a3);
    }
    for (; i < end; ++i) {
        const Real *row = memory.rowPtr(i);
        __m256d acc = _mm256_setzero_pd();
        for (Index c = 0; c < w; ++c)
            acc = _mm256_add_pd(
                acc, _mm256_mul_pd(_mm256_broadcast_sd(row + c),
                                   _mm256_loadu_pd(keyInt + 4 * c)));
        _mm256_storeu_pd(dots + i * ld, acc);
    }
}
#endif

/**
 * The scoring pass for keys [g0, g0 + R) of `heads`: interleave them
 * into keyScratch + g0 * W (one key needs no copy), then write their
 * dots dots[i * heads + g0 + h] for every row, or with `skipZeroRows`
 * only for the runs of rows whose norm is nonzero, a skipped row's dots
 * set to +0.0 (what its dense dots are). Returns the number of rows
 * skipped.
 */
template <Index R>
Index
dotPass(const Matrix &memory, const Vector *keys, Index g0, Index heads,
        const Real *rowNorms, bool skipZeroRows, Real *keyScratch,
        Real *dots)
{
    const Index n = memory.rows();
    const Index w = memory.cols();
    const Real *keyInt = keys[g0].data();
    if constexpr (R > 1) {
        keyInt = keyScratch + g0 * w;
        for (Index h = 0; h < R; ++h)
            for (Index c = 0; c < w; ++c)
                keyScratch[g0 * w + c * R + h] = keys[g0 + h][c];
    }
    dots += g0;
    if (!skipZeroRows) {
        dotRun<R>(memory, keyInt, heads, 0, n, dots);
        return 0;
    }
    Index skipped = 0;
    Index i = 0;
    while (i < n) {
        if (rowNorms[i] <= 0.0) {
            for (Index h = 0; h < R; ++h)
                dots[i * heads + h] = 0.0;
            ++skipped;
            ++i;
            continue;
        }
        Index runEnd = i + 1;
        while (runEnd < n && rowNorms[runEnd] > 0.0)
            ++runEnd;
        dotRun<R>(memory, keyInt, heads, i, runEnd, dots);
        i = runEnd;
    }
    return skipped;
}

} // namespace

ContentAddressing::ContentAddressing(bool approximate, int segments)
{
    if (approximate)
        approx_ = std::make_unique<SoftmaxApprox>(segments);
}

Vector
ContentAddressing::weighting(const Matrix &memory, const Vector &key,
                             Real strength, KernelProfiler *profiler) const
{
    Vector scores;
    Vector out;
    weightingInto(memory, key, strength, nullptr, scores, out, profiler);
    return out;
}

void
ContentAddressing::weightingInto(const Matrix &memory, const Vector &key,
                                 Real strength,
                                 const Vector *cachedRowNorms,
                                 Vector &scores, Vector &out,
                                 KernelProfiler *profiler) const
{
    // One key needs no interleave, and its dots can be scored in place.
    scores.resize(memory.rows());
    Real keyNorm = 0.0;
    lookup(memory, &key, &strength, 1, cachedRowNorms, nullptr,
           scores.data(), &keyNorm, scores, &out, profiler);
}

void
ContentAddressing::weightingsInto(const Matrix &memory, const Vector *keys,
                                  const Real *strengths, Index heads,
                                  const Vector &rowNorms, Workspace &ws,
                                  Vector *outs,
                                  KernelProfiler *profiler) const
{
    HIMA_ASSERT(ws.keys.size() >= memory.cols() * heads &&
                    ws.dots.size() >= memory.rows() * heads &&
                    ws.keyNorms.size() >= heads,
                "lookup scratch too small for %zu heads", heads);
    lookup(memory, keys, strengths, heads, &rowNorms, ws.keys.data(),
           ws.dots.data(), ws.keyNorms.data(), ws.scores, outs, profiler);
}

void
ContentAddressing::lookup(const Matrix &memory, const Vector *keys,
                          const Real *strengths, Index heads,
                          const Vector *cachedRowNorms, Real *keyScratch,
                          Real *dots, Real *keyNorms, Vector &scores,
                          Vector *outs, KernelProfiler *profiler) const
{
    const Index n = memory.rows();
    const Index w = memory.cols();
    for (Index h = 0; h < heads; ++h) {
        HIMA_ASSERT(keys[h].size() == w, "key width %zu != memory width %zu",
                    keys[h].size(), w);
        outs[h].resize(n);
    }
    HIMA_ASSERT(cachedRowNorms || heads == 1,
                "a multi-key lookup needs the row-norm cache");
    HIMA_ASSERT(scores.size() == n, "score scratch %zu != rows %zu",
                scores.size(), n);
    const std::uint64_t lookups = heads;

    // CW/CR.(1) Normalize: row norms and the key norms. With a cache the
    // row norms are already maintained by the memory write; the hardware
    // cost model is charged identically either way (the accelerator
    // normalizes every row each lookup — only the simulator skips work).
    const Real *rowNorms = nullptr;
    {
        std::optional<KernelScope> scope;
        if (profiler)
            scope.emplace(*profiler, Kernel::Normalize, lookups);
        if (cachedRowNorms) {
            HIMA_ASSERT(cachedRowNorms->size() == n,
                        "row-norm cache length %zu != rows %zu",
                        cachedRowNorms->size(), n);
            rowNorms = cachedRowNorms->data();
        } else {
            // No cache: compute the norms into outs[0], which is free as
            // scratch until the softmax at the end overwrites it.
            Real *fresh = outs[0].data();
            for (Index i = 0; i < n; ++i) {
                const Real *row = memory.rowPtr(i);
                Real acc = 0.0;
                for (Index c = 0; c < w; ++c)
                    acc += row[c] * row[c];
                fresh[i] = std::sqrt(acc);
            }
            rowNorms = fresh;
        }
        for (Index h = 0; h < heads; ++h)
            keyNorms[h] = keys[h].norm();
        if (profiler) {
            auto &c = profiler->at(Kernel::Normalize);
            c.macOps += lookups * (n * w + w); // squared accumulations
            c.specialOps += lookups * (n + 1); // square roots
            c.extMemAccesses += lookups * n * w; // every memory word read
            c.stateMemAccesses += lookups * w;   // the key
        }
    }

    // CW/CR.(2) Similarity: the dots of every key, then per head the
    // sharpened cosines and their softmax. A row whose cached
    // norm is 0 is scored +0.0 without the dot. That is exactly the
    // dense result — the row is all-zero, its dot accumulates ±0.0
    // terms to +0.0, and sharpening keeps the sign:
    // strength * +0.0 / eps == +0.0.
    {
        std::optional<KernelScope> scope;
        if (profiler)
            scope.emplace(*profiler, Kernel::Similarity, lookups);
        // One pass per forEachPow2Group group of keys (one pass for 1,
        // 2, 4 or 8 heads); every (row, head) chain is its own, so the
        // grouping changes no bit.
        const bool skip = cachedRowNorms != nullptr;
        Index skipped = 0;
        forEachPow2Group(heads, [&](auto group, Index g) {
            skipped = dotPass<decltype(group)::value>(
                memory, keys, g, heads, rowNorms, skip, keyScratch, dots);
        });

        Real *ps = scores.data();
        for (Index h = 0; h < heads; ++h) {
            const Real strength = strengths[h];
            const Real keyNorm = keyNorms[h];
            const Real *d = dots + h;
            for (Index i = 0; i < n; ++i) {
                ps[i] = skip && rowNorms[i] <= 0.0
                            ? 0.0
                            : strength * d[i * heads] /
                                  (rowNorms[i] * keyNorm + kCosineEps);
            }
            if (approx_)
                approx_->evalInto(scores, outs[h]);
            else
                softmaxInto(scores, outs[h]);
        }
        if (profiler) {
            auto &c = profiler->at(Kernel::Similarity);
            c.macOps += lookups * n * w;
            c.specialOps += lookups * n;    // divides
            c.extMemAccesses += lookups * n * w;
            c.stateMemAccesses += lookups * w;
            c.skippedRows += lookups * skipped;
            c.skippedOps += lookups * skipped * w;
            c.specialOps += lookups * n;    // exponentials (exact or PLA)
            c.elementOps += lookups * n;    // normalization divides
        }
    }
}

} // namespace hima
