/**
 * @file
 * Content-based addressing (CW.(1)-(2) / CR.(1)-(2) in Fig. 2): normalize
 * the memory rows and the key, take row-key cosine similarities, sharpen
 * by the strength and softmax into a weighting over slots.
 */

#ifndef HIMA_DNC_CONTENT_ADDRESSING_H
#define HIMA_DNC_CONTENT_ADDRESSING_H

#include <algorithm>
#include <memory>

#include "approx/softmax_approx.h"
#include "dnc/kernel_profiler.h"

namespace hima {

/** The cosine guard of every content score: dot / (|row||key| + eps). */
inline constexpr Real kCosineEps = 1e-6;

/**
 * The DNC-D tile confidence chain: the best row cosine
 * dotOf(i) / (rowNorms[i] * keyNorm + eps) over i ascending, with a
 * zero-norm row folded in as a literal +0.0 (its dot is never asked
 * for). MemoryUnit::readConfidence feeds it the dots its read lookup
 * kept; the tests' scan reference feeds it fresh dots, so the two
 * agree bit for bit whenever the dots do.
 */
template <typename DotOf>
Real
bestCosine(const Real *rowNorms, Index n, Real keyNorm, DotOf dotOf)
{
    Real best = -1.0;
    for (Index i = 0; i < n; ++i) {
        if (rowNorms[i] <= 0.0) {
            best = std::max(best, 0.0);
            continue;
        }
        best = std::max(best,
                        dotOf(i) / (rowNorms[i] * keyNorm + kCosineEps));
    }
    return best;
}

/**
 * Content-addressing engine. Owns an optional approximate-softmax unit so
 * that one construction decision (exact vs PLA+LUT) applies to every
 * lookup, the way a synthesized SFU choice would.
 *
 * Every lookup, the write key's and all R read keys', runs one body:
 * Normalize (the key norms, and the row norms unless cached), one
 * head-interleaved scoring pass over the memory for every group of 8,
 * 4, 2 or 1 keys (forEachPow2Group; row i's dot with key h is one
 * c-ascending chain in SIMD lane h, several rows in flight), then per
 * head the sharpened cosine
 * strength * dot / (|row| |key| + eps) and the softmax (exact or PLA),
 * all timed as Similarity.
 */
class ContentAddressing
{
  public:
    /**
     * @param approximate use the PLA+LUT softmax (Sec. 5.2)
     * @param segments    PLA segment count when approximate
     */
    explicit ContentAddressing(bool approximate = false, int segments = 8);

    /**
     * C(M, k, beta): weighting over the N rows of memory.
     *
     * Charges Normalize and Similarity kernel counts to the profiler when
     * one is supplied.
     *
     * @param memory   N x W external memory
     * @param key      width-W lookup key
     * @param strength sharpness beta >= 1
     * @param profiler optional instrumentation sink
     */
    Vector weighting(const Matrix &memory, const Vector &key, Real strength,
                     KernelProfiler *profiler = nullptr) const;

    /**
     * Destination-passing variant of weighting() (the one-key case of
     * weightingsInto()): the caller owns every buffer, so a steady-state
     * call performs no heap allocation.
     *
     * When `cachedRowNorms` is non-null it must hold the L2 norm of each
     * memory row (the MemoryUnit maintains this cache across writes) and
     * the O(N*W) norm recompute is skipped; additionally the similarity
     * scan skips rows whose cached norm is 0, scoring them 0 without the
     * O(W) dot. Such a row is all-zero, and its score is exactly what
     * the dense scan computes (an all-zero row's dot is +0.0 and
     * +0.0/eps sharpens to +0.0), so the result is bit-identical; the
     * softmax still runs over all N rows. Profiler
     * charges still reflect the full hardware Normalize/Similarity cost
     * (software savings land in skippedRows/skippedOps) — the cache is
     * a simulator-speed optimization, not a change to the modeled
     * architecture. With a null cache the norms are recomputed and every
     * row is scored, exactly as the reference path does.
     *
     * @param cachedRowNorms length-N row-norm cache, or nullptr
     * @param scores         length-N scratch (overwritten)
     * @param out            result weighting (resized and overwritten)
     */
    void weightingInto(const Matrix &memory, const Vector &key,
                       Real strength, const Vector *cachedRowNorms,
                       Vector &scores, Vector &out,
                       KernelProfiler *profiler = nullptr) const;

    /**
     * `heads` lookups against one memory in one scoring pass per key
     * group (one pass for 1, 2, 4 or 8 heads), through the row-norm
     * cache (zero-norm rows skipped as in weightingInto()). Each head's
     * weighting is bit-identical to its own weightingInto() call; the
     * profiler is charged per head (invocations += heads).
     * The raw dots and key norms stay in `ws` for the DNC-D confidence
     * (bestCosine): ws.dots[i * heads + h] is row i's dot with key h
     * (+0.0 for a skipped row), ws.keyNorms[h] key h's norm.
     *
     * @param keys      `heads` width-W keys
     * @param strengths `heads` sharpness values
     * @param rowNorms  length-N row-norm cache
     * @param ws        scratch sized for at least `heads` heads
     * @param outs      `heads` result weightings (resized, overwritten)
     */
    void weightingsInto(const Matrix &memory, const Vector *keys,
                        const Real *strengths, Index heads,
                        const Vector &rowNorms, Workspace &ws, Vector *outs,
                        KernelProfiler *profiler = nullptr) const;

    bool approximate() const { return approx_ != nullptr; }

  private:
    /**
     * The one lookup body. The keys of each group of more than one are
     * interleaved into keyScratch (W x heads in all); `dots` receives
     * N x heads raw dots and may alias `scores` when heads == 1. A null
     * cachedRowNorms recomputes the norms into outs[0] (heads == 1 only)
     * and skips no row.
     */
    void lookup(const Matrix &memory, const Vector *keys,
                const Real *strengths, Index heads,
                const Vector *cachedRowNorms, Real *keyScratch, Real *dots,
                Real *keyNorms, Vector &scores, Vector *outs,
                KernelProfiler *profiler) const;

    std::unique_ptr<SoftmaxApprox> approx_;
};

} // namespace hima

#endif // HIMA_DNC_CONTENT_ADDRESSING_H
