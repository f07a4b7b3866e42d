/**
 * @file
 * Content-based addressing (CW.(1)-(2) / CR.(1)-(2) in Fig. 2): normalize
 * the memory rows and the key, take row-key cosine similarities, sharpen
 * by the strength and softmax into a weighting over slots.
 */

#ifndef HIMA_DNC_CONTENT_ADDRESSING_H
#define HIMA_DNC_CONTENT_ADDRESSING_H

#include <memory>

#include "approx/softmax_approx.h"
#include "dnc/kernel_profiler.h"

namespace hima {

/**
 * Content-addressing engine. Owns an optional approximate-softmax unit so
 * that one construction decision (exact vs PLA+LUT) applies to every
 * lookup, the way a synthesized SFU choice would.
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
     * Destination-passing variant of weighting(): the caller owns every
     * buffer, so a steady-state call performs no heap allocation.
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

    bool approximate() const { return approx_ != nullptr; }

  private:
    std::unique_ptr<SoftmaxApprox> approx_;
};

} // namespace hima

#endif // HIMA_DNC_CONTENT_ADDRESSING_H
