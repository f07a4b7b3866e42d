/**
 * @file
 * Temporal linkage (HR.(1)-(3) in Fig. 2): the N x N linkage matrix that
 * records the order in which slots were written, the precedence vector
 * feeding it, and the forward/backward read weightings derived from it.
 *
 * This is the state memory that dominates HiMA's on-tile storage (262 KB
 * of 2.07 mm^2 PT memory in Fig. 11(e)) and the kernel with the worst NoC
 * footprint (O(Nt * N^2), Table 1).
 */

#ifndef HIMA_DNC_TEMPORAL_LINKAGE_H
#define HIMA_DNC_TEMPORAL_LINKAGE_H

#include <cstdint>
#include <vector>

#include "dnc/kernel_profiler.h"
#include "common/tensor.h"

namespace hima {

/**
 * Linkage matrix + precedence vector with their update rules.
 *
 * The kernels exploit the matrix's structural sparsity: row and column
 * i of L are exactly zero until slot i has ever received write mass,
 * and the row's total mass is tracked in a per-row cache (`rowMass()`,
 * the sum of absolute entries in one canonical lane order, refreshed in
 * the same pass that writes the row). A row is *active* — swept by the
 * update and read kernels — only while its cached mass, or its current
 * write weight, is nonzero; inactive rows are exactly zero, are left
 * untouched and contribute nothing to the forward/backward weightings,
 * so every kernel costs O(A*N) instead of O(N^2), with A = active rows.
 *
 * The sweeps are additionally *column*-sparse: the class tracks the
 * monotone set of slots ever written since the last reset (`touched`
 * slots — w[j] was nonzero at some step). An untouched slot
 * j has p[j] == +0.0 and L[i][j] == +0.0 for every i (the update only
 * ever adds w[i]*p[j] into column j), so the linkage update, the mass
 * refresh, the forward dots and the backward accumulations all iterate
 * the touched columns only, making the fused sweep O(A * T) with T =
 * touched slots instead of O(A * N).
 *
 * At large N the fused sweep is bound by streaming L through the
 * memory hierarchy, so it prefetches the next row block while the
 * current one's read stage computes from cache (see updateAndRead()).
 *
 * Only exactly-zero rows and columns are skipped, so every kernel is
 * bit-identical to the dense sweep: a skipped row or column would have
 * computed to all zeros and contributed +0.0 everywhere. Both sets are
 * rebuilt on restore from (L, p) alone — row activity from the row
 * masses, the touched set as the columns of L holding a nonzero entry
 * plus the slots of nonzero precedence (see restoreState()).
 */
class TemporalLinkage
{
  public:
    /** Construct zeroed state for an N-slot memory. */
    explicit TemporalLinkage(Index slots);

    /**
     * HR.(1) Linkage update:
     *   L <- {(E - w 1^T - 1 w^T) .* L + w p^T} .* (E - I)
     * with w the current write weighting and p the *previous* precedence.
     * Must run before updatePrecedence() each timestep.
     */
    void updateLinkage(const Vector &writeWeighting,
                       KernelProfiler *profiler = nullptr);

    /**
     * HR.(2) Precedence update: p <- (1 - sum(w)) p + w.
     */
    void updatePrecedence(const Vector &writeWeighting,
                          KernelProfiler *profiler = nullptr);

    /** HR.(3) Forward weighting f = L w_prev. */
    Vector forwardWeighting(const Vector &prevReadWeighting,
                            KernelProfiler *profiler = nullptr) const;

    /** HR.(3) Backward weighting b = L^T w_prev. */
    Vector backwardWeighting(const Vector &prevReadWeighting,
                             KernelProfiler *profiler = nullptr) const;

    /** Destination-passing forward weighting (f resized + overwritten). */
    void forwardWeightingInto(const Vector &prevReadWeighting, Vector &f,
                              KernelProfiler *profiler = nullptr) const;

    /** Destination-passing backward weighting (b resized + overwritten). */
    void backwardWeightingInto(const Vector &prevReadWeighting, Vector &b,
                               KernelProfiler *profiler = nullptr) const;

    /**
     * Fused update + read sweep: updateLinkage(writeWeighting) followed
     * by forward[h] = L w_prev[h] and backward[h] = L^T w_prev[h] for
     * every head, all in one blocked traversal of L.
     *
     * Bit-identical to the separate kernels — every per-element
     * accumulation runs in the same order — but the N x N linkage
     * matrix moves through DRAM once per step instead of once per
     * kernel invocation (2 + 2R passes), which is what the O(N^2)
     * kernels are bound by at large N. That one pass is also
     * overlapped with compute: while a block's read stage runs from
     * cache, the rows of the next active block are prefetched (one
     * 64-byte line every second column, full-column path only, never
     * past the matrix), so the next update finds them near the core.
     * Profiler op counts and invocation counts match the separate
     * calls; wall-clock time is split between the Linkage and
     * ForwardBackward scopes at block granularity — the read stage
     * absorbs the prefetch it issues, so judge a change to the overlap
     * by the sum of the two scopes.
     *
     * Does not touch the precedence vector: call updatePrecedence()
     * afterwards, exactly as with the separate kernels.
     */
    void updateAndRead(const Vector &writeWeighting,
                       const std::vector<Vector> &prevReadWeightings,
                       std::vector<Vector> &forward,
                       std::vector<Vector> &backward,
                       KernelProfiler *profiler = nullptr);

    const Matrix &linkage() const { return linkage_; }
    const Vector &precedence() const { return precedence_; }
    Index slots() const { return slots_; }

    /**
     * Per-row mass cache: rowMass()[i] == sum_j |L[i][j]|, refreshed in
     * the same pass that last wrote row i. The summation order is fixed:
     * eight partial sums, lane j & 7 accumulating |L[i][j]| in ascending
     * j, combined as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)). Every refresh
     * (dense or column-sparse sweep, updateLinkage) and restoreState()'s
     * rebuild use that order, so the cache is bit-identical to a fresh
     * recompute in it — which is what keeps a restored run's skips equal
     * to an undisturbed one's. Rows skipped by the sweep keep their
     * previous (still valid) mass.
     */
    const Vector &rowMass() const { return rowMass_; }

    /** Rows the next sweep would visit given a zero write weighting. */
    Index
    activeRowCount() const
    {
        Index active = 0;
        for (Index i = 0; i < slots_; ++i)
            if (rowMass_[i] > 0.0)
                ++active;
        return active;
    }

    /**
     * The monotone touched-slot set: slots whose write weight was
     * nonzero at some step since the last reset (or, after a restore,
     * the set restoreState() derives), ascending. This is the column set
     * every sweep iterates.
     */
    const std::vector<Index> &touchedSlots() const;

    /** Reset all state to zero (episode boundary). */
    void reset();

    /**
     * Overwrite linkage + precedence from a flat row-major snapshot
     * (checkpoint restore; fatal on size mismatch). Rebuilds the
     * active-row mass cache from the restored matrix — the recompute
     * uses the same per-row summation order as the sweep's refresh, so
     * a restored run's skip decisions are bit-identical to an
     * undisturbed one.
     *
     * The touched set is derived: every column of L holding a nonzero
     * entry, plus every slot j with p[j] != 0. That can be a subset of
     * the undisturbed run's set, but only by slots whose linkage column
     * and precedence are both exactly zero, and the update sweeps such
     * a column to +0.0 whether it is visited or not — so the restored
     * run's bits match. The precedence slots are needed: a slot written
     * once has p[j] > 0 and an all-zero column until another slot is
     * written, and the next update must visit that column.
     */
    void restoreState(const Vector &linkageFlat, const Vector &precedence);

  private:
    /** updateAndRead() body specialized on the head count R. */
    template <Index R>
    void updateAndReadImpl(const Vector &writeWeighting,
                           std::vector<Vector> &forward,
                           std::vector<Vector> &backward,
                           KernelProfiler *profiler);

    /**
     * Collect the rows `writeWeighting` makes active into activeRows_,
     * fold newly written slots into the touched set, and rebuild
     * touchedList_ — one O(N) pass per step.
     */
    Index gatherActiveRows(const Real *writeWeighting);

    /**
     * Rebuild rowMass_ from the full matrix (restoreState's recompute,
     * the sweeps' canonical lane order — see rowMass()) and mark every
     * column holding a nonzero entry as touched, in one fused pass.
     */
    void rebuildMassAndMarkTouched();

    Index slots_;
    Matrix linkage_;
    Vector precedence_;
    Vector rowMass_; ///< per-row sum of |L[i][j]| (see rowMass())

    // Active-row scratch for the sweeps, reserved at construction so
    // steady-state steps stay allocation-free.
    std::vector<Index> activeRows_;

    // Monotone touched-slot flags (cleared on reset) and their ascending
    // index list. The list is rebuilt lazily — the const read kernels
    // consume it, so it is mutable and revalidated on demand; capacity
    // is reserved at construction, keeping steady state allocation-free.
    std::vector<std::uint8_t> touched_;
    mutable std::vector<Index> touchedList_;
    mutable bool touchedListValid_ = false;

    // Head-interleaved scratch for the fused sweep (slots x R each,
    // grown on first use): lane h of word j holds head h's value for
    // slot j, which lets the per-head accumulation chains run as one
    // SIMD lane group while keeping every chain's order intact.
    std::vector<Real> interleavedReads_;
    std::vector<Real> interleavedBackward_;
};

} // namespace hima

#endif // HIMA_DNC_TEMPORAL_LINKAGE_H
