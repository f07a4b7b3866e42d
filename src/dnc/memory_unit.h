/**
 * @file
 * The DNC memory unit: the complete Fig. 2 dataflow.
 *
 * One step() consumes an InterfaceVector and produces R read vectors,
 * executing:
 *
 *   Soft write: content write weighting (CW) -> retention/usage/sort/
 *   allocation (HW) -> write weight merge (WM) -> memory write (MW)
 *
 *   Soft read: linkage + precedence + forward/backward (HR) -> content
 *   read weighting (CR) -> read weight merge (RM) -> memory read (MR)
 *
 * All state (M, u, p, L, previous weightings) lives here; the LSTM
 * controller is external. Every kernel charges the KernelProfiler.
 *
 * The hot path is allocation-free: stepInto() writes into a caller-owned
 * MemoryReadout, every temporary lives in a preallocated Workspace, and
 * the per-row L2 norms needed by content addressing are maintained
 * incrementally by the memory write instead of being recomputed for
 * every head every timestep.
 *
 * The soft read handles its R heads together: one content-scoring pass
 * over M for all R read keys (ContentAddressing::weightingsInto), the
 * per-head merge, then one pass over M for all R read vectors
 * (matTVecSparseMultiInto). Every head's bits are those of R separate
 * lookups and reads. The lookup's raw dots are kept, so the DNC-D
 * confidence of the step's read key costs O(N) (readConfidence()).
 */

#ifndef HIMA_DNC_MEMORY_UNIT_H
#define HIMA_DNC_MEMORY_UNIT_H

#include <vector>

#include "dnc/allocation.h"
#include "dnc/content_addressing.h"
#include "dnc/dnc_config.h"
#include "dnc/interface.h"
#include "dnc/temporal_linkage.h"
#include "dnc/usage.h"

namespace hima {

/** Result of one memory-unit step. */
struct MemoryReadout
{
    /** R read vectors of width W. */
    std::vector<Vector> readVectors;
    /** The read weightings that produced them (for inspection/tests). */
    std::vector<Vector> readWeightings;
    /** The write weighting applied this step. */
    Vector writeWeighting;
};

/**
 * The complete recurrent state of one MemoryUnit, flattened for
 * checkpoint/restore. Everything a step depends on is here — the
 * Workspace, profiler and sort scratch are derived per step, so a
 * restore of this snapshot followed by the same interface stream
 * reproduces the original run bit-for-bit (tested).
 *
 * Matrices are stored row-major in flat Vectors so the shard wire codec
 * can move them with the bulk Real-array path; `sizeFor()` pre-sizes
 * every buffer (capacity-reusing) so steady-state checkpointing stays
 * allocation-free.
 */
struct MemoryTileState
{
    Vector memory;         ///< N x W, row-major
    Vector rowNorms;       ///< N
    Vector usage;          ///< N
    Vector linkage;        ///< N x N, row-major
    Vector precedence;     ///< N
    Vector writeWeighting; ///< N
    std::vector<Vector> readWeightings; ///< R x N

    /** Resize every buffer for `config`'s shapes (keeps capacity). */
    void sizeFor(const DncConfig &config);
};

/** The stateful DNC memory unit. */
class MemoryUnit
{
  public:
    explicit MemoryUnit(const DncConfig &config);

    /**
     * Execute one full soft write + soft read cycle.
     *
     * @param iface decoded interface vector from the controller
     */
    MemoryReadout step(const InterfaceVector &iface);

    /**
     * Allocation-free step: identical numerics to step(), but the result
     * is written into a caller-owned readout whose buffers are reused
     * across calls. After the first call sizes `out`, a steady-state
     * step performs zero heap allocations (asserted in tests).
     */
    void stepInto(const InterfaceVector &iface, MemoryReadout &out);

    /** Zero all state (episode boundary). */
    void reset();

    /** Snapshot all recurrent state into `out` (sized, then copied). */
    void captureState(MemoryTileState &out) const;

    /**
     * Overwrite all recurrent state from a snapshot with matching
     * shapes (fatal on mismatch). Allocation-free: every destination
     * buffer was sized at construction.
     */
    void restoreState(const MemoryTileState &state);

    // --- state inspection (tests, workloads, the DNC-D merge) ---
    const Matrix &memory() const { return memory_; }
    const Vector &usage() const { return usage_; }
    const TemporalLinkage &linkage() const { return linkage_; }
    const Vector &writeWeighting() const { return writeWeighting_; }
    const std::vector<Vector> &readWeightings() const
    {
        return readWeightings_;
    }
    const DncConfig &config() const { return config_; }

    /**
     * Cached L2 norm of each memory row, maintained by the memory write.
     * Invariant (tested): rowNorms()[i] == memory().row(i).norm() for
     * every i, bit-for-bit, because the cache is refreshed from exactly
     * the rows the write touches.
     */
    const Vector &rowNorms() const { return rowNorms_; }

    /**
     * DNC-D confidence of the last step's read key `head` against this
     * tile: the best row cosine of that step's key, sharpened by its
     * strength, bit for bit as an O(N*W) rescan of memory would give
     * it, but O(N) — bestCosine over the dots the read lookup kept.
     * Valid from a step until the next reset() or restoreState().
     */
    Real readConfidence(Index head) const;

    KernelProfiler &profiler() { return profiler_; }
    const KernelProfiler &profiler() const { return profiler_; }

    /**
     * Install a hardware sorting backend for the usage sort (defaults to
     * the reference sort). Lets the accelerator model reuse the exact
     * functional pipeline while charging hardware sorter cycles.
     */
    void setUsageSorter(UsageSortFn sorter);

  private:
    /** Soft write per Sec. 2.1.1; fills the merged write weighting. */
    void softWrite(const InterfaceVector &iface, Vector &writeWeighting);

    /** Soft read per Sec. 2.1.2; fills the readout. */
    void softRead(const InterfaceVector &iface, MemoryReadout &out);

    /** Apply erase+add to the external memory (MW), refreshing norms. */
    void memoryWrite(const Vector &writeWeighting, const Vector &erase,
                     const Vector &write);

    DncConfig config_;
    ContentAddressing addressing_;
    UsageSortFn usageSorter_;
    bool customSorter_ = false; ///< true once setUsageSorter() was called
    Index skimK_;

    Matrix memory_;                     ///< external memory, N x W
    Vector rowNorms_;                   ///< cached row L2 norms, N
    Vector usage_;                      ///< usage state, N
    TemporalLinkage linkage_;           ///< linkage + precedence state
    Vector writeWeighting_;             ///< previous write weighting, N
    std::vector<Vector> readWeightings_; ///< previous read weightings, R x N

    Workspace ws_;                      ///< hot-path scratch buffers
    std::vector<Real> keptStrengths_;   ///< read strengths of the kept dots
    bool keptDots_ = false;             ///< ws_ holds this memory's dots
    std::vector<SortRecord> sortRecords_; ///< usage-sort scratch

    KernelProfiler profiler_;
};

} // namespace hima

#endif // HIMA_DNC_MEMORY_UNIT_H
