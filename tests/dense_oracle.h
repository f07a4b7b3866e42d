/**
 * @file
 * The dense reference of the DNC memory unit, kept on the test side.
 *
 * MemoryUnit skips work on rows that are exactly zero (never written
 * since the episode boundary) and, within the linkage, on untouched
 * columns. At the default thresholds of 0 that skipping is
 * bit-identical to the dense equations. This oracle computes those
 * equations directly, in the seed implementation's accumulation order,
 * so the lockstep tests and bench_hot_path's gate can compare the
 * optimized unit against it bit for bit at every step.
 */

#ifndef HIMA_TESTS_DENSE_ORACLE_H
#define HIMA_TESTS_DENSE_ORACLE_H

#include <cmath>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "dnc/memory_unit.h"

namespace hima {
namespace oracle {

inline Vector
matVec(const Matrix &m, const Vector &x)
{
    Vector y(m.rows());
    for (Index r = 0; r < m.rows(); ++r) {
        Real acc = 0.0;
        for (Index c = 0; c < m.cols(); ++c)
            acc += m(r, c) * x[c];
        y[r] = acc;
    }
    return y;
}

inline Vector
matTVec(const Matrix &m, const Vector &x)
{
    Vector y(m.cols());
    for (Index r = 0; r < m.rows(); ++r) {
        const Real xv = x[r];
        for (Index c = 0; c < m.cols(); ++c)
            y[c] += m(r, c) * xv;
    }
    return y;
}

inline Vector
contentWeighting(const Matrix &memory, const Vector &key, Real strength)
{
    const Index n = memory.rows();
    const Index w = memory.cols();
    Vector rowNorms(n);
    for (Index i = 0; i < n; ++i) {
        Real acc = 0.0;
        for (Index c = 0; c < w; ++c) {
            const Real v = memory(i, c);
            acc += v * v;
        }
        rowNorms[i] = std::sqrt(acc);
    }
    const Real keyNorm = key.norm();
    constexpr Real eps = 1e-6;
    Vector scores(n);
    for (Index i = 0; i < n; ++i) {
        Real acc = 0.0;
        for (Index c = 0; c < w; ++c)
            acc += memory(i, c) * key[c];
        scores[i] = strength * acc / (rowNorms[i] * keyNorm + eps);
    }
    return softmax(scores);
}

/**
 * HR.(1) over every cell: L <- (1 - w_i - w_j) L + w_i p_j, diagonal
 * zeroed, with p the previous precedence.
 */
inline void
updateLinkage(Matrix &linkage, const Vector &ww, const Vector &precedence)
{
    const Index n = ww.size();
    for (Index i = 0; i < n; ++i) {
        const Real wi = ww[i];
        for (Index j = 0; j < n; ++j) {
            if (i == j) {
                linkage(i, j) = 0.0;
                continue;
            }
            linkage(i, j) = (1.0 - wi - ww[j]) * linkage(i, j)
                          + wi * precedence[j];
        }
    }
}

/** HR.(2): p <- (1 - sum(w)) p + w. */
inline void
updatePrecedence(Vector &precedence, const Vector &ww)
{
    const Real keep = 1.0 - ww.sum();
    for (Index i = 0; i < ww.size(); ++i)
        precedence[i] = keep * precedence[i] + ww[i];
}

/**
 * The dense DNC memory unit: every kernel sweeps all N rows, with
 * bounds-checked element accessors, value-returning kernels that
 * allocate every temporary, and per-lookup O(N*W) row-norm recomputes.
 * No state outlives a step except the recurrent state below, so an
 * episode boundary is a fresh object.
 */
struct MemoryUnitSim
{
    explicit MemoryUnitSim(const DncConfig &config)
        : cfg(config), memory(cfg.memoryRows, cfg.memoryWidth),
          usage(cfg.memoryRows), linkage(cfg.memoryRows, cfg.memoryRows),
          precedence(cfg.memoryRows), writeWeighting(cfg.memoryRows),
          readWeightings(cfg.readHeads, Vector(cfg.memoryRows))
    {}

    MemoryReadout
    step(const InterfaceVector &iface)
    {
        const Index n = cfg.memoryRows;
        const Index w = cfg.memoryWidth;

        // CW: content write weighting (norms recomputed from scratch).
        const Vector contentW =
            contentWeighting(memory, iface.writeKey, iface.writeStrength);

        // HW: retention, usage, sort, allocation.
        Vector psi(n, 1.0);
        for (Index r = 0; r < readWeightings.size(); ++r) {
            const Real gate = iface.freeGates[r];
            for (Index i = 0; i < n; ++i)
                psi[i] *= 1.0 - gate * readWeightings[r][i];
        }
        Vector newUsage(n);
        for (Index i = 0; i < n; ++i) {
            const Real u = usage[i];
            const Real wv = writeWeighting[i];
            newUsage[i] = (u + wv - u * wv) * psi[i];
        }
        usage = newUsage;

        std::vector<SortRecord> records;
        records.reserve(n);
        for (Index i = 0; i < n; ++i)
            records.push_back({usage[i], i});
        const SortResult sorted =
            referenceUsageSort(records, SortOrder::Ascending);
        Vector alloc(n, 0.0);
        Real runningProduct = 1.0;
        for (const SortRecord &rec : sorted.records) {
            alloc[rec.idx] = (1.0 - rec.key) * runningProduct;
            runningProduct *= rec.key;
        }

        // WM: gate merge.
        Vector ww(n);
        const Real ga = iface.allocationGate;
        const Real gw = iface.writeGate;
        for (Index i = 0; i < n; ++i)
            ww[i] = gw * (ga * alloc[i] + (1.0 - ga) * contentW[i]);

        // MW: erase + add, row at a time.
        for (Index i = 0; i < n; ++i) {
            const Real wi = ww[i];
            if (wi == 0.0)
                continue;
            for (Index c = 0; c < w; ++c)
                memory(i, c) = memory(i, c) * (1.0 - wi * iface.eraseVector[c])
                             + wi * iface.writeVector[c];
        }

        // HR.(1)-(2): linkage then precedence.
        updateLinkage(linkage, ww, precedence);
        updatePrecedence(precedence, ww);
        writeWeighting = ww;

        MemoryReadout out;
        out.writeWeighting = ww;
        for (Index head = 0; head < cfg.readHeads; ++head) {
            const Vector fwd = oracle::matVec(linkage, readWeightings[head]);
            const Vector bwd = oracle::matTVec(linkage, readWeightings[head]);
            const Vector content = contentWeighting(
                memory, iface.readKeys[head], iface.readStrengths[head]);
            Vector weighting(n);
            const ReadMode &mode = iface.readModes[head];
            for (Index i = 0; i < n; ++i) {
                weighting[i] = mode.backward * bwd[i]
                             + mode.content * content[i]
                             + mode.forward * fwd[i];
            }
            Vector readVector = oracle::matTVec(memory, weighting);
            readWeightings[head] = weighting;
            out.readWeightings.push_back(std::move(weighting));
            out.readVectors.push_back(std::move(readVector));
        }
        return out;
    }

    DncConfig cfg;
    Matrix memory;
    Vector usage;
    Matrix linkage;
    Vector precedence;
    Vector writeWeighting;
    std::vector<Vector> readWeightings;
};

} // namespace oracle
} // namespace hima

#endif // HIMA_TESTS_DENSE_ORACLE_H
