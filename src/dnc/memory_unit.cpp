#include "dnc/memory_unit.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "approx/fixed_point.h"
#include "common/math_util.h"

namespace hima {

MemoryUnit::MemoryUnit(const DncConfig &config)
    : config_(config),
      addressing_(config.approximateSoftmax, config.softmaxSegments),
      usageSorter_(referenceUsageSort),
      skimK_(static_cast<Index>(config.skimRate *
                                static_cast<Real>(config.memoryRows))),
      memory_(config.memoryRows, config.memoryWidth),
      rowNorms_(config.memoryRows),
      usage_(config.memoryRows),
      linkage_(config.memoryRows),
      writeWeighting_(config.memoryRows),
      readWeightings_(config.readHeads, Vector(config.memoryRows)),
      ws_(config.memoryRows, config.memoryWidth, config.readHeads),
      keptStrengths_(config.readHeads)
{
    config_.validate();
    sortRecords_.reserve(config.memoryRows);
}

void
MemoryUnit::setUsageSorter(UsageSortFn sorter)
{
    HIMA_ASSERT(static_cast<bool>(sorter), "null usage sorter");
    usageSorter_ = std::move(sorter);
    customSorter_ = true;
}

MemoryReadout
MemoryUnit::step(const InterfaceVector &iface)
{
    MemoryReadout out;
    stepInto(iface, out);
    return out;
}

void
MemoryUnit::stepInto(const InterfaceVector &iface, MemoryReadout &out)
{
    validateInterface(iface, config_);

    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    const Index r = config_.readHeads;

    // Size the readout; a no-op (and allocation-free) once `out` has
    // been through one step with these shapes.
    out.writeWeighting.resize(n);
    if (out.readVectors.size() != r)
        out.readVectors.resize(r);
    if (out.readWeightings.size() != r)
        out.readWeightings.resize(r);
    for (Index head = 0; head < r; ++head) {
        out.readVectors[head].resize(w);
        out.readWeightings[head].resize(n);
    }

    softWrite(iface, out.writeWeighting);

    // HR.(1)-(3): linkage must see the *previous* precedence, so the
    // linkage update precedes the precedence update. The update and the
    // per-head forward/backward weightings run as one fused traversal
    // of L (bit-identical to the separate kernels); the soft-read loop
    // below consumes the precomputed weightings.
    linkage_.updateAndRead(out.writeWeighting, readWeightings_,
                           ws_.forwardW, ws_.backwardW, &profiler_);
    linkage_.updatePrecedence(out.writeWeighting, &profiler_);

    std::copy(out.writeWeighting.begin(), out.writeWeighting.end(),
              writeWeighting_.begin());

    softRead(iface, out);
}

void
MemoryUnit::softWrite(const InterfaceVector &iface, Vector &writeWeighting)
{
    const Index n = config_.memoryRows;

    // CW.(1)-(2): content-based write weighting, using the maintained
    // row-norm cache instead of an O(N*W) recompute.
    addressing_.weightingInto(memory_, iface.writeKey, iface.writeStrength,
                              &rowNorms_, ws_.scores, ws_.contentW,
                              &profiler_);

    // HW.(1)-(2): retention then usage update (uses *previous* write and
    // read weightings).
    retentionInto(iface.freeGates, readWeightings_, ws_.retention,
                  &profiler_);
    updateUsageInPlace(usage_, writeWeighting_, ws_.retention, &profiler_);

    // HW.(2)-(3): usage sort + allocation weighting (optionally skimmed).
    allocationWeightingInto(usage_, customSorter_ ? &usageSorter_ : nullptr,
                            skimK_, sortRecords_, ws_.allocW, &profiler_);

    // WM: merge content and allocation paths under the gates.
    {
        KernelScope scope(profiler_, Kernel::WriteMerge);
        const Real ga = iface.allocationGate;
        const Real gw = iface.writeGate;
        const Real *alloc = ws_.allocW.data();
        const Real *content = ws_.contentW.data();
        Real *ww = writeWeighting.data();
        for (Index i = 0; i < n; ++i)
            ww[i] = gw * (ga * alloc[i] + (1.0 - ga) * content[i]);
        auto &c = profiler_.at(Kernel::WriteMerge);
        c.elementOps += 3 * n;
        c.stateMemAccesses += 3 * n;
    }

    // MW: apply erase then additive write to the external memory.
    memoryWrite(writeWeighting, iface.eraseVector, iface.writeVector);

    if (config_.fixedPoint)
        quantizeInPlace(writeWeighting);
}

void
MemoryUnit::memoryWrite(const Vector &writeWeighting, const Vector &erase,
                        const Vector &write)
{
    KernelScope scope(profiler_, Kernel::MemoryWrite);

    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    const bool fixed = config_.fixedPoint;

    // M <- M .* (E - w_w e^T) + w_w v^T, computed row-at-a-time: the
    // outer products never materialize, matching the PE-array dataflow.
    // Each touched row's L2 norm is refreshed in the same pass, which is
    // what keeps the content-addressing Normalize stage O(touched * W)
    // in simulator time. Rows with a zero write weight are skipped and
    // left unmodified, so their cached norms stay valid by construction.
    const Real *ww = writeWeighting.data();
    const Real *pe = erase.data();
    const Real *pv = write.data();
    for (Index i = 0; i < n; ++i) {
        const Real wi = ww[i];
        if (wi <= 0.0)
            continue;
        Real *row = memory_.rowPtr(i);
        Real acc = 0.0;
        for (Index c = 0; c < w; ++c) {
            Real v = row[c] * (1.0 - wi * pe[c]) + wi * pv[c];
            if (fixed)
                v = Fix32::fromReal(v).toReal();
            row[c] = v;
            acc += v * v;
        }
        rowNorms_[i] = std::sqrt(acc);
    }

    // The hardware writes (and, in fixed-point mode, requantizes) every
    // row each step; charge the full cost regardless of software skips.
    auto &counters = profiler_.at(Kernel::MemoryWrite);
    counters.elementOps += 4 * static_cast<std::uint64_t>(n) * w;
    counters.extMemAccesses += 2 * static_cast<std::uint64_t>(n) * w;
    counters.stateMemAccesses += n; // the write weighting
}

void
MemoryUnit::softRead(const InterfaceVector &iface, MemoryReadout &out)
{
    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    const Index r = config_.readHeads;
    const std::uint64_t heads = r;

    // CR.(1)-(2): all R content read weightings in one scoring pass over
    // the post-write memory. Each head's content weighting lands in its
    // readout weighting, which the merge below then overwrites in place.
    // (HR.(3) forward/backward were precomputed by the fused linkage
    // sweep.) The raw dots stay in ws_ for readConfidence().
    addressing_.weightingsInto(memory_, iface.readKeys.data(),
                               iface.readStrengths.data(), r, rowNorms_, ws_,
                               out.readWeightings.data(), &profiler_);
    std::copy(iface.readStrengths.begin(), iface.readStrengths.end(),
              keptStrengths_.begin());
    keptDots_ = true;

    // RM: mode-weighted merge onto the simplex.
    {
        KernelScope scope(profiler_, Kernel::ReadMerge, heads);
        for (Index head = 0; head < r; ++head) {
            const ReadMode &mode = iface.readModes[head];
            const Real *fwd = ws_.forwardW[head].data();
            const Real *bwd = ws_.backwardW[head].data();
            Real *pw = out.readWeightings[head].data();
            for (Index i = 0; i < n; ++i) {
                pw[i] = mode.backward * bwd[i]
                      + mode.content * pw[i]
                      + mode.forward * fwd[i];
            }
        }
        auto &c = profiler_.at(Kernel::ReadMerge);
        c.elementOps += heads * 3 * n;
        c.stateMemAccesses += heads * 4 * n;
    }
    if (config_.fixedPoint)
        for (Index head = 0; head < r; ++head)
            quantizeInPlace(out.readWeightings[head]);

    // MR: v_r = M^T w_r for all R heads in one pass over M. Rows whose
    // cached norm is 0 are all-zero rows: their contribution to every
    // output word is +0.0 exactly, so skipping them is bit-identical
    // (the weightings are nonnegative). The hardware still reads all N
    // rows per head — only simulator work is skipped.
    {
        KernelScope scope(profiler_, Kernel::MemoryRead, heads);
        const std::uint64_t skipped = matTVecSparseMultiInto(
            memory_, out.readWeightings.data(), r, rowNorms_,
            out.readVectors.data());
        auto &c = profiler_.at(Kernel::MemoryRead);
        c.macOps += heads * n * w;
        c.extMemAccesses += heads * n * w;
        c.stateMemAccesses += heads * n;
        c.skippedRows += heads * skipped;
        c.skippedOps += heads * skipped * w;
    }
    for (Index head = 0; head < r; ++head) {
        if (config_.fixedPoint)
            quantizeInPlace(out.readVectors[head]);
        std::copy(out.readWeightings[head].begin(),
                  out.readWeightings[head].end(),
                  readWeightings_[head].begin());
    }
}

Real
MemoryUnit::readConfidence(Index head) const
{
    const Index r = config_.readHeads;
    HIMA_ASSERT(keptDots_ && head < r,
                "readConfidence(%zu) needs a read lookup since the last "
                "reset or restore", head);
    const Real *dots = ws_.dots.data() + head;
    return keptStrengths_[head] *
           bestCosine(rowNorms_.data(), config_.memoryRows,
                      ws_.keyNorms[head],
                      [&](Index i) { return dots[i * r]; });
}

void
MemoryUnit::reset()
{
    keptDots_ = false;
    memory_.fill(0.0);
    rowNorms_.fill(0.0);
    usage_.fill(0.0);
    linkage_.reset();
    writeWeighting_.fill(0.0);
    for (auto &rw : readWeightings_)
        rw.fill(0.0);
}

void
MemoryTileState::sizeFor(const DncConfig &config)
{
    const Index n = config.memoryRows;
    memory.resize(n * config.memoryWidth);
    rowNorms.resize(n);
    usage.resize(n);
    linkage.resize(n * n);
    precedence.resize(n);
    writeWeighting.resize(n);
    if (readWeightings.size() != config.readHeads)
        readWeightings.resize(config.readHeads);
    for (auto &rw : readWeightings)
        rw.resize(n);
}

void
MemoryUnit::captureState(MemoryTileState &out) const
{
    out.sizeFor(config_);
    std::copy(memory_.data(), memory_.data() + memory_.size(),
              out.memory.begin());
    std::copy(rowNorms_.begin(), rowNorms_.end(), out.rowNorms.begin());
    std::copy(usage_.begin(), usage_.end(), out.usage.begin());
    const Matrix &link = linkage_.linkage();
    std::copy(link.data(), link.data() + link.size(), out.linkage.begin());
    std::copy(linkage_.precedence().begin(), linkage_.precedence().end(),
              out.precedence.begin());
    std::copy(writeWeighting_.begin(), writeWeighting_.end(),
              out.writeWeighting.begin());
    for (Index h = 0; h < config_.readHeads; ++h)
        std::copy(readWeightings_[h].begin(), readWeightings_[h].end(),
                  out.readWeightings[h].begin());
}

void
MemoryUnit::restoreState(const MemoryTileState &state)
{
    const Index n = config_.memoryRows;
    const Index w = config_.memoryWidth;
    HIMA_ASSERT(state.memory.size() == n * w &&
                    state.rowNorms.size() == n && state.usage.size() == n &&
                    state.writeWeighting.size() == n &&
                    state.readWeightings.size() == config_.readHeads,
                "tile restore: snapshot shapes do not match N=%zu W=%zu "
                "R=%zu",
                n, w, config_.readHeads);
    for (const Vector &rw : state.readWeightings)
        HIMA_ASSERT(rw.size() == n, "tile restore: read weighting %zu != %zu",
                    rw.size(), n);
    keptDots_ = false;
    // Fused restore of the read stage: copy each memory row and rebuild
    // its cached norm in the same pass, instead of one sweep for the
    // matrix and a second for the snapshot's norm vector. The recompute
    // uses memoryWrite's own accumulation (ascending c, acc += v*v,
    // sqrt), so the rebuilt cache — and with it every sparse read-stage
    // skip decision — is bit-identical to the live cache the snapshot
    // was captured from. Snapshot norms are never trusted: sparse
    // checkpoint frames do not even carry them.
    const Real *src = state.memory.data();
    for (Index i = 0; i < n; ++i) {
        Real *row = memory_.rowPtr(i);
        const Real *srow = src + i * w;
        Real acc = 0.0;
        for (Index c = 0; c < w; ++c) {
            const Real v = srow[c];
            row[c] = v;
            acc += v * v;
        }
        rowNorms_[i] = std::sqrt(acc);
    }
    std::copy(state.usage.begin(), state.usage.end(), usage_.begin());
    linkage_.restoreState(state.linkage, state.precedence);
    std::copy(state.writeWeighting.begin(), state.writeWeighting.end(),
              writeWeighting_.begin());
    for (Index h = 0; h < config_.readHeads; ++h)
        std::copy(state.readWeightings[h].begin(),
                  state.readWeightings[h].end(), readWeightings_[h].begin());
}

} // namespace hima
