#include "dnc/dncd.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace hima {

DncConfig
shardConfigFor(const DncConfig &global, Index tiles)
{
    HIMA_ASSERT(tiles >= 1, "DNC-D needs at least one tile");
    HIMA_ASSERT(global.memoryRows % tiles == 0,
                "N=%zu not divisible by Nt=%zu", global.memoryRows, tiles);
    DncConfig shard = global;
    shard.memoryRows = global.memoryRows / tiles;
    return shard;
}

bool
readQueriesBroadcast(const InterfaceVector *ifaces, Index tiles)
{
    for (Index t = 1; t < tiles; ++t)
        if (ifaces[t].readKeys != ifaces[0].readKeys ||
            ifaces[t].readStrengths != ifaces[0].readStrengths)
            return false;
    return true;
}

// --------------------------------------------------------------------
// ConfidenceGate
// --------------------------------------------------------------------

void
ConfidenceGate::reset()
{
    // Empty rows mean "no history" to selectHeads(); keeping the rows
    // (and their storage) lets an admitted lane's first steps run
    // without reallocating them.
    for (std::vector<Real> &row : lastAlphas_)
        row.clear();
    for (std::vector<Real> &row : prevAlphas_)
        row.clear();
    scoredHeads_.clear();
}

const std::vector<Index> &
ConfidenceGate::selectHeads(const InterfaceVector &iface, MergePolicy policy,
                            Index readHeads, Index tiles)
{
    // Alpha selection per head. Read keys are shared across tiles
    // (queries broadcast). For history-dominated reads (forward/backward
    // mode) there is no content key to score — the trained gate carries
    // the previous step's attention, so we reuse the last alphas (the
    // tile that held the anchor keeps owning the chain).
    prevAlphas_ = lastAlphas_;
    if (uniform_.size() != tiles)
        uniform_.assign(tiles, 1.0 / static_cast<Real>(tiles));
    lastAlphas_.assign(readHeads, uniform_);
    scoredHeads_.clear();
    for (Index head = 0; head < readHeads; ++head) {
        const ReadMode &mode = iface.readModes[head];
        if (mode.content < 0.5 && head < prevAlphas_.size() &&
            !prevAlphas_[head].empty()) {
            lastAlphas_[head] = prevAlphas_[head];
        } else if (policy == MergePolicy::Confidence) {
            scoredHeads_.push_back(head);
        }
        // Uniform policy keeps the 1/Nt initialization.
    }
    return scoredHeads_;
}

void
ConfidenceGate::applyScores(const std::vector<Real> &scores, Index tiles)
{
    HIMA_ASSERT(scores.size() == scoredHeads_.size() * tiles,
                "confidence scores shape mismatch: %zu != %zu x %zu",
                scores.size(), scoredHeads_.size(), tiles);
    scoreScratch_.resize(tiles);
    for (Index k = 0; k < scoredHeads_.size(); ++k) {
        for (Index t = 0; t < tiles; ++t)
            scoreScratch_[t] = scores[k * tiles + t];
        softmaxInto(scoreScratch_, smScratch_);
        for (Index t = 0; t < tiles; ++t)
            lastAlphas_[scoredHeads_[k]][t] = smScratch_[t];
    }
}

// --------------------------------------------------------------------
// Merge (Eq. 4 + global-view weighting concat)
// --------------------------------------------------------------------

void
mergeTileReadouts(const std::vector<const MemoryReadout *> &locals,
                  const std::vector<std::vector<Real>> &alphas,
                  const DncConfig &global, Index shardRows,
                  MemoryReadout &out)
{
    const Index w = global.memoryWidth;
    const Index r = global.readHeads;
    const Index tiles = locals.size();

    // Read-vector merge: v_r = sum_t alpha_t v_r_t (Eq. 4).
    out.readVectors.resize(r);
    for (Index head = 0; head < r; ++head) {
        out.readVectors[head].resize(w);
        out.readVectors[head].fill(0.0);
        const std::vector<Real> &headAlphas = alphas[head];
        for (Index t = 0; t < tiles; ++t)
            axpy(headAlphas[t], locals[t]->readVectors[head],
                 out.readVectors[head]);
    }

    // Concatenated (global-view) weightings for inspection, when the
    // locals carry them: tile t's local weighting occupies rows
    // [t*n, (t+1)*n).
    if (!locals.empty() && locals[0]->readWeightings.empty()) {
        out.readWeightings.clear();
        out.writeWeighting.resize(0);
        return;
    }
    out.readWeightings.resize(r);
    for (Index head = 0; head < r; ++head)
        out.readWeightings[head].resize(global.memoryRows);
    out.writeWeighting.resize(global.memoryRows);
    for (Index t = 0; t < tiles; ++t) {
        for (Index head = 0; head < r; ++head) {
            for (Index i = 0; i < shardRows; ++i) {
                out.readWeightings[head][t * shardRows + i] =
                    locals[t]->readWeightings[head][i] * alphas[head][t];
            }
        }
        for (Index i = 0; i < shardRows; ++i) {
            out.writeWeighting[t * shardRows + i] =
                locals[t]->writeWeighting[i] / static_cast<Real>(tiles);
        }
    }
}

// --------------------------------------------------------------------
// DncD
// --------------------------------------------------------------------

DncD::DncD(const DncConfig &config, Index tiles, MergePolicy policy)
    : globalConfig_(config), shardConfig_(shardConfigFor(config, tiles)),
      tiles_(tiles), policy_(policy)
{
    shards_.reserve(tiles_);
    for (Index t = 0; t < tiles_; ++t)
        shards_.push_back(std::make_unique<MemoryUnit>(shardConfig_));
    locals_.resize(tiles_);
    localPtrs_.resize(tiles_);
    for (Index t = 0; t < tiles_; ++t)
        localPtrs_[t] = &locals_[t];

    if (config.numThreads > 1)
        pool_ = std::make_unique<ThreadPool>(config.numThreads);
}

void
DncD::forEachTile(const std::function<void(Index)> &fn)
{
    if (pool_) {
        pool_->parallelFor(tiles_, fn);
    } else {
        for (Index t = 0; t < tiles_; ++t)
            fn(t);
    }
}

MemoryReadout
DncD::stepInterface(const InterfaceVector &iface)
{
    MemoryReadout out;
    stepInterfaceInto(iface, out);
    return out;
}

void
DncD::stepInterfaceInto(const InterfaceVector &iface, MemoryReadout &out)
{
    // Broadcast through reused member copies: after the first step the
    // assignments are same-shape and allocate nothing.
    broadcast_.resize(tiles_);
    for (Index t = 0; t < tiles_; ++t)
        broadcast_[t] = iface;
    stepCore(broadcast_, out);
}

MemoryReadout
DncD::stepInterfaces(const std::vector<InterfaceVector> &ifaces)
{
    HIMA_ASSERT(ifaces.size() == tiles_, "need one interface per tile");
    HIMA_ASSERT(readQueriesBroadcast(ifaces.data(), tiles_),
                "per-tile interfaces must share tile 0's read keys and "
                "strengths (queries broadcast)");
    MemoryReadout out;
    stepCore(ifaces, out);
    return out;
}

void
DncD::stepCore(const std::vector<InterfaceVector> &ifaces, MemoryReadout &out)
{
    // Local soft write + soft read on every shard. Tiles share no state
    // (Fig. 8: all state memories are sharded), so they execute on the
    // pool; numThreads == 1 runs them sequentially, bit-identically.
    forEachTile([&](Index t) { shards_[t]->stepInto(ifaces[t], locals_[t]); });

    const std::vector<Index> &scored = gate_.selectHeads(
        ifaces[0], policy_, globalConfig_.readHeads, tiles_);

    if (!scored.empty()) {
        // Content-confidence gating (Sec. 5.1): every (head, tile) score
        // is independent, so the scoring parallelizes over tiles. Every
        // tile just read with the scoring key (queries broadcast), so
        // its score comes from the tile's kept dots.
        scoreScratch_.assign(scored.size() * tiles_, 0.0);
        forEachTile([&](Index t) {
            for (Index k = 0; k < scored.size(); ++k)
                scoreScratch_[k * tiles_ + t] =
                    shards_[t]->readConfidence(scored[k]);
        });
        gate_.applyScores(scoreScratch_, tiles_);
    }

    mergeTileReadouts(localPtrs_, gate_.alphas(), globalConfig_,
                      shardConfig_.memoryRows, out);
}

void
DncD::reset()
{
    for (auto &shard : shards_)
        shard->reset();
    gate_.reset();
}

KernelProfiler
DncD::aggregateProfile() const
{
    KernelProfiler total;
    for (const auto &shard : shards_)
        total.merge(shard->profiler());
    return total;
}

} // namespace hima
