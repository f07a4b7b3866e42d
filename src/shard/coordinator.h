/**
 * @file
 * ShardCoordinator: the synchronous client side of multi-process
 * DNC-D, behind the TileMemory surface.
 *
 * It is a ShardLaneGroup (pipeline.h) with one lane, stepped one round
 * trip at a time — a window of one — and viewed as TileMemory through
 * the same ShardLaneMemory a multi-lane group hands out per lane. So
 * there is exactly one scatter/gather/merge, checkpoint and recovery
 * implementation: broadcast steps, per-tile (learned write sharding)
 * steps, episode controls, checkpoint pulls, respawn + restore +
 * replay, live migration, rescale and the fleet scrape all come from
 * the group. A sharded deployment is bit-identical per step to the
 * in-process DncD by construction (proven over loopback, unix, tcp and
 * shm in tests/test_shard.cpp).
 */

#ifndef HIMA_SHARD_COORDINATOR_H
#define HIMA_SHARD_COORDINATOR_H

#include <memory>
#include <vector>

#include "shard/pipeline.h"

namespace hima {

/** Drives remote DNC-D tiles behind the TileMemory surface. */
class ShardCoordinator final : public ShardLaneGroup, public ShardLaneMemory
{
  public:
    /**
     * Connect and handshake a one-lane fleet. Tiles are dealt
     * contiguously over the channels as evenly as possible; every
     * worker validates shapes and the fixed-point mode before the
     * first step.
     *
     * @param config   global DNC shapes (memoryRows = global N)
     * @param tiles    total tile count Nt; must divide memoryRows
     * @param policy   read-vector merge policy
     * @param channels one connected channel per worker (1..tiles)
     * @param wantWeightings ship per-tile read/write weightings back so
     *        readouts carry the concatenated global view (DncD parity —
     *        the golden harness needs it); serving paths turn it off
     */
    ShardCoordinator(const DncConfig &config, Index tiles,
                     MergePolicy policy,
                     std::vector<std::unique_ptr<Channel>> channels,
                     bool wantWeightings = true)
        : ShardLaneGroup(config, tiles, /*lanes=*/1, policy,
                         std::move(channels), wantWeightings),
          ShardLaneMemory(*this, /*lane=*/0)
    {}

    // Both bases name these (same values); resolve to the TileMemory side.
    using ShardLaneMemory::globalConfig;
    using ShardLaneMemory::shardConfig;
    using ShardLaneMemory::tiles;
};

} // namespace hima

#endif // HIMA_SHARD_COORDINATOR_H
