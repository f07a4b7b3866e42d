#include "shard/local_cluster.h"

#include <atomic>
#include <string>

#include <unistd.h>

#include "dnc/dncd.h"

namespace hima {

namespace {

std::atomic<int> g_endpointOrdinal{0};

/**
 * Ring slot capacity for one shm worker of this cluster shape: sized
 * for the largest hosted-tile share so every protocol frame (including
 * checkpoint snapshots) fits one slot.
 */
std::size_t
clusterShmSlotBytes(const DncConfig &config, Index tiles, Index lanes,
                    Index workerCount)
{
    const Index hosted = (tiles + workerCount - 1) / workerCount;
    return shmSlotBytesFor(shardConfigFor(config, tiles), tiles, hosted,
                           lanes);
}

/**
 * Spawn `workerCount` workers and return one connected channel per
 * worker: loopback services in-process; socket and shm transports get a
 * serve thread per worker and a bounded recv timeout on the client
 * side.
 */
std::vector<std::unique_ptr<Channel>>
buildChannels(ClusterTransport transport, const DncConfig &config,
              Index tiles, Index lanes, Index workerCount,
              std::vector<std::shared_ptr<ShardWorker>> &workers,
              std::vector<std::thread> &threads)
{
    const std::size_t slotBytes =
        transport == ClusterTransport::Shm
            ? clusterShmSlotBytes(config, tiles, lanes, workerCount)
            : kShmDefaultSlotBytes;
    const int timeoutMs = static_cast<int>(config.shardRecvTimeoutMs);
    std::vector<std::unique_ptr<Channel>> channels;
    for (Index k = 0; k < workerCount; ++k)
        channels.push_back(makeClusterWorker(transport, workers, threads,
                                             slotBytes, timeoutMs));
    return channels;
}

/** Install a respawner on `group` that builds replacements on `transport`. */
std::shared_ptr<RespawnHarness>
armGroupRecovery(ShardLaneGroup &group, ClusterTransport transport)
{
    auto harness = std::make_shared<RespawnHarness>();
    harness->transport = transport;
    // Replacement channels must host the same frames the fleet does —
    // size their rings from the group's own shard shape.
    harness->shmSlotBytes = shmSlotBytesFor(
        group.shardConfig(), group.tiles(),
        (group.tiles() + group.channelCount() - 1) / group.channelCount(),
        group.lanes());
    harness->recvTimeoutMs =
        static_cast<int>(group.globalConfig().shardRecvTimeoutMs);
    group.setRespawner([harness](Index) {
        return makeClusterWorker(harness->transport, harness->workers,
                                 harness->threads, harness->shmSlotBytes,
                                 harness->recvTimeoutMs);
    });
    return harness;
}

} // namespace

std::unique_ptr<Channel>
makeClusterWorker(ClusterTransport transport,
                  std::vector<std::shared_ptr<ShardWorker>> &workers,
                  std::vector<std::thread> &threads,
                  std::size_t shmSlotBytes, int recvTimeoutMs)
{
    auto worker = std::make_shared<ShardWorker>();
    workers.push_back(worker);
    if (transport == ClusterTransport::Loopback)
        return std::make_unique<LoopbackChannel>(
            [worker](const std::uint8_t *data, std::size_t size,
                     FrameSink &reply) {
                worker->handleFrame(data, size, reply);
            });
    if (transport == ClusterTransport::Shm) {
        // Fresh name per worker incarnation: a respawned replacement
        // maps a brand-new ring, never a dead worker's leftovers.
        const std::string name =
            "/hima_shm_" + std::to_string(::getpid()) + "_" +
            std::to_string(g_endpointOrdinal.fetch_add(
                1, std::memory_order_relaxed));
        auto chan = ShmChannel::create(name, shmSlotBytes);
        if (!chan)
            HIMA_FATAL("local cluster: cannot create shm region %s",
                       name.c_str());
        const int attachBudget = recvTimeoutMs;
        threads.emplace_back([worker, name, attachBudget] {
            auto served = ShmChannel::attach(name, attachBudget);
            if (served)
                worker->serve(*served);
        });
        chan->setRecvTimeout(recvTimeoutMs);
        return chan;
    }
    std::unique_ptr<SocketChannel> client;
    // The serve threads accept with a bounded wait: if the connect
    // below ever failed, the thread ends instead of blocking a join
    // forever — the same bound that keeps a respawned replacement that
    // never dials back from wedging a recovery.
    if (transport == ClusterTransport::UnixSocket) {
        const std::string path =
            "/tmp/hima_shard_" + std::to_string(::getpid()) + "_" +
            std::to_string(g_endpointOrdinal.fetch_add(
                1, std::memory_order_relaxed)) +
            ".sock";
        auto listener = SocketListener::listenUnix(path);
        if (!listener)
            HIMA_FATAL("local cluster: cannot listen on %s", path.c_str());
        auto shared = std::shared_ptr<SocketListener>(std::move(listener));
        threads.emplace_back([worker, shared, recvTimeoutMs] {
            auto chan = shared->acceptWithTimeout(recvTimeoutMs);
            if (chan)
                worker->serve(*chan);
        });
        client = SocketChannel::connectUnix(path);
    } else {
        auto listener = SocketListener::listenTcp(0);
        if (!listener)
            HIMA_FATAL("local cluster: cannot listen on a tcp port");
        const std::uint16_t port = listener->port();
        auto shared = std::shared_ptr<SocketListener>(std::move(listener));
        threads.emplace_back([worker, shared, recvTimeoutMs] {
            auto chan = shared->acceptWithTimeout(recvTimeoutMs);
            if (chan)
                worker->serve(*chan);
        });
        client = SocketChannel::connectTcp("127.0.0.1", port);
    }
    if (!client) // fail fast: the accept thread would end, but loudly
        HIMA_FATAL("local cluster: connect failed");
    // Bounded recv: a worker that dies mid-step fails the step with
    // a diagnosis instead of blocking the coordinator forever.
    client->setRecvTimeout(recvTimeoutMs);
    return client;
}

LocalShardCluster
makeLocalCluster(ClusterTransport transport, const DncConfig &config,
                 Index tiles, Index workerCount, MergePolicy policy,
                 bool wantWeightings)
{
    LocalShardCluster cluster;
    std::vector<std::unique_ptr<Channel>> channels =
        buildChannels(transport, config, tiles, /*lanes=*/1, workerCount,
                      cluster.workers, cluster.threads);
    cluster.coordinator = std::make_unique<ShardCoordinator>(
        config, tiles, policy, std::move(channels), wantWeightings);
    return cluster;
}

LocalLaneCluster
makeLocalLaneCluster(ClusterTransport transport, const DncConfig &config,
                     Index tiles, Index lanes, Index workerCount,
                     MergePolicy policy, bool wantWeightings)
{
    LocalLaneCluster cluster;
    std::vector<std::unique_ptr<Channel>> channels =
        buildChannels(transport, config, tiles, lanes, workerCount,
                      cluster.workers, cluster.threads);
    cluster.group = std::make_shared<ShardLaneGroup>(
        config, tiles, lanes, policy, std::move(channels), wantWeightings);
    return cluster;
}

std::shared_ptr<RespawnHarness>
armClusterRecovery(LocalShardCluster &cluster, ClusterTransport transport)
{
    return armGroupRecovery(*cluster.coordinator, transport);
}

std::shared_ptr<RespawnHarness>
armClusterRecovery(LocalLaneCluster &cluster, ClusterTransport transport)
{
    return armGroupRecovery(*cluster.group, transport);
}

} // namespace hima
