/**
 * @file
 * Serving-front-end demo: a Poisson query stream served by the
 * dynamic-batching router.
 *
 * Requests arrive on an open-loop Poisson process (episodes drawn from
 * the 20-task suite), get bound to lane slots of one BatchedDnc as
 * capacity frees up, and leave when their episode completes. The demo
 * prints a short timeline of queue depth and lane occupancy, then the
 * latency distribution.
 *
 *   usage: router_demo [lanes] [threads] [rate] [horizon]
 *     lanes    engine slot capacity       (default 8)
 *     threads  pool threads               (default 2)
 *     rate     mean arrivals per step     (default 0.20)
 *     horizon  arrival window in steps    (default 400)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/stats.h"
#include "obs/obs.h"
#include "serve/router.h"
#include "workload/arrival.h"

#include "demo_util.h"

int
main(int argc, char **argv)
{
    using namespace hima;

    // --stats-interval N: print the router's telemetry registry every N
    // steps and dump the Prometheus text at exit.
    const Index statsInterval =
        extractFlag(argc, argv, "--stats-interval", 0);

    DncConfig cfg = demoServeConfig();
    cfg.batchSize = positiveArg(argc, argv, 1, 8);
    cfg.numThreads = positiveArg(argc, argv, 2, 2);

    ArrivalSpec spec;
    spec.rate = positiveRealArg(argc, argv, 3, 0.20);
    const Index horizon = positiveArg(argc, argv, 4, 400);
    if (cfg.batchSize == 0 || cfg.numThreads == 0 || spec.rate <= 0.0 ||
        horizon == 0) {
        std::fprintf(stderr,
                     "usage: router_demo [lanes >= 1] [threads >= 1] "
                     "[rate > 0] [horizon >= 1]\n");
        return 1;
    }
    const Index printEvery = std::max<Index>(1, horizon / 8);

    std::printf("router_demo: %zu lanes, %zu threads, %.2f arrivals/step, "
                "horizon %zu\n\n",
                cfg.batchSize, cfg.numThreads, spec.rate, horizon);

    Rng traceRng(2026);
    const auto trace = makeArrivalTrace(spec, horizon, traceRng);

    Router router(cfg, 1);
    std::size_t next = 0;
    while (next < trace.size() || !router.idle()) {
        while (next < trace.size() && trace[next].step <= router.now()) {
            ServeRequest request;
            request.id = trace[next].ordinal;
            request.tokens = requestTokens(trace[next], cfg.inputSize, 7);
            router.submit(std::move(request));
            ++next;
        }
        router.step();
        if (router.now() % printEvery == 0)
            std::printf("  step %4zu: %2zu active, %2zu queued, %4zu done\n",
                        router.now(), router.activeRequests(),
                        router.queuedRequests(), router.completed().size());
        if (statsInterval != 0 && router.now() % statsInterval == 0) {
            obs::Snapshot snap;
            obs::processSnapshot(snap);
            const obs::SnapshotEntry *steps = snap.find("router.steps");
            const obs::SnapshotEntry *nanos =
                snap.find("router.step_nanos");
            std::printf("  [stats] router.steps=%llu  step p95=%llu "
                        "ns  series=%zu\n",
                        static_cast<unsigned long long>(
                            steps ? steps->counter : 0),
                        static_cast<unsigned long long>(
                            nanos ? nanos->hist.percentile(0.95) : 0),
                        snap.entries.size());
        }
    }

    std::vector<double> latency, queueing;
    for (const ServeResult &result : router.completed()) {
        latency.push_back(static_cast<double>(result.latencySteps()));
        queueing.push_back(static_cast<double>(result.queueSteps()));
    }
    std::printf("  served %zu requests in %zu steps",
                router.completed().size(), router.now());
    if (router.rejectedRequests())
        std::printf(" (%zu rejected by queue back-pressure)",
                    router.rejectedRequests());
    std::printf("\n");
    const std::vector<Real> lat =
        percentiles(std::move(latency), {0.50, 0.95, 0.99});
    std::printf("  latency steps: p50 %.0f  p95 %.0f  p99 %.0f "
                "(queue-wait p95: %.0f)\n\n",
                lat[0], lat[1], lat[2],
                percentile(std::move(queueing), 0.95));

    if (statsInterval != 0) {
        obs::Snapshot snap;
        obs::processSnapshot(snap);
        std::string text;
        obs::renderPrometheus(snap, text);
        std::printf("telemetry registry (Prometheus text):\n%s",
                    text.c_str());
    }
    return 0;
}
