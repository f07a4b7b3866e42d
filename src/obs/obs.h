/**
 * @file
 * Telemetry umbrella: pulls the metrics registry and phase tracing
 * together and bridges the stack's pre-existing instrumentation —
 * KernelProfiler category totals, StatRegistry counters, per-channel
 * WireTrafficStats — into named series of one obs::Snapshot, so one
 * scrape answers for the whole process.
 *
 * Naming scheme ('.'-separated, lowercase, sorts by subsystem):
 *
 *     kernel.<category>.{nanoseconds,invocations,total_ops,...}
 *     wire.{tx,rx}.<msgtype>.{frames,bytes}
 *     router.{...}   shard.{...}   transport.{...}   recover.{...}
 *
 * plus whatever '.'-paths a StatRegistry import carries verbatim.
 */

#ifndef HIMA_OBS_OBS_H
#define HIMA_OBS_OBS_H

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hima {

struct DncConfig;
class KernelProfiler;
class StatRegistry;
struct WireTrafficStats;

namespace obs {

/**
 * Land DncConfig's telemetry* knobs: the metrics toggle and the
 * tracing toggle. The per-thread trace ring capacity is set by
 * setTraceCapacity().
 */
void applyTelemetryConfig(const DncConfig &config);

/** This process's registry, scraped into `out` (cleared first). */
void processSnapshot(Snapshot &out);

/**
 * Fold one KernelProfiler into `out` as per-category counter series
 * under `prefix` ("kernel.content_weighting.nanoseconds", ...), plus a
 * grand-total block under "<prefix>.total.".
 */
void importKernelProfiler(Snapshot &out, const KernelProfiler &profiler,
                          const std::string &prefix = "kernel");

/**
 * Absorb a StatRegistry: every named scalar becomes a counter series
 * with the same '.'-path (optionally re-rooted under `prefix`).
 */
void importStatRegistry(Snapshot &out, const StatRegistry &stats,
                        const std::string &prefix = "");

/**
 * Fold one channel's directional traffic counters into `out` as
 * "<prefix>.{tx,rx}.<msgtype>.{frames,bytes}" series (message types
 * with zero frames are skipped; the unparsed slot reports as "bad").
 */
void importWireTraffic(Snapshot &out, const WireTrafficStats &sent,
                       const WireTrafficStats &received,
                       const std::string &prefix = "wire");

} // namespace obs
} // namespace hima

#endif // HIMA_OBS_OBS_H
