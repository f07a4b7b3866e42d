/**
 * @file
 * Bridges from the stack's pre-existing instrumentation into the
 * unified metrics snapshot.
 */

#include "obs/obs.h"

#include "common/stats.h"
#include "dnc/dnc_config.h"
#include "dnc/kernel_profiler.h"
#include "shard/transport.h"

namespace hima {
namespace obs {

void
applyTelemetryConfig(const DncConfig &config)
{
    setMetricsEnabled(config.telemetryMetrics);
    setTracingEnabled(config.telemetryTracing);
}

void
processSnapshot(Snapshot &out)
{
    Registry::instance().snapshot(out);
}

namespace {

/** Metric-name slugs for the profiler categories (stable, lowercase). */
const char *
categorySlug(KernelCategory c)
{
    switch (c) {
      case KernelCategory::ContentWeighting:
        return "content_weighting";
      case KernelCategory::MemoryAccess:
        return "memory_access";
      case KernelCategory::HistoryWrite:
        return "history_write";
      case KernelCategory::HistoryRead:
        return "history_read";
      case KernelCategory::Nn:
        return "nn";
      default:
        return "unknown";
    }
}

void
importCounters(Snapshot &out, const std::string &base,
               const KernelCounters &c)
{
    out.addCounter(base + ".invocations", c.invocations);
    out.addCounter(base + ".total_ops", c.totalOps());
    out.addCounter(base + ".ext_mem_accesses", c.extMemAccesses);
    out.addCounter(base + ".state_mem_accesses", c.stateMemAccesses);
    out.addCounter(base + ".nanoseconds", c.nanoseconds);
    out.addCounter(base + ".skipped_rows", c.skippedRows);
    out.addCounter(base + ".skipped_ops", c.skippedOps);
}

/** "LaneStepReply" -> "lane_step_reply"; slot 0 (unparsed) -> "bad". */
std::string
msgTypeSlug(std::size_t slot)
{
    if (slot == 0)
        return "bad";
    const char *name = msgTypeName(static_cast<MsgType>(slot));
    std::string slug;
    for (const char *p = name; *p; ++p) {
        const char c = *p;
        if (c >= 'A' && c <= 'Z') {
            if (!slug.empty())
                slug.push_back('_');
            slug.push_back(static_cast<char>(c - 'A' + 'a'));
        } else {
            slug.push_back(c);
        }
    }
    return slug;
}

void
importDirection(Snapshot &out, const WireTrafficStats &stats,
                const std::string &base)
{
    for (std::size_t slot = 0; slot < kMsgTypeCount; ++slot) {
        if (stats.frames[slot] == 0 && stats.bytes[slot] == 0)
            continue;
        const std::string series = base + "." + msgTypeSlug(slot);
        out.addCounter(series + ".frames", stats.frames[slot]);
        out.addCounter(series + ".bytes", stats.bytes[slot]);
    }
}

} // namespace

void
importKernelProfiler(Snapshot &out, const KernelProfiler &profiler,
                     const std::string &prefix)
{
    for (int c = 0;
         c < static_cast<int>(KernelCategory::NumCategories); ++c) {
        const KernelCategory cat = static_cast<KernelCategory>(c);
        importCounters(out, prefix + "." + categorySlug(cat),
                       profiler.categoryTotal(cat));
    }
    importCounters(out, prefix + ".total", profiler.grandTotal());
}

void
importStatRegistry(Snapshot &out, const StatRegistry &stats,
                   const std::string &prefix)
{
    for (const auto &[name, value] : stats.all()) {
        if (prefix.empty())
            out.addCounter(name, value);
        else
            out.addCounter(prefix + "." + name, value);
    }
}

void
importWireTraffic(Snapshot &out, const WireTrafficStats &sent,
                  const WireTrafficStats &received,
                  const std::string &prefix)
{
    importDirection(out, sent, prefix + ".tx");
    importDirection(out, received, prefix + ".rx");
}

} // namespace obs
} // namespace hima
