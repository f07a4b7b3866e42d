/**
 * @file
 * Phase tracing: fixed-capacity per-thread rings of span/instant
 * events, RAII span guards for the hot paths, and a Chrome
 * trace-event JSON export loadable in Perfetto (ui.perfetto.dev).
 *
 * Contract with the hot path:
 *
 *   - Event names are string literals (the ring stores the pointer,
 *     never copies) and an event is one struct write into a
 *     pre-sized per-thread ring — no allocation in steady state. The
 *     ring itself is allocated once, on the thread's *first* event;
 *     threads that trace inside an allocation-audited loop warm up
 *     with one event beforehand, same as metric registration.
 *   - Rings wrap: when a thread emits more events than the ring holds
 *     the oldest are overwritten. The exporter drops the resulting
 *     unmatched end/begin events so the JSON is always balanced.
 *   - Tracing defaults OFF (unlike metrics) — spans cost a clock read
 *     plus a short critical section on the thread's own ring, which
 *     is measurable on nanosecond-scale phases. Toggle with
 *     setTracingEnabled / DncConfig::telemetryTracing.
 *   - Under HIMA_OBS_DISABLED every guard folds to constant false and
 *     the span objects become empty.
 */

#ifndef HIMA_OBS_TRACE_H
#define HIMA_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hima {
namespace obs {

#ifdef HIMA_OBS_DISABLED
inline bool tracingEnabled() { return false; }
inline void setTracingEnabled(bool) {}
#else
namespace detail {
extern std::atomic<bool> g_tracingEnabled;
}

inline bool
tracingEnabled()
{
    return detail::g_tracingEnabled.load(std::memory_order_relaxed);
}

inline void
setTracingEnabled(bool on)
{
    detail::g_tracingEnabled.store(on, std::memory_order_relaxed);
}
#endif

/**
 * Per-thread ring capacity (events) used by rings created *after* the
 * call; existing rings keep their size, so set it before any worker
 * thread starts. Defaults to 4096 events.
 */
void setTraceCapacity(std::size_t events);

/** Monotonic nanoseconds since process start (trace timebase). */
std::uint64_t traceNowNanos();

/**
 * Record one event. `name` MUST be a string literal (or otherwise
 * outlive the export); `arg` is a free u64 shown in Perfetto.
 */
void traceBegin(const char *name, std::uint64_t arg = 0);
void traceEnd(const char *name);
void traceInstant(const char *name, std::uint64_t arg = 0);

/** RAII span: begin on construction, end on destruction. */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, std::uint64_t arg = 0)
    {
        if (tracingEnabled()) {
            name_ = name;
            traceBegin(name, arg);
        }
    }

    ~TraceSpan()
    {
        if (name_)
            traceEnd(name_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_ = nullptr;
};

/**
 * Export every thread's ring as one Chrome trace-event JSON object
 * ({"traceEvents": [...]}), appended to `out`. Events are sorted by
 * timestamp and unmatched begin/end pairs (ring wraparound, still-open
 * spans) are dropped so the result always has balanced spans.
 */
void traceExportJson(std::string &out);

/** traceExportJson straight to a file; false on I/O error. */
bool traceWriteFile(const char *path);

/** Drop every recorded event (tests, bench reruns). */
void traceReset();

} // namespace obs
} // namespace hima

#endif // HIMA_OBS_TRACE_H
