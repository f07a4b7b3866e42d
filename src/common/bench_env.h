/**
 * @file
 * Shared context stamped into every BENCH_*.json emitter, so a checked-
 * in result is self-describing: the ROADMAP's "this was a 1-hardware-
 * thread container" caveat is machine-readable (`hardware_threads`),
 * and `git_sha` pins the result to the code that produced it — the CI
 * artifact (multi-core) is distinguishable from a laptop run by its
 * fields alone.
 */

#ifndef HIMA_COMMON_BENCH_ENV_H
#define HIMA_COMMON_BENCH_ENV_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/metrics.h"

namespace hima {

/** Hardware threads visible to this process (always >= 1). */
unsigned hardwareThreads();

/**
 * Abbreviated git SHA captured at CMake configure time; "unknown" when
 * the build tree was configured outside a git checkout.
 */
const char *buildGitSha();

/**
 * Write the shared context fields ("hardware_threads", "git_sha") into
 * an open JSON object, trailing comma included — call it right after
 * the opening brace.
 */
void writeBenchContext(std::FILE *json);

/**
 * Write a telemetry snapshot as one JSON object keyed by metric name:
 * counters and gauges as bare integers, histograms as
 * {count, mean, p50, p95, p99, max} summaries. The shared shape every
 * BENCH_*.json telemetry row uses.
 */
void writeTelemetrySnapshot(std::FILE *json, const obs::Snapshot &snapshot);

/** Per-window rates of one benchRates() measurement, in steps/s. */
struct BenchRate
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Timing windows per measurement (see benchRates()). */
constexpr int kBenchWindows = 5;

/**
 * Shared timing loop of the bench harnesses: run `stepFn` once to warm
 * caches/size buffers, then time kBenchWindows whole windows back to
 * back — each repeats `stepFn` until `minSeconds` elapse (or
 * `maxIters` as a runaway bound) — and return the median, min and max
 * of the windows' iterations per second. The median keeps one disturbed window (a
 * preempted core, a page-fault burst) out of the result, and min/max
 * record how far the windows spread. One copy here so every bench
 * measures with the same methodology.
 */
template <typename StepFn>
BenchRate
benchRates(StepFn &&stepFn, double minSeconds = 0.25,
           long maxIters = 200000)
{
    using Clock = std::chrono::steady_clock;
    stepFn(); // warmup
    std::vector<double> rates;
    rates.reserve(kBenchWindows);
    for (int wnd = 0; wnd < kBenchWindows; ++wnd) {
        long iters = 0;
        double elapsed = 0.0;
        const auto start = Clock::now();
        while (elapsed < minSeconds && iters < maxIters) {
            stepFn();
            ++iters;
            elapsed =
                std::chrono::duration<double>(Clock::now() - start).count();
        }
        rates.push_back(static_cast<double>(iters) / elapsed);
    }
    std::sort(rates.begin(), rates.end());
    return {rates[rates.size() / 2], rates.front(), rates.back()};
}

/** The median of benchRates(): steps/s over kBenchWindows windows. */
template <typename StepFn>
double
benchStepsPerSecond(StepFn &&stepFn, double minSeconds = 0.25,
                    long maxIters = 200000)
{
    return benchRates(stepFn, minSeconds, maxIters).median;
}

} // namespace hima

#endif // HIMA_COMMON_BENCH_ENV_H
