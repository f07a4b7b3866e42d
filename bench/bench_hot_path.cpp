/**
 * @file
 * Hot-path throughput benchmark: wall-clock timesteps/sec of the DNC
 * memory unit, comparing the dense oracle (tests/dense_oracle.h, the
 * seed implementation's kernels) against the allocation-free,
 * active-set sparse MemoryUnit, plus DNC-D tile scaling on the thread
 * pool. Emits BENCH_hot_path.json so the perf trajectory is tracked
 * across PRs.
 *
 * The oracle sweeps every row with bounds-checked element accessors,
 * value-returning kernels that allocate every temporary, and per-head
 * O(N*W) row-norm recomputes in content addressing. Both implement
 * identical math: the bench gates the MemoryUnit against the oracle
 * bit for bit before timing anything, and the active-row curve times
 * the oracle as its dense baseline. Every rate is the median of
 * kBenchWindows timing windows (benchRates); each oracle rate and each
 * `*_vs_oracle` ratio also records the windows' min and max.
 *
 * `--smoke` runs the gate plus a reduced grid (small N) — the sanitizer
 * CI job's configuration.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/bench_env.h"
#include "common/random.h"
#include "dnc/dncd.h"
#include "dnc/memory_unit.h"

#include "../tests/dense_oracle.h"

namespace hima {
namespace {

// --------------------------------------------------------------------
// Harness.
// --------------------------------------------------------------------

DncConfig
benchConfig(Index n)
{
    DncConfig cfg;
    cfg.memoryRows = n;
    cfg.memoryWidth = 64;
    cfg.readHeads = 4;
    return cfg;
}

InterfaceVector
benchIface(const DncConfig &cfg, Rng &rng)
{
    InterfaceVector iface;
    iface.readKeys.clear();
    for (Index h = 0; h < cfg.readHeads; ++h)
        iface.readKeys.push_back(rng.normalVector(cfg.memoryWidth));
    iface.readStrengths.assign(cfg.readHeads, 5.0);
    iface.writeKey = rng.normalVector(cfg.memoryWidth);
    iface.writeStrength = 5.0;
    iface.eraseVector = Vector(cfg.memoryWidth, 0.5);
    iface.writeVector = rng.normalVector(cfg.memoryWidth);
    iface.freeGates.assign(cfg.readHeads, 0.1);
    iface.allocationGate = 0.9;
    iface.writeGate = 1.0;
    iface.readModes.assign(cfg.readHeads, ReadMode{0.1, 0.8, 0.1});
    return iface;
}

/**
 * Bit-exact gate of the MemoryUnit against the dense oracle over both
 * regimes: the early-episode allocation traffic the sparse paths are
 * built for (one-hot writes, most rows never touched) and mixed soft
 * traffic, with an episode reset (and a fresh oracle) every 40 steps.
 * Compares readouts and the full recurrent state every step; the bench
 * refuses to time if a single bit differs.
 */
bool
oracleGate()
{
    const DncConfig cfg = benchConfig(256);
    MemoryUnit unit(cfg);
    MemoryReadout out;
    Rng rng(99);
    for (int episode = 0; episode < 3; ++episode) {
        unit.reset();
        oracle::MemoryUnitSim ref(cfg);
        for (int t = 0; t < 40; ++t) {
            InterfaceVector iface = benchIface(cfg, rng);
            if (episode == 0) {
                // Early-episode regime: pure allocation-gated writes.
                iface.allocationGate = 1.0;
                iface.writeGate = 1.0;
            } else {
                iface.allocationGate = rng.uniform();
                iface.writeGate = rng.uniform(0.3, 1.0);
            }
            const MemoryReadout expect = ref.step(iface);
            unit.stepInto(iface, out);
            for (Index h = 0; h < cfg.readHeads; ++h) {
                if (!(expect.readVectors[h] == out.readVectors[h]) ||
                    !(expect.readWeightings[h] == out.readWeightings[h]))
                    return false;
            }
            if (!(expect.writeWeighting == out.writeWeighting) ||
                !(ref.memory == unit.memory()) ||
                !(ref.usage == unit.usage()) ||
                !(ref.linkage == unit.linkage().linkage()) ||
                !(ref.precedence == unit.linkage().precedence()))
                return false;
        }
    }
    return true;
}

struct SingleTileResult
{
    Index n;
    BenchRate legacy; ///< the dense oracle
    double optimizedStepsPerSec;
    BenchRate speedup; ///< optimized vs oracle
};

struct DncdResult
{
    Index n;
    Index tiles;
    Index threads;
    double stepsPerSec;
};

/** The early-episode workload's interface: one-hot allocation writes. */
InterfaceVector
earlyEpisodeIface(const DncConfig &cfg)
{
    Rng rng(7);
    InterfaceVector iface = benchIface(cfg, rng);
    iface.allocationGate = 1.0;
    iface.writeGate = 1.0;
    return iface;
}

// --------------------------------------------------------------------
// Active-row sweeps: throughput of the sparse O(A*N) kernels vs the
// dense oracle's O(N^2) ones on the regime they target — early-episode
// serving, where allocation-gated writes are one-hot and A stays <= N/4.
// --------------------------------------------------------------------

/**
 * Timesteps/s of an early-episode serving loop at `cfg`'s N: pure
 * allocation-gated writes with an episode reset every `episodeLen`
 * steps, so at most episodeLen slots ever hold linkage mass. Also
 * reports, via the profiler's skipped-row counters, the mean active
 * linkage rows per step and the mean zero-norm rows the read stage
 * skipped per scored content weighting (the write CW plus R read CRs
 * each count one).
 */
BenchRate
earlyEpisodeRate(const DncConfig &cfg, Index episodeLen, double *meanActive,
                 double *readSkippedPerScore)
{
    const InterfaceVector iface = earlyEpisodeIface(cfg);
    MemoryUnit mu(cfg);
    MemoryReadout out;
    long stepCount = 0;
    const BenchRate rate = benchRates([&] {
        if (stepCount % static_cast<long>(episodeLen) == 0)
            mu.reset();
        ++stepCount;
        mu.stepInto(iface, out);
    });
    const KernelCounters &link = mu.profiler().at(Kernel::Linkage);
    const double skippedPerStep =
        link.invocations == 0
            ? 0.0
            : static_cast<double>(link.skippedRows) /
                  static_cast<double>(link.invocations);
    *meanActive = static_cast<double>(cfg.memoryRows) - skippedPerStep;
    const KernelCounters &sim = mu.profiler().at(Kernel::Similarity);
    *readSkippedPerScore =
        sim.invocations == 0 ? 0.0
                             : static_cast<double>(sim.skippedRows) /
                                   static_cast<double>(sim.invocations);
    return rate;
}

/**
 * Dense baseline of the active-row curve: the oracle's timesteps/s on
 * earlyEpisodeRate's workload at benchConfig(n), episodes of n/4 steps
 * (a fresh oracle per episode).
 */
BenchRate
oracleEarlyRate(Index n)
{
    const DncConfig cfg = benchConfig(n);
    const InterfaceVector iface = earlyEpisodeIface(cfg);
    const long episodeLen = static_cast<long>(n / 4);
    oracle::MemoryUnitSim sim(cfg);
    long stepCount = 0;
    return benchRates([&] {
        if (stepCount % episodeLen == 0)
            sim = oracle::MemoryUnitSim(cfg);
        ++stepCount;
        sim.step(iface);
    });
}

/**
 * Ratio range of two measurements: the median ratio, and the extremes
 * their windows allow (slowest numerator window over fastest
 * denominator window, and the reverse).
 */
BenchRate
ratioOf(const BenchRate &num, const BenchRate &den)
{
    return {num.median / den.median, num.min / den.max, num.max / den.min};
}

struct ActiveCurvePoint
{
    Index n;
    Index episodeLen;
    double meanActiveRows;
    double meanReadSkippedRows; ///< zero-norm rows skipped per content score
    BenchRate sparse;
    BenchRate oracle;
    BenchRate speedup; ///< sparse vs oracle
};

/**
 * Measured A-vs-N curve: for each memory size, the mean active-row
 * count, the read stage's zero-norm skips and the sparse-vs-oracle
 * throughput on the same early-episode workload (episodes of N/4
 * steps).
 */
std::vector<ActiveCurvePoint>
activeRowsCurve(bool smoke)
{
    const std::vector<Index> ns = smoke ? std::vector<Index>{64, 256}
                                        : std::vector<Index>{256, 1024, 4096};
    std::vector<ActiveCurvePoint> curve;
    for (Index n : ns) {
        const Index episodeLen = n / 4;
        double meanActive = 0.0;
        double readSkipped = 0.0;
        const BenchRate sparse = earlyEpisodeRate(
            benchConfig(n), episodeLen, &meanActive, &readSkipped);
        const BenchRate dense = oracleEarlyRate(n);
        const BenchRate speedup = ratioOf(sparse, dense);
        curve.push_back({n, episodeLen, meanActive, readSkipped, sparse,
                         dense, speedup});
        std::printf("activeRows N=%5zu  mean A %7.1f  read-skip %7.1f "
                    "rows/score  sparse %10.1f steps/s  oracle %10.1f "
                    "[%.1f, %.1f] steps/s  speedup %.2fx [%.2f, %.2f]\n",
                    n, meanActive, readSkipped, sparse.median,
                    dense.median, dense.min, dense.max, speedup.median,
                    speedup.min, speedup.max);
    }
    return curve;
}

} // namespace
} // namespace hima

int
main(int argc, char **argv)
{
    using namespace hima;

    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    if (!oracleGate()) {
        std::fprintf(stderr,
                     "FATAL: MemoryUnit diverged from the dense oracle — "
                     "refusing to benchmark unequal computations\n");
        return 1;
    }
    std::printf("oracle gate: MemoryUnit and dense oracle bit-identical "
                "(one-hot and soft traffic, with resets)\n");

    const std::vector<Index> sizes =
        smoke ? std::vector<Index>{64, 256}
              : std::vector<Index>{64, 256, 1024, 4096};
    std::vector<SingleTileResult> single;
    for (Index n : sizes) {
        const DncConfig cfg = benchConfig(n);
        Rng rng(7);
        const InterfaceVector iface = benchIface(cfg, rng);

        oracle::MemoryUnitSim oracleSim(cfg);
        const BenchRate legacy =
            benchRates([&] { oracleSim.step(iface); });

        MemoryUnit mu(cfg);
        MemoryReadout out;
        const BenchRate optimized =
            benchRates([&] { mu.stepInto(iface, out); });

        const BenchRate speedup = ratioOf(optimized, legacy);
        single.push_back({n, legacy, optimized.median, speedup});
        std::printf("N=%5zu  legacy %10.1f [%.1f, %.1f] steps/s   "
                    "optimized %10.1f steps/s   speedup %.2fx [%.2f, "
                    "%.2f]\n",
                    n, legacy.median, legacy.min, legacy.max,
                    optimized.median, speedup.median, speedup.min,
                    speedup.max);
    }

    const std::vector<Index> tileCounts =
        smoke ? std::vector<Index>{1} : std::vector<Index>{1, 4, 16};
    const std::vector<Index> threadCounts =
        smoke ? std::vector<Index>{1} : std::vector<Index>{1, 4};
    std::vector<DncdResult> dncd;
    const Index dncdRows = 1024;
    for (Index tiles : tileCounts) {
        for (Index threads : threadCounts) {
            DncConfig cfg = benchConfig(dncdRows);
            cfg.numThreads = threads;
            DncD model(cfg, tiles);
            Rng rng(11);
            const InterfaceVector iface = benchIface(cfg, rng);
            const double rate = benchStepsPerSecond(
                [&] { model.stepInterface(iface); });
            dncd.push_back({dncdRows, tiles, threads, rate});
            std::printf("DNC-D N=%zu tiles=%2zu threads=%zu  %10.1f "
                        "steps/s\n",
                        dncdRows, tiles, threads, rate);
        }
    }

    double scaling16 = 0.0;
    {
        double t1 = 0.0, t4 = 0.0;
        for (const DncdResult &r : dncd) {
            if (r.tiles == 16 && r.threads == 1)
                t1 = r.stepsPerSec;
            if (r.tiles == 16 && r.threads == 4)
                t4 = r.stepsPerSec;
        }
        if (t1 > 0.0)
            scaling16 = t4 / t1;
    }

    std::printf("\nactive rows vs N (early-episode):\n");
    const std::vector<ActiveCurvePoint> curve = activeRowsCurve(smoke);

    double headline = 0.0;
    for (const SingleTileResult &r : single)
        if (r.n == 1024)
            headline = r.speedup.median;
    double earlyHeadline = 0.0;
    for (const ActiveCurvePoint &r : curve)
        if (r.n == 1024)
            earlyHeadline = r.speedup.median;

    FILE *json = std::fopen("BENCH_hot_path.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot open BENCH_hot_path.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    writeBenchContext(json);
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json,
                 "  \"config\": {\"memory_width\": 64, \"read_heads\": 4},\n");
    std::fprintf(json, "  \"single_tile\": [\n");
    for (std::size_t i = 0; i < single.size(); ++i) {
        const SingleTileResult &r = single[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"legacy_steps_per_sec\": %.2f, "
                     "\"legacy_steps_per_sec_min\": %.2f, "
                     "\"legacy_steps_per_sec_max\": %.2f, "
                     "\"optimized_steps_per_sec\": %.2f, "
                     "\"speedup_vs_oracle\": %.3f, "
                     "\"speedup_vs_oracle_min\": %.3f, "
                     "\"speedup_vs_oracle_max\": %.3f}%s\n",
                     r.n, r.legacy.median, r.legacy.min, r.legacy.max,
                     r.optimizedStepsPerSec, r.speedup.median,
                     r.speedup.min, r.speedup.max,
                     i + 1 < single.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"dncd\": [\n");
    for (std::size_t i = 0; i < dncd.size(); ++i) {
        const DncdResult &r = dncd[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"tiles\": %zu, \"threads\": %zu, "
                     "\"steps_per_sec\": %.2f}%s\n",
                     r.n, r.tiles, r.threads, r.stepsPerSec,
                     i + 1 < dncd.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"dncd_thread_scaling_16_tiles\": "
                 "{\"threads4_over_threads1\": %.3f},\n",
                 scaling16);
    std::fprintf(json, "  \"linkage_active_rows_curve\": [\n");
    for (std::size_t i = 0; i < curve.size(); ++i) {
        const ActiveCurvePoint &r = curve[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"episode_len\": %zu, "
                     "\"mean_active_rows\": %.1f, "
                     "\"mean_read_skipped_rows_per_score\": %.1f, "
                     "\"sparse_steps_per_sec\": %.2f, "
                     "\"oracle_steps_per_sec\": %.2f, "
                     "\"oracle_steps_per_sec_min\": %.2f, "
                     "\"oracle_steps_per_sec_max\": %.2f, "
                     "\"speedup_vs_oracle\": %.3f, "
                     "\"speedup_vs_oracle_min\": %.3f, "
                     "\"speedup_vs_oracle_max\": %.3f}%s\n",
                     r.n, r.episodeLen, r.meanActiveRows,
                     r.meanReadSkippedRows, r.sparse.median,
                     r.oracle.median, r.oracle.min, r.oracle.max,
                     r.speedup.median, r.speedup.min, r.speedup.max,
                     i + 1 < curve.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"headline\": {\"n1024_speedup_vs_oracle\": %.3f, "
                 "\"n1024_early_episode_speedup_vs_oracle\": %.3f}\n",
                 headline, earlyHeadline);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_hot_path.json (N=1024 speedup %.2fx, "
                "16-tile 4-thread scaling %.2fx, early-episode speedup "
                "%.2fx)\n",
                headline, scaling16, earlyHeadline);
    return 0;
}
