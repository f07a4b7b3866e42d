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
 * bit for bit before timing anything, and the sparsity sweeps time the
 * oracle as their dense baseline.
 *
 * `--smoke` runs the gate plus a reduced grid (small N, short sweeps)
 * — the sanitizer CI job's configuration.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_env.h"
#include "common/math_util.h"
#include "common/random.h"
#include "dnc/dncd.h"
#include "dnc/memory_unit.h"
#include "workload/retrieval.h"
#include "workload/task_suite.h"

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
    double legacyStepsPerSec;
    double optimizedStepsPerSec;
    double speedup;
};

struct DncdResult
{
    Index n;
    Index tiles;
    Index threads;
    double stepsPerSec;
};

// --------------------------------------------------------------------
// Exactness-vs-speed knob (Fig. 10-style): sweep writeSkipThreshold,
// reporting memory-unit timesteps/s at the paper's N alongside the
// retrieval-task error-rate delta vs the exact (threshold 0) run.
// --------------------------------------------------------------------

struct SkipResult
{
    Real threshold;
    double stepsPerSec;  ///< MemoryUnit stepInto at N=1024
    double errorRate;    ///< mean over the retrieval task subset
    double errorDelta;   ///< errorRate - exact baseline
    double cosineMargin; ///< mean correct-answer margin (continuous)
    double marginDelta;  ///< cosineMargin - exact baseline
    double readRms;      ///< read-vector RMS divergence on soft traffic
};

/**
 * Mean retrieval-task error rate and cosine margin for a Dnc built
 * from `cfg`: the shared accuracy leg of the writeSkipThreshold and
 * linkageSkipThreshold sweeps (fewer episodes under --smoke).
 */
std::pair<double, double>
retrievalAccuracy(const DncConfig &cfg, bool smoke)
{
    Dnc model(cfg, 3);
    TokenCodebook keys(64, cfg.memoryWidth / 2, 1);
    TokenCodebook values(64, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    Rng episodeRng(11);
    const auto suite = taskSuite();
    const Index tasks = smoke ? 2 : 8;
    double err = 0.0;
    double margin = 0.0;
    for (Index t = 0; t < tasks; ++t) {
        const Episode ep = makeEpisode(suite[t], 64, episodeRng);
        const EpisodeResult res = runEpisode(model, scripter, ep);
        err += res.errorRate();
        margin += res.meanScore;
    }
    return {err / static_cast<double>(tasks),
            margin / static_cast<double>(tasks)};
}

/**
 * State-level exactness loss: lockstep a skipping MemoryUnit against an
 * exact one on randomized *soft* traffic (mixed content/allocation
 * writes, spread weightings — where sub-threshold rows actually carry
 * mass) and report the RMS divergence of the read vectors. This is the
 * knob's true error signal; the scripted retrieval tasks above sit in
 * the one-hot regime where it never surfaces as task error.
 */
double
readDivergence(const DncConfig &skipCfg)
{
    DncConfig exactCfg = benchConfig(skipCfg.memoryRows);
    MemoryUnit exact(exactCfg);
    MemoryUnit skip(skipCfg);
    MemoryReadout outA, outB;
    Rng rng(77);
    double sumSq = 0.0;
    std::uint64_t count = 0;
    for (int step = 0; step < 50; ++step) {
        InterfaceVector iface = benchIface(exactCfg, rng);
        iface.allocationGate = rng.uniform(); // mix content-heavy writes
        iface.writeGate = rng.uniform(0.3, 1.0);
        exact.stepInto(iface, outA);
        skip.stepInto(iface, outB);
        for (Index h = 0; h < exactCfg.readHeads; ++h) {
            for (Index i = 0; i < exactCfg.memoryWidth; ++i) {
                const double d =
                    outA.readVectors[h][i] - outB.readVectors[h][i];
                sumSq += d * d;
                ++count;
            }
        }
    }
    return std::sqrt(sumSq / static_cast<double>(count));
}

std::vector<SkipResult>
writeSkipSweep(bool smoke)
{
    const std::vector<Real> thresholds =
        smoke ? std::vector<Real>{0.0, 1e-6}
              : std::vector<Real>{0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.2};
    std::vector<SkipResult> results;
    double baseErr = 0.0;
    double baseMargin = 0.0;
    for (Real th : thresholds) {
        // Throughput leg: the same N=1024 hot loop the headline uses.
        DncConfig cfg = benchConfig(smoke ? 256 : 1024);
        cfg.writeSkipThreshold = th;
        Rng rng(7);
        const InterfaceVector iface = benchIface(cfg, rng);
        MemoryUnit mu(cfg);
        MemoryReadout out;
        const double rate =
            benchStepsPerSecond([&] { mu.stepInto(iface, out); });

        // Accuracy leg: scripted retrieval episodes from the task suite
        // through a full Dnc with the same knob.
        DncConfig acc = benchConfig(256);
        acc.writeSkipThreshold = th;
        const auto [err, margin] = retrievalAccuracy(acc, smoke);
        if (th == 0.0) {
            baseErr = err;
            baseMargin = margin;
        }
        DncConfig div = benchConfig(256);
        div.writeSkipThreshold = th;
        const double rms = readDivergence(div);
        results.push_back({th, rate, err, err - baseErr, margin,
                           margin - baseMargin, rms});
        std::printf("writeSkip %.0e  %10.1f steps/s  error %.4f "
                    "(delta %+.4f)  margin %.5f  read RMS div %.2e\n",
                    th, rate, err, err - baseErr, margin, rms);
    }
    return results;
}

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
// Active-row linkage sweep: throughput of the sparse O(A*N) sweep vs
// the dense oracle's O(N^2) one on the regime it targets — early-
// episode serving, where allocation-gated writes are one-hot and A
// stays <= N/4 — plus a linkageSkipThreshold exactness
// sweep in the same Fig. 10 style as writeSkipThreshold above.
// --------------------------------------------------------------------

struct LinkSkipResult
{
    Real threshold;
    double earlyStepsPerSec;   ///< episodic allocation traffic, A <= N/4
    double earlySpeedup;       ///< vs the dense oracle
    double meanActiveRows;     ///< measured A over the early-episode run
    double steadyStepsPerSec;  ///< soft traffic, no resets (dense regime)
    double errorRate;          ///< mean over the retrieval task subset
    double errorDelta;         ///< errorRate - exact baseline
    double readRms;            ///< read-vector RMS divergence, soft traffic
};

/**
 * Timesteps/s of an early-episode serving loop at `cfg`'s N: pure
 * allocation-gated writes with an episode reset every `episodeLen`
 * steps, so at most episodeLen slots ever hold linkage mass. Also
 * reports the measured mean active rows per step via the profiler's
 * skipped-row counters.
 */
double
earlyEpisodeRate(const DncConfig &cfg, Index episodeLen, double *meanActive,
                 double *readSkippedPerScore = nullptr)
{
    const InterfaceVector iface = earlyEpisodeIface(cfg);
    MemoryUnit mu(cfg);
    MemoryReadout out;
    long stepCount = 0;
    const double rate = benchStepsPerSecond([&] {
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
    if (readSkippedPerScore) {
        // Mean zero-norm rows the read stage skipped per scored content
        // weighting (the write CW plus R read CRs each count one).
        const KernelCounters &sim = mu.profiler().at(Kernel::Similarity);
        *readSkippedPerScore =
            sim.invocations == 0
                ? 0.0
                : static_cast<double>(sim.skippedRows) /
                      static_cast<double>(sim.invocations);
    }
    return rate;
}

/**
 * Dense baseline of the sparsity sweeps: the oracle's timesteps/s on
 * earlyEpisodeRate's workload at benchConfig(n), episodes of n/4 steps
 * (a fresh oracle per episode). Measured once per n and shared.
 */
double
oracleEarlyRate(Index n)
{
    static std::map<Index, double> measured;
    const auto it = measured.find(n);
    if (it != measured.end())
        return it->second;
    const DncConfig cfg = benchConfig(n);
    const InterfaceVector iface = earlyEpisodeIface(cfg);
    const long episodeLen = static_cast<long>(n / 4);
    oracle::MemoryUnitSim sim(cfg);
    long stepCount = 0;
    const double rate = benchStepsPerSecond([&] {
        if (stepCount % episodeLen == 0)
            sim = oracle::MemoryUnitSim(cfg);
        ++stepCount;
        sim.step(iface);
    });
    measured.emplace(n, rate);
    return rate;
}

struct ActiveCurvePoint
{
    Index n;
    Index episodeLen;
    double meanActiveRows;
    double sparseStepsPerSec;
    double oracleStepsPerSec;
    double speedup;
};

/**
 * Measured A-vs-N curve at threshold 0: for each memory size, the mean
 * active-row count and the sparse-vs-oracle throughput on the same
 * early-episode workload (episodes of N/4 steps).
 */
std::vector<ActiveCurvePoint>
activeRowsCurve(bool smoke)
{
    const std::vector<Index> ns = smoke ? std::vector<Index>{64, 256}
                                        : std::vector<Index>{256, 1024, 4096};
    std::vector<ActiveCurvePoint> curve;
    for (Index n : ns) {
        const Index episodeLen = n / 4;
        DncConfig sparseCfg = benchConfig(n);
        double meanActive = 0.0;
        const double sparse =
            earlyEpisodeRate(sparseCfg, episodeLen, &meanActive);
        const double dense = oracleEarlyRate(n);
        curve.push_back(
            {n, episodeLen, meanActive, sparse, dense, sparse / dense});
        std::printf("activeRows N=%5zu  mean A %7.1f  sparse %10.1f "
                    "steps/s  oracle %10.1f steps/s  speedup %.2fx\n",
                    n, meanActive, sparse, dense, sparse / dense);
    }
    return curve;
}

std::vector<LinkSkipResult>
linkageSkipSweep(bool smoke, double *oracleRate, Index *sweepRows,
                 Index *episodeLenOut)
{
    const Index n = smoke ? 256 : 1024;
    const Index episodeLen = n / 4; // A <= N/4 by construction
    *sweepRows = n;
    *episodeLenOut = episodeLen;

    // Dense baseline: the oracle on the same workload.
    *oracleRate = oracleEarlyRate(n);
    std::printf("linkageSweep oracle   %10.1f steps/s (early-episode "
                "N=%zu, episode %zu)\n",
                *oracleRate, n, episodeLen);

    const std::vector<Real> thresholds =
        smoke ? std::vector<Real>{0.0, 1e-6}
              : std::vector<Real>{0.0, 1e-9, 1e-6, 1e-4, 1e-2};
    std::vector<LinkSkipResult> results;
    double baseErr = 0.0;
    for (Real th : thresholds) {
        DncConfig cfg = benchConfig(n);
        cfg.linkageSkipThreshold = th;
        double meanActive = 0.0;
        const double early = earlyEpisodeRate(cfg, episodeLen, &meanActive);

        // Steady-state soft traffic: every row active at threshold 0,
        // so this leg shows the no-regression side of the knob.
        Rng rng(7);
        const InterfaceVector iface = benchIface(cfg, rng);
        MemoryUnit mu(cfg);
        MemoryReadout out;
        const double steady =
            benchStepsPerSecond([&] { mu.stepInto(iface, out); });

        DncConfig acc = benchConfig(256);
        acc.linkageSkipThreshold = th;
        const auto [err, margin] = retrievalAccuracy(acc, smoke);
        (void)margin;
        if (th == 0.0)
            baseErr = err;
        DncConfig div = benchConfig(256);
        div.linkageSkipThreshold = th;
        const double rms = readDivergence(div);

        results.push_back({th, early, early / *oracleRate, meanActive,
                           steady, err, err - baseErr, rms});
        std::printf("linkageSweep %.0e  early %10.1f steps/s (%.2fx, "
                    "mean A %.1f)  steady %10.1f steps/s  error %.4f "
                    "(delta %+.4f)  read RMS div %.2e\n",
                    th, early, early / *oracleRate, meanActive, steady,
                    err, err - baseErr, rms);
    }
    return results;
}

struct ReadSkipResult
{
    Index n;
    Real threshold;
    double earlyStepsPerSec;
    double earlySpeedup;        ///< vs the dense oracle at this N
    double meanActiveRows;      ///< linkage-sweep active rows
    double meanReadSkippedRows; ///< zero-norm rows skipped per content score
};

/**
 * Read-stage rows of the sparsity sweep: the threshold drives the whole
 * pipeline (content-score norm skip, sparse memory read and the
 * column-sparse linkage sweeps together, as the knobs ship) against the
 * dense oracle on the same early-episode workload.
 */
std::vector<ReadSkipResult>
readSkipSweep(bool smoke)
{
    const std::vector<Index> ns = smoke ? std::vector<Index>{64, 256}
                                        : std::vector<Index>{1024, 4096};
    const std::vector<Real> thresholds = {0.0, 1e-2};
    std::vector<ReadSkipResult> rows;
    for (Index n : ns) {
        const Index episodeLen = n / 4;
        const double dense = oracleEarlyRate(n);
        for (Real th : thresholds) {
            DncConfig cfg = benchConfig(n);
            cfg.readSkipThreshold = th;
            cfg.linkageSkipThreshold = th;
            double meanActive = 0.0;
            double readSkipped = 0.0;
            const double early =
                earlyEpisodeRate(cfg, episodeLen, &meanActive, &readSkipped);
            rows.push_back(
                {n, th, early, early / dense, meanActive, readSkipped});
            std::printf("readSweep N=%5zu th=%.0e  early %10.1f steps/s "
                        "(%.2fx vs oracle %.1f)  mean A %.1f  read-skip "
                        "%.1f rows/score\n",
                        n, th, early, early / dense, dense, meanActive,
                        readSkipped);
        }
    }
    return rows;
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
        const double legacyRate = benchStepsPerSecond(
            [&] { oracleSim.step(iface); });

        MemoryUnit mu(cfg);
        MemoryReadout out;
        const double optRate = benchStepsPerSecond(
            [&] { mu.stepInto(iface, out); });

        single.push_back({n, legacyRate, optRate, optRate / legacyRate});
        std::printf("N=%5zu  legacy %10.1f steps/s   optimized %10.1f "
                    "steps/s   speedup %.2fx\n",
                    n, legacyRate, optRate, optRate / legacyRate);
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

    std::printf("\nwriteSkipThreshold exactness-vs-speed sweep "
                "(Fig. 10-style):\n");
    const std::vector<SkipResult> skips = writeSkipSweep(smoke);

    std::printf("\nlinkageSkipThreshold active-row sweep:\n");
    double oracleRate = 0.0;
    Index sweepRows = 0;
    Index sweepEpisodeLen = 0;
    const std::vector<LinkSkipResult> linkSkips =
        linkageSkipSweep(smoke, &oracleRate, &sweepRows, &sweepEpisodeLen);

    std::printf("\nread-stage sparsity sweep (early-episode):\n");
    const std::vector<ReadSkipResult> readSkips = readSkipSweep(smoke);

    std::printf("\nactive rows vs N (threshold 0, early-episode):\n");
    const std::vector<ActiveCurvePoint> curve = activeRowsCurve(smoke);

    double headline = 0.0;
    for (const SingleTileResult &r : single)
        if (r.n == 1024)
            headline = r.speedup;

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
                     "\"optimized_steps_per_sec\": %.2f, "
                     "\"speedup\": %.3f}%s\n",
                     r.n, r.legacyStepsPerSec, r.optimizedStepsPerSec,
                     r.speedup, i + 1 < single.size() ? "," : "");
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
    std::fprintf(json, "  \"write_skip_sweep\": [\n");
    for (std::size_t i = 0; i < skips.size(); ++i) {
        const SkipResult &r = skips[i];
        std::fprintf(json,
                     "    {\"threshold\": %.0e, "
                     "\"steps_per_sec_n1024\": %.2f, "
                     "\"retrieval_error_rate\": %.5f, "
                     "\"error_delta_vs_exact\": %.5f, "
                     "\"mean_cosine_margin\": %.6f, "
                     "\"margin_delta_vs_exact\": %.6f, "
                     "\"read_rms_divergence\": %.3e}%s\n",
                     r.threshold, r.stepsPerSec, r.errorRate, r.errorDelta,
                     r.cosineMargin, r.marginDelta, r.readRms,
                     i + 1 < skips.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"linkage_oracle_baseline\": {\"n\": %zu, "
                 "\"episode_len\": %zu, \"early_steps_per_sec\": %.2f},\n",
                 sweepRows, sweepEpisodeLen, oracleRate);
    std::fprintf(json, "  \"linkage_skip_sweep\": [\n");
    for (std::size_t i = 0; i < linkSkips.size(); ++i) {
        const LinkSkipResult &r = linkSkips[i];
        std::fprintf(json,
                     "    {\"threshold\": %.0e, "
                     "\"early_steps_per_sec\": %.2f, "
                     "\"early_speedup_vs_oracle\": %.3f, "
                     "\"mean_active_rows_early\": %.1f, "
                     "\"steady_steps_per_sec\": %.2f, "
                     "\"retrieval_error_rate\": %.5f, "
                     "\"error_delta_vs_exact\": %.5f, "
                     "\"read_rms_divergence\": %.3e}%s\n",
                     r.threshold, r.earlyStepsPerSec, r.earlySpeedup,
                     r.meanActiveRows, r.steadyStepsPerSec, r.errorRate,
                     r.errorDelta, r.readRms,
                     i + 1 < linkSkips.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"read_skip_sweep\": [\n");
    for (std::size_t i = 0; i < readSkips.size(); ++i) {
        const ReadSkipResult &r = readSkips[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"threshold\": %.0e, "
                     "\"early_steps_per_sec\": %.2f, "
                     "\"early_speedup_vs_oracle\": %.3f, "
                     "\"mean_active_rows_early\": %.1f, "
                     "\"mean_read_skipped_rows_per_score\": %.1f}%s\n",
                     r.n, r.threshold, r.earlyStepsPerSec, r.earlySpeedup,
                     r.meanActiveRows, r.meanReadSkippedRows,
                     i + 1 < readSkips.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"linkage_active_rows_curve\": [\n");
    for (std::size_t i = 0; i < curve.size(); ++i) {
        const ActiveCurvePoint &r = curve[i];
        std::fprintf(json,
                     "    {\"n\": %zu, \"episode_len\": %zu, "
                     "\"mean_active_rows\": %.1f, "
                     "\"sparse_steps_per_sec\": %.2f, "
                     "\"oracle_steps_per_sec\": %.2f, "
                     "\"speedup\": %.3f}%s\n",
                     r.n, r.episodeLen, r.meanActiveRows,
                     r.sparseStepsPerSec, r.oracleStepsPerSec, r.speedup,
                     i + 1 < curve.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"headline\": {\"n1024_speedup\": %.3f}\n",
                 headline);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_hot_path.json (N=1024 speedup %.2fx, "
                "16-tile 4-thread scaling %.2fx, early-episode linkage "
                "speedup %.2fx)\n",
                headline, scaling16,
                linkSkips.empty() ? 0.0 : linkSkips[0].earlySpeedup);
    return 0;
}
