/**
 * @file
 * Configuration record shared by the DNC, NTM and DNC-D models.
 */

#ifndef HIMA_DNC_DNC_CONFIG_H
#define HIMA_DNC_DNC_CONFIG_H

#include "common/tensor.h"

namespace hima {

/**
 * Shape and feature knobs of one DNC instance. Defaults follow the
 * paper's evaluation point: external memory N x W = 1024 x 64 with
 * R = 4 read heads and a 1-layer LSTM of size 256 (Fig. 4 caption).
 */
struct DncConfig
{
    /** External memory rows (slots). */
    Index memoryRows = 1024;
    /** External memory columns (word width). */
    Index memoryWidth = 64;
    /** Parallel read heads. */
    Index readHeads = 4;
    /** LSTM hidden size. */
    Index controllerSize = 256;
    /** Model input width (task token embedding). */
    Index inputSize = 64;
    /** Model output width. */
    Index outputSize = 64;

    /** Use the PLA+LUT softmax instead of exact softmax (Sec. 5.2). */
    bool approximateSoftmax = false;
    /** PLA segment count when approximateSoftmax is set. */
    int softmaxSegments = 8;

    /**
     * Usage-skimming rate K in [0, 1): fraction of usage entries dropped
     * from the sort and allocation (Sec. 5.2). Zero disables skimming.
     */
    Real skimRate = 0.0;

    /** Quantize memory and weightings through the Q16.16 datapath. */
    bool fixedPoint = false;

    /**
     * Software worker threads for the independent DNC-D tiles. The
     * default of 1 executes tiles sequentially and is bit-identical to
     * the reference implementation; higher values run tiles on a thread
     * pool (the merge stays deterministic either way).
     */
    Index numThreads = 1;

    /**
     * Lanes of the batched serving engine (src/serve/BatchedDnc): the
     * number of independent DNC instances stepped together per process,
     * sharing controller weights but owning per-lane state. 1 means
     * unbatched; the engine is bit-identical per lane to batchSize
     * sequential Dnc runs at any value.
     */
    Index batchSize = 1;

    /**
     * Lanes per worker round trip of the pipelined sharded serving
     * engine (src/shard/sharded_dnc.h PipelinedShardedLaneEngine): the
     * active lanes are stepped in batches of this many per LaneStep
     * frame, and batch b's controller compute overlaps batch b-1's
     * in-flight tile round trips. 0 (default) sends all active lanes in
     * one frame — maximal syscall amortization, no overlap. Results are
     * bit-identical per lane at any value.
     */
    Index shardLanesPerBatch = 0;

    /**
     * Checkpoint cadence of the sharded serving stack, in steps per
     * lane: once any lane has stepped this many times since the last
     * pull, the coordinator pulls a CheckpointState snapshot of every
     * worker's tiles (at the next gather that empties its in-flight
     * window) and trims its replay log to the window since that
     * snapshot. A one-lane coordinator pulls every this many steps.
     * On a worker death it then respawns a replacement, restores the
     * snapshot, and replays the logged window — bit-identical to an
     * undisturbed run. 0 (default) disables checkpointing: a lost
     * worker stays fatal, exactly the pre-v3 behavior.
     */
    Index shardCheckpointIntervalSteps = 0;

    /**
     * Receive/send bound (milliseconds) on every shard channel the
     * cluster harness builds: a dead or wedged worker surfaces as a
     * recoverable timeout after this long instead of hanging the
     * coordinator. Must be >= 1 — a zero timeout would reach the
     * transports as "block forever" (the POSIX zero-timeval meaning),
     * which is never what a serving deployment wants.
     */
    Index shardRecvTimeoutMs = 30000;

    /**
     * Pending-request queue bound of the dynamic-batching router
     * (src/serve/router.h): submissions beyond this many queued-but-
     * unadmitted requests are rejected (back-pressure). Must be >= 1.
     */
    Index routerQueueCapacity = 256;

    /**
     * Runtime metrics toggle (src/obs): counters/gauges/histograms are
     * recorded while true. Off, every metric write is one predictable
     * branch; compiled with HIMA_TELEMETRY=OFF the writes vanish
     * entirely and this knob is ignored.
     */
    bool telemetryMetrics = true;

    /**
     * Phase-trace toggle (src/obs): record begin/end span events from
     * the Router/shard/transport phases into per-thread rings,
     * exportable as Chrome trace JSON (Perfetto). Defaults off —
     * tracing costs a clock read per span edge, which is measurable on
     * nanosecond-scale phases.
     */
    bool telemetryTracing = false;

    /** Interface vector width for these shapes (DNC paper layout). */
    Index
    interfaceSize() const
    {
        // R read keys (R*W) + R read strengths + write key (W) + write
        // strength + erase (W) + write vector (W) + R free gates +
        // allocation gate + write gate + R read modes of 3.
        return readHeads * memoryWidth + 3 * memoryWidth + 5 * readHeads + 3;
    }

    /** Sanity-check the shape parameters; fatal on user error. */
    void
    validate() const
    {
        if (memoryRows == 0 || memoryWidth == 0 || readHeads == 0)
            HIMA_FATAL("DncConfig: zero-sized memory or read heads");
        if (memoryRows <= memoryWidth) {
            // Sharded (DNC-D) configs routinely have small local N;
            // nag once, not per shard.
            static bool warned = false;
            if (!warned) {
                warned = true;
                HIMA_WARN("DncConfig: paper assumes N > W (got N=%zu, "
                          "W=%zu); further occurrences suppressed",
                          memoryRows, memoryWidth);
            }
        }
        if (skimRate < 0.0 || skimRate >= 1.0)
            HIMA_FATAL("DncConfig: skim rate %f outside [0, 1)", skimRate);
        if (numThreads == 0)
            HIMA_FATAL("DncConfig: numThreads must be >= 1");
        if (batchSize == 0)
            HIMA_FATAL("DncConfig: batchSize must be >= 1");
        if (shardRecvTimeoutMs == 0)
            HIMA_FATAL("DncConfig: shardRecvTimeoutMs must be >= 1 (a "
                       "zero timeout means \"block forever\" to POSIX)");
        if (routerQueueCapacity == 0)
            HIMA_FATAL("DncConfig: routerQueueCapacity must be >= 1");
    }
};

} // namespace hima

#endif // HIMA_DNC_DNC_CONFIG_H
