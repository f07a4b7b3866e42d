/**
 * @file
 * Dynamic-batching request router over the lane-lifecycle BatchedDnc.
 *
 * The PR-2 engine stepped a fixed-B lockstep batch where every lane
 * lived forever; real serving sees a query *arrival process*: requests
 * land at arbitrary times, run an episode of some length, and leave.
 * The router turns the engine into that front-end:
 *
 *   submit() ──▶ bounded FIFO queue ──admission──▶ engine lane slots
 *                                                     │ step, step, …
 *   completed() ◀── harvest ◀── Draining ◀── episode end
 *
 * Each step() is one engine step plus the step-boundary bookkeeping,
 * in a fixed order (evict, admit, step):
 *
 *   1. Evict: lanes marked Draining on the previous step are released —
 *      their results were already harvested, the slots return to the
 *      free pool.
 *   2. Admit: the admission policy inspects the queue and the free
 *      capacity and decides how many queued requests to bind; each bound
 *      request gets an episode-reset lane slot (BatchedDnc::admit()).
 *   3. Step: every active lane advances one token through the engine;
 *      each request's model output is appended to its result. A lane
 *      whose episode just finished is marked Draining.
 *
 * Bit-exactness contract (tests/test_router.cpp): the outputs collected
 * for a request are bit-identical to a dedicated sequential
 * Dnc(config, seed) fed that request's tokens — regardless of when the
 * request arrived, which slot it landed in, what its co-tenants did
 * (admissions and evictions included), the thread count or the
 * fixed-point mode. This follows from the engine's per-lane
 * contract plus admit()'s in-place episode reset, and is what makes the
 * router's dynamic batching safe to deploy: batching is purely a
 * throughput decision, never an accuracy one.
 *
 * Admission policy is pluggable (a plain function): greedyAdmission()
 * binds as many queued requests as there are free lanes — the lowest-
 * latency choice; batchFillAdmission(minFill, maxWaitSteps) holds
 * admissions back until a fill target is reached (or the oldest request
 * has waited long enough), trading queueing latency for denser batches
 * — the knob bench_router sweeps.
 *
 * Queueing (routerQueueCapacity) and concurrency (routerMaxActiveLanes)
 * bounds come from DncConfig and are validated there.
 */

#ifndef HIMA_SERVE_ROUTER_H
#define HIMA_SERVE_ROUTER_H

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "serve/batched_dnc.h"

namespace hima {

/** One inference request: a whole episode's token stream. */
struct ServeRequest
{
    std::uint64_t id = 0;
    std::vector<Vector> tokens; ///< inputSize-wide, one per episode step
};

/** A finished request with its outputs and latency bookkeeping. */
struct ServeResult
{
    std::uint64_t id = 0;
    std::vector<Vector> outputs; ///< one outputSize-wide vector per token
    Index arrivalStep = 0; ///< router step count when submit() accepted it
    Index admitStep = 0;   ///< step on which its first token ran
    Index finishStep = 0;  ///< step on which its last token ran

    /** Steps spent in the system (queueing + service), inclusive. */
    Index
    latencySteps() const
    {
        return finishStep - arrivalStep + 1;
    }

    /** Steps spent queued before a lane was bound. */
    Index
    queueSteps() const
    {
        return admitStep - arrivalStep;
    }
};

/**
 * Admission policy: called once per step boundary with the queue depth,
 * the number of lanes that may be bound right now, and how many steps
 * the oldest queued request has waited; returns how many requests to
 * admit (clamped to min(queued, freeLanes)).
 */
using AdmissionPolicy =
    std::function<Index(Index queued, Index freeLanes, Index oldestWait)>;

/** Bind as many queued requests as capacity allows (lowest latency). */
AdmissionPolicy greedyAdmission();

/**
 * Hold admissions until `minFill` requests can be bound at once or the
 * oldest queued request has waited `maxWaitSteps` steps, then bind
 * greedily. Denser batches amortize weight streaming better at the cost
 * of queueing latency — the latency/throughput trade bench_router
 * measures.
 */
AdmissionPolicy batchFillAdmission(Index minFill, Index maxWaitSteps);

/** The dynamic-batching front-end. */
class Router
{
  public:
    /**
     * @param config shapes, feature flags, and the router knobs
     *               (batchSize = slot capacity, routerQueueCapacity,
     *               routerMaxActiveLanes)
     * @param seed   engine weight seed (the reference Dnc's seed)
     * @param policy admission policy; defaults to greedyAdmission()
     */
    explicit Router(const DncConfig &config, std::uint64_t seed = 1,
                    AdmissionPolicy policy = greedyAdmission());

    /**
     * Route onto a caller-built engine (e.g. the sharded backend in
     * src/shard/sharded_dnc.h). The engine's DncConfig supplies the
     * router knobs; its lanes are released to an empty house first.
     */
    explicit Router(std::unique_ptr<LaneEngine> engine,
                    AdmissionPolicy policy = greedyAdmission());

    /**
     * Enqueue a request (tokens must be non-empty, inputSize-wide).
     * Stamps the request's arrival at the current step count.
     *
     * @return false when the queue is at routerQueueCapacity (the
     *         request is rejected — back-pressure, caller may retry)
     */
    bool submit(ServeRequest request);

    /** One step boundary (evict, admit) plus one engine step. */
    void step();

    /** Step until every queued and in-flight request has completed. */
    void drain();

    /** True when no request is queued or in flight. */
    bool idle() const { return queue_.empty() && inFlight_ == 0; }

    Index queuedRequests() const { return queue_.size(); }
    Index activeRequests() const { return inFlight_; }

    /** Requests rejected by a full queue since construction. */
    Index rejectedRequests() const { return rejected_; }

    /** Engine steps taken so far (the router's clock). */
    Index now() const { return now_; }

    /**
     * Completed requests, in completion order. The caller may move
     * results out; the router only appends.
     */
    std::vector<ServeResult> &completed() { return completed_; }
    const std::vector<ServeResult> &completed() const { return completed_; }

    LaneEngine &engine() { return *engine_; }
    const LaneEngine &engine() const { return *engine_; }
    const DncConfig &config() const { return engine_->config(); }

  private:
    /** Per-slot binding of an admitted request. */
    struct Binding
    {
        bool bound = false;
        ServeRequest request;
        Index cursor = 0; ///< next token index
        ServeResult result;
    };

    std::unique_ptr<LaneEngine> engine_;
    AdmissionPolicy policy_;
    Index maxActive_ = 0; ///< min(routerMaxActiveLanes or capacity, capacity)
    Index queueCapacity_ = 0;

    std::deque<ServeRequest> queue_;
    std::deque<Index> arrivalSteps_; ///< parallel to queue_
    std::vector<Binding> bindings_;  ///< per slot
    std::vector<Index> drainingSlots_; ///< marked last step, evict next
    std::vector<Vector> inputs_;     ///< slot-indexed engine feed, reused
    std::vector<Vector> outputs_;    ///< slot-indexed engine out, reused
    std::vector<ServeResult> completed_;
    Index inFlight_ = 0;
    Index rejected_ = 0;
    Index now_ = 0;

    // Telemetry series, registered once at construction so the step
    // path never touches the registry's name table.
    struct RouterMetrics
    {
        obs::Counter *steps;
        obs::Counter *admitted;
        obs::Counter *completed;
        obs::Counter *rejected;
        obs::Gauge *queueDepth;
        obs::Gauge *activeLanes;
        obs::Histogram *stepNanos;
        RouterMetrics();
    };
    RouterMetrics metrics_;
};

} // namespace hima

#endif // HIMA_SERVE_ROUTER_H
