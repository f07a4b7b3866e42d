#include "serve/router.h"

#include <algorithm>
#include <utility>

namespace hima {

Router::RouterMetrics::RouterMetrics()
{
    obs::Registry &reg = obs::Registry::instance();
    steps = &reg.counter("router.steps");
    admitted = &reg.counter("router.admitted");
    completed = &reg.counter("router.completed");
    rejected = &reg.counter("router.rejected");
    queueDepth = &reg.gauge("router.queue_depth");
    activeLanes = &reg.gauge("router.active_lanes");
    stepNanos = &reg.histogram("router.step_nanos");
}

Router::Router(const DncConfig &config, std::uint64_t seed)
    : Router(std::make_unique<BatchedDnc>(config, seed))
{}

Router::Router(std::unique_ptr<LaneEngine> engine)
    : engine_(std::move(engine))
{
    HIMA_ASSERT(engine_ != nullptr, "Router: null engine");
    queueCapacity_ = engine_->config().routerQueueCapacity;

    // Engines construct fully occupied (lockstep back-compat); a
    // router starts from an empty house and admits on demand.
    for (Index slot = 0; slot < engine_->capacity(); ++slot)
        engine_->release(slot);

    bindings_.resize(engine_->capacity());
    drainingSlots_.reserve(engine_->capacity());
    inputs_.resize(engine_->capacity());
    outputs_.resize(engine_->capacity());
}

bool
Router::submit(ServeRequest request)
{
    HIMA_ASSERT(!request.tokens.empty(), "submit: empty episode (id %llu)",
                static_cast<unsigned long long>(request.id));
    for (const Vector &token : request.tokens)
        HIMA_ASSERT(token.size() == config().inputSize,
                    "submit: token width %zu != inputSize %zu (id %llu)",
                    token.size(), config().inputSize,
                    static_cast<unsigned long long>(request.id));
    if (queue_.size() >= queueCapacity_) {
        ++rejected_;
        metrics_.rejected->add();
        return false;
    }
    queue_.push_back(std::move(request));
    arrivalSteps_.push_back(now_);
    return true;
}

void
Router::step()
{
    const std::uint64_t stepStart =
        obs::metricsEnabled() ? obs::traceNowNanos() : 0;

    // 1. Evict lanes that finished on the previous step. Their results
    //    were harvested when they finished; only the slot is reclaimed.
    {
        obs::TraceSpan span("router.evict", drainingSlots_.size());
        for (Index slot : drainingSlots_)
            engine_->release(slot);
        drainingSlots_.clear();
    }

    // 2. Admission: bind as many queued requests as there are free lanes.
    {
        obs::TraceSpan span("router.bind", queue_.size());
        const Index admitCount =
            std::min(Index(queue_.size()), engine_->freeLanes());
        for (Index i = 0; i < admitCount; ++i) {
            const Index slot = engine_->admit();
            Binding &binding = bindings_[slot];
            binding.bound = true;
            binding.request = std::move(queue_.front());
            queue_.pop_front();
            binding.cursor = 0;
            binding.result = ServeResult{};
            binding.result.id = binding.request.id;
            binding.result.arrivalStep = arrivalSteps_.front();
            arrivalSteps_.pop_front();
            binding.result.admitStep = now_;
            // Pre-size the whole result at admission so the per-step
            // harvest is a same-size Vector copy — serving steps stay
            // zero-alloc even while the queue is overflowing.
            binding.result.outputs.assign(
                binding.request.tokens.size(),
                Vector(config().outputSize));
            ++inFlight_;
        }
        if (admitCount > 0)
            metrics_.admitted->add(admitCount);
    }

    // 3. One engine step over the active lanes. inputs_ entries for
    //    inactive slots are ignored by the engine; bound slots reuse
    //    their Vector storage (same-size copy assignment: no realloc).
    {
        obs::TraceSpan span("router.engine_step", engine_->activeLanes());
        for (Index slot = 0; slot < bindings_.size(); ++slot) {
            Binding &binding = bindings_[slot];
            if (binding.bound)
                inputs_[slot] = binding.request.tokens[binding.cursor];
        }
        engine_->stepInto(inputs_, outputs_);
    }

    // Harvest this step's outputs; finished lanes start draining and are
    // evicted at the next boundary.
    {
        obs::TraceSpan span("router.harvest");
        Index finished = 0;
        for (Index slot = 0; slot < bindings_.size(); ++slot) {
            Binding &binding = bindings_[slot];
            if (!binding.bound)
                continue;
            binding.result.outputs[binding.cursor] = outputs_[slot];
            ++binding.cursor;
            if (binding.cursor == binding.request.tokens.size()) {
                binding.result.finishStep = now_;
                engine_->markDraining(slot);
                drainingSlots_.push_back(slot);
                completed_.push_back(std::move(binding.result));
                binding = Binding{};
                --inFlight_;
                ++finished;
            }
        }
        if (finished > 0)
            metrics_.completed->add(finished);
    }

    ++now_;
    metrics_.steps->add();
    metrics_.queueDepth->set(static_cast<std::int64_t>(queue_.size()));
    metrics_.activeLanes->set(static_cast<std::int64_t>(inFlight_));
    if (stepStart != 0)
        metrics_.stepNanos->record(obs::traceNowNanos() - stepStart);
}

void
Router::drain()
{
    while (!idle())
        step();
    // Requests that finished on the final step left their lanes in
    // Draining (normally reclaimed at the next boundary); flush them so
    // an idle router reports a fully free engine.
    for (Index slot : drainingSlots_)
        engine_->release(slot);
    drainingSlots_.clear();
}

} // namespace hima
