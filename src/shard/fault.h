/**
 * @file
 * Deterministic fault injection for the shard stack: tests and the
 * bench arm a worker with a FaultSpec and the worker dies (or stalls)
 * at an exact, repeatable point in the frame stream. That determinism
 * is what makes the recovery golden proofs possible — the same kill
 * point against the same interface stream must recover to the same
 * bit-exact state every run, on every transport.
 *
 * Faults are expressed in *frame counts*, not wall-clock: kill-at-the-
 * Nth-step-frame fires just before the worker would serve that
 * LaneStep (so the coordinator never sees its reply), drop-at-the-Nth-
 * frame severs the channel regardless of frame type (handshake and
 * control frames included), and delay sleeps before serving to make
 * recv timeouts reachable in tests without a real hang.
 */

#ifndef HIMA_SHARD_FAULT_H
#define HIMA_SHARD_FAULT_H

#include <atomic>
#include <cstdint>

namespace hima {

/** One worker's scripted failure (0 = never for every trigger). */
struct FaultSpec
{
    /** Die just before serving the Nth LaneStep frame (1-based). */
    std::uint64_t killAtStepFrame = 0;
    /** Die on the Nth inbound frame of any type (1-based). */
    std::uint64_t dropAtFrame = 0;
    /** Sleep `delayMs` before serving the Nth LaneStep (1-based). */
    std::uint64_t delayAtStepFrame = 0;
    std::uint32_t delayMs = 0;

    bool
    any() const
    {
        return killAtStepFrame != 0 || dropAtFrame != 0 ||
               delayAtStepFrame != 0;
    }
};

/**
 * Per-worker fault state machine driven by the inbound frame stream.
 * A test arms it and reads dead() from its own thread while a serve
 * thread drives onFrame(), so the two flags are atomics: the release
 * on armed_ publishes the spec and counters to the serve thread.
 */
class FaultInjector
{
  public:
    /** Install a spec (resets the frame counters). */
    void arm(const FaultSpec &spec);

    bool armed() const { return armed_.load(std::memory_order_acquire); }
    bool dead() const { return dead_.load(std::memory_order_acquire); }

    /**
     * Account one inbound frame; sleeps through a scheduled delay.
     *
     * @return true when the worker must die *now*, before serving it
     */
    bool onFrame(bool isStepFrame);

  private:
    FaultSpec spec_;
    std::uint64_t frames_ = 0;
    std::uint64_t stepFrames_ = 0;
    std::atomic<bool> armed_{false};
    std::atomic<bool> dead_{false};
};

} // namespace hima

#endif // HIMA_SHARD_FAULT_H
