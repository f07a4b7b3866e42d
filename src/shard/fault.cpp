#include "shard/fault.h"

#include <chrono>
#include <thread>

namespace hima {

void
FaultInjector::arm(const FaultSpec &spec)
{
    spec_ = spec;
    frames_ = 0;
    stepFrames_ = 0;
    dead_.store(false, std::memory_order_release);
    armed_.store(spec.any(), std::memory_order_release);
}

bool
FaultInjector::onFrame(bool isStepFrame)
{
    if (dead())
        return true;
    if (!armed())
        return false;
    ++frames_;
    if (isStepFrame)
        ++stepFrames_;
    if (spec_.dropAtFrame != 0 && frames_ == spec_.dropAtFrame) {
        dead_.store(true, std::memory_order_release);
        return true;
    }
    if (isStepFrame && spec_.killAtStepFrame != 0 &&
        stepFrames_ == spec_.killAtStepFrame) {
        dead_.store(true, std::memory_order_release);
        return true;
    }
    if (isStepFrame && spec_.delayAtStepFrame != 0 &&
        stepFrames_ == spec_.delayAtStepFrame && spec_.delayMs != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(spec_.delayMs));
    return false;
}

} // namespace hima
