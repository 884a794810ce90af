#include "sim/simulator.h"

#include <chrono>
#include <limits>

#include "sim/network.h"

namespace qanaat {

uint64_t Simulator::RunLoop(SimTime until) {
  uint64_t executed = 0;
  SimTime t;
  while (wheel_.Min(now_, &t) && t <= until) {
    now_ = t;
    // Pop before executing: the event may schedule new events. This
    // switch is the one dispatch point for every event kind.
    TimerWheel::Entry e = wheel_.Pop(now_);
    switch (e.kind) {
      case TimerWheel::Kind::kTimer:
        // Epoch guard: timers armed before a crash die with that life.
        if (!e.actor->crashed() && e.actor->epoch() == e.epoch) {
          e.actor->OnTimer(e.a, e.b);
        }
        break;
      case TimerWheel::Kind::kDeliver:
        // A message addressed to a previous life of the node (it
        // crashed while this was in flight) is lost with the process.
        if (e.actor->epoch() == e.epoch) {
          e.actor->DeliverAt(static_cast<SimTime>(e.a),
                             static_cast<NodeId>(e.b), std::move(e.msg));
        }
        break;
      case TimerWheel::Kind::kHandle:
        // Work accepted before a crash must not complete in a
        // recovered life.
        if (!e.actor->crashed() && e.actor->epoch() == e.epoch) {
          e.actor->OnMessage(static_cast<NodeId>(e.b), e.msg);
        }
        break;
      case TimerWheel::Kind::kClosure: {
        // Move the pooled closure out before running it: the callback
        // may schedule new closures, which can reuse (or reallocate)
        // the slot.
        uint32_t idx = static_cast<uint32_t>(e.a);
        Callback fn = std::move(closures_[idx]);
        closures_[idx] = nullptr;
        free_closures_.push_back(idx);
        fn();
        break;
      }
    }
    ++executed;
  }
  return executed;
}

uint64_t Simulator::Run(SimTime until) {
  auto wall0 = std::chrono::steady_clock::now();
  uint64_t executed = RunLoop(until);
  if (now_ < until) now_ = until;
  events_executed_ += executed;
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return executed;
}

uint64_t Simulator::RunAll() {
  auto wall0 = std::chrono::steady_clock::now();
  uint64_t executed = RunLoop(std::numeric_limits<SimTime>::max());
  events_executed_ += executed;
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return executed;
}

}  // namespace qanaat
