#ifndef QANAAT_SIM_WATCHDOG_H_
#define QANAAT_SIM_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "common/types.h"
#include "sim/simulator.h"

namespace qanaat {

/// Deadline value meaning "nothing is being watched".
constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

/// The one failure-watchdog timer of a protocol module (PBFT's single
/// view-change timer, generalized). The module keeps each deadline on the
/// state it guards and calls ArmBy() when it sets one; one host timer
/// stays armed for the earliest. When Fire() accepts a firing, the module
/// acts on every expired deadline and re-arms for the earliest one left.
/// Deadlines survive a crash; only the timer dies with the host's epoch,
/// so recovery calls Rearm() and no crash hook resets anything.
class Watchdog {
 public:
  /// `start(delay, tag, payload)` starts a host timer that comes back
  /// through the module's OnTimer(tag, payload).
  using StartFn = std::function<void(SimTime, uint64_t, uint64_t)>;

  Watchdog(const Simulator* sim, uint64_t tag, StartFn start)
      : sim_(sim), tag_(tag), start_(std::move(start)) {}

  /// Fires no later than `deadline`, superseding a later armed timer.
  void ArmBy(SimTime deadline) {
    if (deadline == kNoDeadline || (armed_ && fires_at_ <= deadline)) return;
    armed_ = true;
    fires_at_ = deadline;
    start_(deadline - sim_->now(), tag_, ++token_);
  }
  /// Recovery: arms afresh for `at`. Modules pass one timeout past the
  /// restart — a deadline that lapsed while the host was down is no
  /// evidence against anyone until it has had time to observe progress.
  void Rearm(SimTime at) {
    armed_ = false;
    ArmBy(at);
  }
  /// True iff `payload` names the armed timer, not a superseded one.
  bool Fire(uint64_t payload) {
    if (!armed_ || payload != token_) return false;
    armed_ = false;
    return true;
  }
  bool armed() const { return armed_; }

 private:
  const Simulator* sim_;
  uint64_t tag_;
  StartFn start_;
  uint64_t token_ = 0;
  SimTime fires_at_ = kNoDeadline;
  bool armed_ = false;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_WATCHDOG_H_
