#ifndef QANAAT_SIM_SIMULATOR_H_
#define QANAAT_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/message.h"
#include "sim/timer_wheel.h"

namespace qanaat {

class Actor;

/// Deterministic discrete-event simulator.
///
/// Events execute in (time, insertion-sequence) order, so a single seed
/// yields a bit-identical run. All protocol code runs inside event
/// callbacks; the simulator substitutes wall clock + transport of the
/// paper's AWS deployment, with CPU and network costs charged from
/// CostModel (sim/env.h).
///
/// One event store holds every event: the TimerWheel
/// (sim/timer_wheel.h). The steady-state events of a run — message
/// delivery at an actor (ScheduleDeliver), handler completion after CPU
/// processing (ScheduleHandle) and actor timers (ScheduleTimer) — are
/// flat tagged entries, so scheduling them allocates nothing once the
/// wheel's slots have grown to the run's working set. The generic
/// closure form (Schedule/ScheduleAt with a std::function) is a fourth
/// entry kind for harness and test code; its closures live in a
/// free-list pool. All five schedule paths draw from one sequence
/// counter, and RunLoop pops the wheel and dispatches every kind through
/// one switch.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() : now_(0), next_seq_(0) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` microseconds from now (>= 0).
  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedule `fn` at an absolute time (clamped to now). Generic escape
  /// hatch — the tagged forms below are the allocation-free hot path.
  void ScheduleAt(SimTime when, Callback fn) {
    uint32_t idx = AcquireClosure(std::move(fn));
    Enqueue(TimerWheel::Kind::kClosure, when, nullptr, 0, idx, 0, nullptr);
  }

  /// Tagged event: `actor->DeliverAt(arrival, from, msg)` at `when`,
  /// dropped if the actor's crash epoch advanced past `epoch` meanwhile.
  void ScheduleDeliver(SimTime when, Actor* actor, uint64_t epoch,
                       NodeId from, MessageRef msg) {
    if (when < now_) when = now_;
    // arrival == scheduled time
    Enqueue(TimerWheel::Kind::kDeliver, when, actor, epoch,
            static_cast<uint64_t>(when), from, std::move(msg));
  }

  /// Tagged event: `actor->OnMessage(from, msg)` at `when` (CPU
  /// processing completes), unless crashed or from a previous life.
  void ScheduleHandle(SimTime when, Actor* actor, uint64_t epoch,
                      NodeId from, MessageRef msg) {
    Enqueue(TimerWheel::Kind::kHandle, when, actor, epoch, 0, from,
            std::move(msg));
  }

  /// Tagged event: `actor->OnTimer(tag, payload)` at `when`, unless
  /// crashed or armed in a previous life.
  void ScheduleTimer(SimTime when, Actor* actor, uint64_t epoch,
                     uint64_t tag, uint64_t payload) {
    Enqueue(TimerWheel::Kind::kTimer, when, actor, epoch, tag, payload,
            nullptr);
  }

  /// Run until the queue drains or simulated time exceeds `until`.
  /// Returns the number of events executed.
  uint64_t Run(SimTime until);

  /// Run until the queue is fully drained.
  uint64_t RunAll();

  size_t pending() const { return wheel_.size(); }

  /// Total events executed since construction, and the wall-clock meter
  /// over time spent inside Run/RunAll — the sim-core throughput gauge
  /// bench_simcore records (see README "Profiling the simulator core").
  uint64_t events_executed() const { return events_executed_; }
  double wall_seconds_in_run() const { return wall_seconds_; }
  double events_per_second() const {
    return wall_seconds_ > 0
               ? static_cast<double>(events_executed_) / wall_seconds_
               : 0.0;
  }

 private:
  /// The one insert behind every schedule path: clamps `when` to now and
  /// stamps the next global sequence number.
  void Enqueue(TimerWheel::Kind kind, SimTime when, Actor* actor,
               uint64_t epoch, uint64_t a, uint64_t b, MessageRef&& msg) {
    TimerWheel::Entry e;
    e.when = when < now_ ? now_ : when;
    e.seq = next_seq_++;
    e.actor = actor;
    e.epoch = epoch;
    e.a = a;
    e.b = b;
    e.msg = std::move(msg);
    e.kind = kind;
    wheel_.Insert(now_, std::move(e));
  }

  uint32_t AcquireClosure(Callback fn) {
    if (!free_closures_.empty()) {
      uint32_t idx = free_closures_.back();
      free_closures_.pop_back();
      closures_[idx] = std::move(fn);
      return idx;
    }
    closures_.push_back(std::move(fn));
    return static_cast<uint32_t>(closures_.size() - 1);
  }

  /// Shared Run/RunAll core: pops and dispatches events until the wheel
  /// drains or the next event is past `until`.
  uint64_t RunLoop(SimTime until);

  SimTime now_;
  uint64_t next_seq_;
  TimerWheel wheel_;                   // every pending event
  std::vector<Callback> closures_;     // pool for kClosure events
  std::vector<uint32_t> free_closures_;
  uint64_t events_executed_ = 0;
  double wall_seconds_ = 0.0;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_SIMULATOR_H_
