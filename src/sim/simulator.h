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
/// Hot-path design: the steady-state events of a run — message delivery
/// at an actor (ScheduleDeliver), handler completion after CPU
/// processing (ScheduleHandle) and actor timers (ScheduleTimer) — are
/// *tagged* events stored flat inside a reserved 4-ary heap, so pushing
/// and popping them allocates nothing once the heap has grown to the
/// run's working set. The generic closure form (Schedule/ScheduleAt with
/// a std::function) remains as an escape hatch for harness/test code;
/// its closures live in an internal free-list pool. Identical (time,
/// seq) ordering across all five schedule paths keeps the refactor
/// byte-compatible with the old std::function priority queue: per-seed
/// chaos trace hashes are unchanged.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() : now_(0), next_seq_(0) {
    heap_.reserve(kInitialReserve);
    pool_.reserve(kInitialReserve);
  }
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
    Event ev;
    ev.kind = Kind::kClosure;
    ev.closure = AcquireClosure(std::move(fn));
    Push(when, ev);
  }

  /// Tagged event: `actor->DeliverAt(arrival, from, msg)` at `when`,
  /// dropped if the actor's crash epoch advanced past `epoch` meanwhile.
  void ScheduleDeliver(SimTime when, Actor* actor, uint64_t epoch,
                       NodeId from, MessageRef msg) {
    if (when < now_) when = now_;
    if (when - now_ >= TimerWheel::kHorizon) {
      Event ev;
      ev.kind = Kind::kDeliver;
      ev.actor = actor;
      ev.epoch = epoch;
      ev.a = static_cast<uint64_t>(when);  // arrival == scheduled time
      ev.b = from;
      ev.msg = std::move(msg);
      Push(when, ev);
      return;
    }
    TimerWheel::Entry e;
    e.when = when;
    e.seq = next_seq_++;
    e.actor = actor;
    e.epoch = epoch;
    e.a = static_cast<uint64_t>(when);
    e.b = from;
    e.msg = std::move(msg);
    e.kind = TimerWheel::Kind::kDeliver;
    wheel_.Insert(now_, std::move(e));
  }

  /// Tagged event: `actor->OnMessage(from, msg)` at `when` (CPU
  /// processing completes), unless crashed or from a previous life.
  void ScheduleHandle(SimTime when, Actor* actor, uint64_t epoch,
                      NodeId from, MessageRef msg) {
    if (when < now_) when = now_;
    if (when - now_ >= TimerWheel::kHorizon) {
      Event ev;
      ev.kind = Kind::kHandle;
      ev.actor = actor;
      ev.epoch = epoch;
      ev.b = from;
      ev.msg = std::move(msg);
      Push(when, ev);
      return;
    }
    TimerWheel::Entry e;
    e.when = when;
    e.seq = next_seq_++;
    e.actor = actor;
    e.epoch = epoch;
    e.b = from;
    e.msg = std::move(msg);
    e.kind = TimerWheel::Kind::kHandle;
    wheel_.Insert(now_, std::move(e));
  }

  /// Tagged event: `actor->OnTimer(tag, payload)` at `when`, unless
  /// crashed or armed in a previous life. Tagged events within the
  /// wheel's ~16.7-second horizon take the O(1) hierarchical-wheel path;
  /// the rare far-future ones spill to the 4-ary heap. Both draw from
  /// the same global sequence counter, so the merged execution order is
  /// (time, seq)-identical to the all-heap implementation.
  void ScheduleTimer(SimTime when, Actor* actor, uint64_t epoch,
                     uint64_t tag, uint64_t payload) {
    if (when < now_) when = now_;
    if (when - now_ >= TimerWheel::kHorizon) {
      Event ev;
      ev.kind = Kind::kTimer;
      ev.actor = actor;
      ev.epoch = epoch;
      ev.a = tag;
      ev.b = payload;
      Push(when, ev);
      return;
    }
    TimerWheel::Entry e;
    e.when = when;
    e.seq = next_seq_++;
    e.actor = actor;
    e.epoch = epoch;
    e.a = tag;
    e.b = payload;
    e.kind = TimerWheel::Kind::kTimer;
    wheel_.Insert(now_, std::move(e));
  }

  /// Run until the queue drains or simulated time exceeds `until`.
  /// Returns the number of events executed.
  uint64_t Run(SimTime until);

  /// Run until the queue is fully drained.
  uint64_t RunAll();

  size_t pending() const { return heap_.size() + wheel_.size(); }

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
  enum class Kind : uint8_t { kClosure = 0, kDeliver, kHandle, kTimer };

  /// Tagged event payload, pooled in fixed slots. Field use per kind:
  ///   kClosure — `closure` indexes the pooled std::function;
  ///   kDeliver — `a` = arrival time, `b` = sender, `msg`, `epoch`;
  ///   kHandle  — `b` = sender, `msg`, `epoch`;
  ///   kTimer   — `a` = tag, `b` = payload, `epoch`.
  struct Event {
    Actor* actor = nullptr;
    uint64_t epoch = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    MessageRef msg;
    uint32_t closure = 0;
    Kind kind = Kind::kClosure;
  };

  /// What the heap actually sifts: 24 bytes of ordering key plus a pool
  /// slot. Keeping payloads out of the heap makes every sift swap a
  /// three-word move instead of dragging a shared_ptr-bearing struct.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  static constexpr size_t kInitialReserve = 1024;
  static constexpr size_t kArity = 4;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  static bool Earlier(const HeapEntry& x, const HeapEntry& y) {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  void Push(SimTime when, Event& ev) {
    if (when < now_) when = now_;
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      pool_[slot] = std::move(ev);
    } else {
      slot = static_cast<uint32_t>(pool_.size());
      pool_.push_back(std::move(ev));
    }
    heap_.push_back(HeapEntry{when, next_seq_++, slot});
    SiftUp(heap_.size() - 1);
  }

  void SiftUp(size_t i) {
    HeapEntry moving = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!Earlier(moving, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moving;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    HeapEntry moving = heap_[i];
    for (;;) {
      size_t first = kArity * i + 1;
      if (first >= n) break;
      size_t best = first;
      size_t last = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], moving)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moving;
  }

  /// Pops the earliest event into `out` and releases its pool slot
  /// (heap must be non-empty). Returns the event's time.
  SimTime PopInto(Event& out) {
    HeapEntry top = heap_.front();
    if (heap_.size() > 1) {
      heap_.front() = heap_.back();
      heap_.pop_back();
      SiftDown(0);
    } else {
      heap_.pop_back();
    }
    out = std::move(pool_[top.slot]);
    free_slots_.push_back(top.slot);
    return top.time;
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

  void Execute(Event& ev);
  /// Shared Run/RunAll core: pops the (time, seq)-smallest of the heap
  /// top and the wheel min until both drain or the next event is past
  /// `until`.
  uint64_t RunLoop(SimTime until);

  SimTime now_;
  uint64_t next_seq_;
  TimerWheel wheel_;                   // near-horizon actor timers
  std::vector<HeapEntry> heap_;        // 4-ary min-heap on (time, seq)
  std::vector<Event> pool_;            // slot storage for queued events
  std::vector<uint32_t> free_slots_;
  std::vector<Callback> closures_;     // pool for kClosure events
  std::vector<uint32_t> free_closures_;
  uint64_t events_executed_ = 0;
  double wall_seconds_ = 0.0;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_SIMULATOR_H_
