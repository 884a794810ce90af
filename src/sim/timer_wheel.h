#ifndef QANAAT_SIM_TIMER_WHEEL_H_
#define QANAAT_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/message.h"

namespace qanaat {

class Actor;

/// The simulator's event store: every scheduled event — message
/// delivery at an actor, handler completion after CPU processing, actor
/// timers and harness closures — is a flat Entry here, popped in global
/// (time, seq) order.
///
/// Near events sit in a hierarchical timing wheel (Varghese & Lauck,
/// SOSP 1987): three levels of 256 slots cover deltas up to ~16.7
/// simulated seconds (1 µs, 256 µs and 65536 µs of span per slot), and
/// insertion is O(1) bucket arithmetic plus a push_back. Entries at or
/// beyond that horizon wait in a small (when, seq) min-heap, the
/// overflow, and enter the levels once the clock comes within the
/// horizon of them; while the levels are empty, the overflow's top is
/// the minimum.
///
/// Determinism contract: Pop() returns entries in exactly (when, seq)
/// order, so a seed yields a bit-identical run. An entry migrated from
/// the overflow carries an older seq than entries inserted since, so
/// every min comparison here — slot mins, the cached global min — is on
/// the (when, seq) pair, never on `when` alone.
///
/// Level-l slots are unambiguous time buckets because all entries in
/// the levels satisfy now <= when < now + 256^(l+1): an entry is placed
/// at the smallest level whose window covers its delta, and `now` only
/// advances past an entry by popping it. Within a level the circular
/// slot scan from slot(now) visits windows in increasing start order;
/// only slot(now) itself can hold two laps (its window is split by
/// `now`), which Min() handles by considering it separately.
class TimerWheel {
 public:
  enum class Kind : uint8_t { kTimer = 0, kDeliver, kHandle, kClosure };

  /// Field use per kind:
  ///   kTimer   — a = tag, b = payload;
  ///   kDeliver — a = arrival time, b = sender, msg;
  ///   kHandle  — b = sender, msg;
  ///   kClosure — a = index into the Simulator's closure pool.
  struct Entry {
    SimTime when = 0;
    uint64_t seq = 0;
    Actor* actor = nullptr;
    uint64_t epoch = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    MessageRef msg;
    Kind kind = Kind::kTimer;
  };

  static constexpr int kLevels = 3;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  /// Deltas at or beyond this wait in the overflow.
  static constexpr SimTime kHorizon = SimTime{1}
                                      << (kSlotBits * kLevels);  // ~16.7 s

  TimerWheel()
      : slots_(kLevels * kSlots), slot_min_(kLevels * kSlots) {}

  size_t size() const { return count_ + overflow_.size(); }

  /// Inserts an entry with when >= now. `e.seq` must be unique; it
  /// breaks ties between entries of the same `when`.
  void Insert(SimTime now, Entry&& e) {
    if (e.when - now >= kHorizon) {
      Defer(std::move(e));
      return;
    }
    Enter(now, std::move(e));
  }

  /// Earliest pending time; false when empty. `now` is the simulator
  /// clock (no pending entry is earlier than it). Moves overflow entries
  /// that came within the horizon into the levels first.
  bool Min(SimTime now, SimTime* when);

  /// Removes and returns the (when, seq)-earliest entry. `now` must be
  /// that entry's time, as a prior Min() reported it, so cascades
  /// re-anchor windows correctly.
  Entry Pop(SimTime now);

 private:
  static constexpr int kBucketLevel = -1;

  static bool Before(SimTime when_x, uint64_t seq_x, SimTime when_y,
                     uint64_t seq_y) {
    return when_x < when_y || (when_x == when_y && seq_x < seq_y);
  }
  /// Heap order for the overflow: std::push_heap keeps the largest
  /// element under this comparison on top, i.e. the earliest entry.
  static bool Later(const Entry& x, const Entry& y) {
    return Before(y.when, y.seq, x.when, x.seq);
  }

  /// Places an entry with now <= e.when < now + kHorizon in the levels.
  void Enter(SimTime now, Entry&& e) {
    if (cache_valid_ && Before(e.when, e.seq, cache_when_, cache_seq_)) {
      cache_valid_ = false;
    }
    Place(e.when - now, std::move(e));
    ++count_;
  }

  std::vector<Entry>& Slot(int level, int idx) {
    return slots_[(level << kSlotBits) + idx];
  }

  void Place(SimTime delta, Entry&& e) {
    int level = delta < (SimTime{1} << kSlotBits)
                    ? 0
                    : delta < (SimTime{1} << (2 * kSlotBits)) ? 1 : 2;
    int idx =
        static_cast<int>(e.when >> (kSlotBits * level)) & (kSlots - 1);
    std::vector<Entry>& v = Slot(level, idx);
    // Per-slot min, kept O(1): entries only ever leave a slot via a
    // whole-slot drain or cascade, so the min never needs a rescan.
    SlotMinKey& m = slot_min_[(level << kSlotBits) + idx];
    if (v.empty() || Before(e.when, e.seq, m.when, m.seq)) {
      m.when = e.when;
      m.seq = e.seq;
    }
    v.push_back(std::move(e));
    bits_[level][idx >> 6] |= uint64_t{1} << (idx & 63);
    ++level_count_[level];
  }

  /// The far-future paths, kept out of line so that Insert() stays small
  /// enough to inline into every schedule call: Defer() pushes onto the
  /// overflow, AdmitDue() moves the overflow entries that came within
  /// the horizon of `now` into the levels.
  void Defer(Entry&& e);
  void AdmitDue(SimTime now);

  /// First occupied slot of `level` in circular order from `start`;
  /// -1 when the level is empty.
  int ScanFrom(int level, int start) const;

  /// Moves a due level-0 slot (single tick) into the drain bucket,
  /// merging behind any still-pending same-tick entries.
  void DrainLevel0(int idx);

  /// Redistributes a level>=1 slot downward, re-anchored at `now` (the
  /// slot's min entry time, which the caller is about to pop).
  void Cascade(int level, int idx, SimTime now);

  struct SlotMinKey {
    SimTime when = 0;
    uint64_t seq = 0;
  };

  std::vector<std::vector<Entry>> slots_;
  std::vector<SlotMinKey> slot_min_;  // valid while the slot is occupied
  uint64_t bits_[kLevels][kSlots / 64] = {};
  int level_count_[kLevels] = {};  // entries per level: empty-level skip
  size_t count_ = 0;               // entries in the levels and the bucket

  // Entries at or beyond the horizon, a min-heap on (when, seq).
  std::vector<Entry> overflow_;

  // Due entries for one tick, sorted by seq, consumed via bucket_pos_.
  std::vector<Entry> bucket_;
  size_t bucket_pos_ = 0;
  SimTime bucket_time_ = 0;

  // Cached location of the levels' (when, seq) min; invalidated by
  // pops, cascades and inserts that precede it.
  bool cache_valid_ = false;
  SimTime cache_when_ = 0;
  uint64_t cache_seq_ = 0;
  int cache_level_ = kBucketLevel;
  int cache_slot_ = 0;

  std::vector<Entry> scratch_;  // cascade staging, capacity recycled
};

}  // namespace qanaat

#endif  // QANAAT_SIM_TIMER_WHEEL_H_
