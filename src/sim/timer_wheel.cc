#include "sim/timer_wheel.h"

#include <algorithm>

namespace qanaat {

int TimerWheel::ScanFrom(int level, int start) const {
  const uint64_t* b = bits_[level];
  int w0 = start >> 6;
  uint64_t w = b[w0] & (~uint64_t{0} << (start & 63));
  if (w != 0) return (w0 << 6) + __builtin_ctzll(w);
  for (int i = 1; i <= 4; ++i) {
    int wi = (w0 + i) & 3;
    uint64_t ww = b[wi];
    if (i == 4) {
      // Wrapped back to the starting word: only bits below `start`.
      int low = start & 63;
      ww &= low != 0 ? (~uint64_t{0} >> (64 - low)) : 0;
    }
    if (ww != 0) return (wi << 6) + __builtin_ctzll(ww);
  }
  return -1;
}

void TimerWheel::Defer(Entry&& e) {
  overflow_.push_back(std::move(e));
  std::push_heap(overflow_.begin(), overflow_.end(), Later);
}

void TimerWheel::AdmitDue(SimTime now) {
  while (!overflow_.empty() && overflow_.front().when - now < kHorizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later);
    Enter(now, std::move(overflow_.back()));
    overflow_.pop_back();
  }
}

bool TimerWheel::Min(SimTime now, SimTime* when) {
  if (!overflow_.empty()) AdmitDue(now);
  if (count_ == 0) {
    if (overflow_.empty()) return false;
    *when = overflow_.front().when;
    return true;
  }
  if (!cache_valid_) {
    bool have = false;
    int best_level = kBucketLevel;
    int best_slot = 0;
    SimTime best_when = 0;
    uint64_t best_seq = 0;
    if (bucket_pos_ < bucket_.size()) {
      best_when = bucket_time_;
      best_seq = bucket_[bucket_pos_].seq;
      have = true;
    }
    for (int level = 0; level < kLevels; ++level) {
      if (level_count_[level] == 0) continue;
      int s_now =
          static_cast<int>(now >> (kSlotBits * level)) & (kSlots - 1);
      // slot(now) may hold both laps of its split window: consider it
      // on its own, then the next occupied slot in circular order
      // (whose window start precedes every later slot's).
      int cand[2] = {-1, -1};
      if ((bits_[level][s_now >> 6] >> (s_now & 63)) & 1) cand[0] = s_now;
      int nxt = ScanFrom(level, (s_now + 1) & (kSlots - 1));
      if (nxt >= 0 && nxt != s_now) cand[1] = nxt;
      for (int c : cand) {
        if (c < 0) continue;
        const SlotMinKey& m = slot_min_[(level << kSlotBits) + c];
        if (!have || Before(m.when, m.seq, best_when, best_seq)) {
          have = true;
          best_when = m.when;
          best_seq = m.seq;
          best_level = level;
          best_slot = c;
        }
      }
    }
    cache_valid_ = true;
    cache_when_ = best_when;
    cache_seq_ = best_seq;
    cache_level_ = best_level;
    cache_slot_ = best_slot;
  }
  *when = cache_when_;
  return true;
}

void TimerWheel::DrainLevel0(int idx) {
  std::vector<Entry>& v = Slot(0, idx);
  bits_[0][idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  level_count_[0] -= static_cast<int>(v.size());
  if (bucket_pos_ == bucket_.size()) {
    bucket_.clear();
    bucket_pos_ = 0;
  }
  if (bucket_.empty()) {
    bucket_.swap(v);  // recycles both vectors' capacity
    bucket_time_ = bucket_.front().when;
  } else {
    // Same-tick merge: a cascade dropped older-seq entries onto a tick
    // the bucket is already draining.
    bucket_.insert(bucket_.end(), std::make_move_iterator(v.begin()),
                   std::make_move_iterator(v.end()));
    v.clear();
  }
  std::sort(bucket_.begin() + static_cast<long>(bucket_pos_),
            bucket_.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
}

void TimerWheel::Cascade(int level, int idx, SimTime now) {
  std::vector<Entry>& v = Slot(level, idx);
  bits_[level][idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  level_count_[level] -= static_cast<int>(v.size());
  scratch_.swap(v);
  for (Entry& e : scratch_) Place(e.when - now, std::move(e));
  scratch_.clear();
}

TimerWheel::Entry TimerWheel::Pop(SimTime now) {
  SimTime when;
  Min(now, &when);
  // Promote the min down to the drain bucket: the min entry's delta
  // relative to `now` (== its own time) is 0, so each cascade moves it
  // at least one level lower — at most kLevels rounds.
  while (cache_level_ != kBucketLevel) {
    std::vector<Entry>& v = Slot(cache_level_, cache_slot_);
    if (v.size() == 1) {
      // Single-entry slot (the sparse-traffic common case): the entry IS
      // the slot min, so skip the cascade/drain hops and pop in place.
      Entry e = std::move(v.front());
      v.clear();
      bits_[cache_level_][cache_slot_ >> 6] &=
          ~(uint64_t{1} << (cache_slot_ & 63));
      --level_count_[cache_level_];
      --count_;
      cache_valid_ = false;
      return e;
    }
    if (cache_level_ == 0) {
      DrainLevel0(cache_slot_);
    } else {
      Cascade(cache_level_, cache_slot_, now);
    }
    cache_valid_ = false;
    Min(now, &when);
  }
  Entry e = std::move(bucket_[bucket_pos_]);
  ++bucket_pos_;
  --count_;
  if (bucket_pos_ == bucket_.size()) {
    bucket_.clear();
    bucket_pos_ = 0;
  }
  // No shortcut to the next bucket entry here: a level>=1 slot can still
  // hold a same-tick entry with a *smaller* seq (inserted long ago with a
  // large delta), which must fire before the bucket's next entry — the
  // full recompute in Min() finds it and the drain merge re-sorts.
  cache_valid_ = false;
  return e;
}

}  // namespace qanaat
