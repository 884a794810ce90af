// Protocol hot-path baseline: isolates the three levers of the protocol
// overhaul and composes them in a fig7-style end-to-end sweep.
//
//  * paxos_slot_churn — a 3-node Multi-Paxos cluster wired with
//    zero-latency loopback delivery, driven through N slots: measures
//    the flat slot map, vote-set and delivery bookkeeping per decided
//    slot with no transport or CPU model in the way.
//  * signable_fresh / signable_memoized — ConsensusSignable derivations
//    with and without the per-slot SignableCache, on a protocol-shaped
//    access pattern (one miss, then hits for the same (view, slot,
//    digest) as votes arrive).
//  * wheel_storm — self-rearming timers over protocol-shaped delays
//    (sub-slot watchdogs to multi-second retries, with occasional timers
//    past the wheel's horizon, which wait in its overflow heap): the
//    simulator's event store in isolation.
//  * e2e — the fig7-style run (Crd-B, 10% intra-shard cross-enterprise,
//    seed 1) at three cluster scales (2x2, 4x4, 8x4 enterprises x
//    shards) at a fixed per-cluster offered load. The 4x4 point (30k tps
//    from 16 client machines) is the repo's one fig7-style end-to-end
//    wall-clock measurement.
//
// Every record prints as a bench JSON line and the set is written to
// BENCH_protocol.json (override with a path argument). --quick runs one
// repetition with reduced counts for the CI bench-smoke job; committed
// baselines use the full default.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "consensus/paxos.h"
#include "sim/network.h"

namespace qanaat {
namespace bench {
namespace {

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------ paxos slot churn

struct ChurnResult {
  uint64_t slots = 0;
  uint64_t messages = 0;
  double wall_s = 0;
  double slots_per_sec = 0;
};

/// Drives a 3-node PaxosEngine cluster through `slots` decided slots with
/// synchronous loopback delivery: every broadcast/send invokes the peer
/// handler inline, so the measurement is pure engine bookkeeping.
ChurnResult RunPaxosSlotChurn(uint64_t slots) {
  Env env(7);
  constexpr int kN = 3;
  std::vector<std::unique_ptr<PaxosEngine>> engines(kN);
  std::vector<NodeId> cluster = {0, 1, 2};
  uint64_t delivered = 0;
  uint64_t messages = 0;

  for (int i = 0; i < kN; ++i) {
    EngineContext ctx;
    ctx.env = &env;
    ctx.self = static_cast<NodeId>(i);
    ctx.cluster = cluster;
    ctx.self_index = i;
    ctx.send = [&, i](NodeId to, MessageRef m) {
      ++messages;
      engines[to]->OnMessage(static_cast<NodeId>(i), m);
    };
    ctx.broadcast = [&, i](MessageRef m) {
      for (int p = 0; p < kN; ++p) {
        if (p == i) continue;
        ++messages;
        engines[p]->OnMessage(static_cast<NodeId>(i), m);
      }
    };
    ctx.start_timer = [](SimTime, uint64_t, uint64_t) {};  // never fires
    ctx.deliver = [&](uint64_t, const ConsensusValue&) { ++delivered; };
    engines[i] = std::make_unique<PaxosEngine>(std::move(ctx), /*f=*/1,
                                               /*base_timeout_us=*/100000);
  }

  auto t0 = std::chrono::steady_clock::now();
  ConsensusValue v;  // noop values: churn measures slot state, not blocks
  for (uint64_t s = 0; s < slots; ++s) engines[0]->Propose(v);
  ChurnResult r;
  r.slots = delivered / kN;
  r.messages = messages;
  r.wall_s = WallSince(t0);
  r.slots_per_sec = static_cast<double>(r.slots) / r.wall_s;
  return r;
}

// --------------------------------------------------- signable throughput

struct SignableResult {
  uint64_t ops = 0;
  double wall_s = 0;
  double ops_per_sec = 0;
  uint64_t check = 0;  // fold, so the loop cannot be optimized away
};

/// Protocol-shaped access pattern: per slot, one derivation then
/// `kHitsPerSlot` re-uses (self-sign, vote verifies, commit sign).
SignableResult RunSignable(uint64_t slot_count, bool memoized) {
  constexpr int kHitsPerSlot = 6;
  SignableResult r;
  Sha256Digest d;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t s = 1; s <= slot_count; ++s) {
    d.bytes[0] = static_cast<uint8_t>(s);
    d.bytes[8] = static_cast<uint8_t>(s >> 8);
    if (memoized) {
      SignableCache cache;
      for (int k = 0; k < kHitsPerSlot; ++k) {
        r.check ^= cache.Get(3, s, d).Prefix64();
      }
    } else {
      for (int k = 0; k < kHitsPerSlot; ++k) {
        r.check ^= ConsensusSignable(3, s, d).Prefix64();
      }
    }
  }
  r.ops = slot_count * kHitsPerSlot;
  r.wall_s = WallSince(t0);
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  return r;
}

// -------------------------------------------------------- wheel storm

class ProtocolTimerActor : public Actor {
 public:
  ProtocolTimerActor(Env* env, uint64_t* left)
      : Actor(env, "wheel"), left_(left) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (*left_ == 0) return;
    --*left_;
    // Protocol-shaped delays: batcher deadline, slot watchdog, cross
    // retry, checkpoint horizon — plus a rare timer past the wheel's
    // horizon that exercises its overflow and the migration back.
    static constexpr SimTime kDelays[] = {120, 2000, 65000, 400000};
    SimTime d = (payload % 97 == 0) ? (20 * kSecond)
                                    : kDelays[payload % 4];
    StartTimer(d, tag, payload + 1);
  }
  void Kick(int streams) {
    for (int i = 0; i < streams; ++i) StartTimer(1 + i, 1, i);
  }

 private:
  uint64_t* left_;
};

struct RawResult {
  uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
};

RawResult RunWheelStorm(uint64_t firings) {
  Env env(11);
  Network net(&env);
  uint64_t left = firings;
  ProtocolTimerActor actor(&env, &left);
  auto t0 = std::chrono::steady_clock::now();
  actor.Kick(64);
  RawResult r;
  r.events = env.sim.RunAll();
  r.wall_s = WallSince(t0);
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

// ------------------------------------------------------------ e2e sweep

struct E2eResult {
  int enterprises = 0;
  int shards = 0;
  double offered_tps = 0;
  double measured_tps = 0;
  double avg_lat_ms = 0;
  uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double sim_time_ratio = 0;
};

/// The fig7-style configuration (Crd-B) at a given scale, with the
/// per-cluster offered load held constant (1875 tps per cluster — 30k tps
/// at 4x4), through the harness every paper bench uses.
E2eResult RunE2e(int enterprises, int shards) {
  const int clusters = enterprises * shards;
  QanaatRunConfig cfg =
      MakeQanaatConfig(AllQanaatSeries().front(),
                       CrossKind::kIntraShardCrossEnterprise, 0.1,
                       enterprises, shards);
  cfg.client_machines = clusters;

  E2eResult r;
  r.enterprises = enterprises;
  r.shards = shards;
  LoadPoint p = RunQanaatPoint(cfg, 1875.0 * clusters);
  // Rates cover the simulation run alone, not building the system.
  r.wall_s = p.run_wall_s;
  r.offered_tps = p.offered_tps;
  r.measured_tps = p.measured_tps;
  r.avg_lat_ms = p.avg_latency_ms;
  r.events = p.events;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.sim_time_ratio = (static_cast<double>(p.sim_end) / kSecond) / r.wall_s;
  return r;
}

template <typename Fn, typename Res>
Res BestOfN(int n, Fn fn, Res first) {
  Res best = first;
  for (int i = 1; i < n; ++i) {
    Res r = fn();
    if (r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace
}  // namespace bench
}  // namespace qanaat

int main(int argc, char** argv) {
  using namespace qanaat;
  using namespace qanaat::bench;

  bool quick = false;
  const char* path = "BENCH_protocol.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      path = argv[i];
    }
  }
  const int reps = quick ? 1 : 3;
  // Churn keeps its full slot count even in quick mode: the run is
  // cheap, and a shorter one is dominated by allocator/map warm-up,
  // which would read as a spurious regression against the full-mode
  // baseline.
  const uint64_t churn_slots = 200000;
  const uint64_t signable_slots = quick ? 300000 : 1000000;
  const uint64_t storm_firings = quick ? 500000 : 2000000;

  std::printf("bench_protocol — protocol hot-path levers + e2e scales "
              "(%s mode)\n\n", quick ? "quick" : "full");

  if (quick) {
    // Untimed full-size warm-up: the first churn run is dominated by
    // page faults growing the allocator arena for the ~200k-slot maps;
    // later runs reuse the freed arena. Best-of-3 hides that in full
    // mode; the single quick repetition must not report it as a
    // regression.
    RunPaxosSlotChurn(churn_slots);
  }
  ChurnResult churn = BestOfN(
      reps, [&] { return RunPaxosSlotChurn(churn_slots); },
      RunPaxosSlotChurn(churn_slots));
  std::printf("paxos churn  : %9llu slots (%llu msgs) in %6.3fs -> %10.0f "
              "slots/s\n",
              static_cast<unsigned long long>(churn.slots),
              static_cast<unsigned long long>(churn.messages), churn.wall_s,
              churn.slots_per_sec);

  SignableResult fresh = BestOfN(
      reps, [&] { return RunSignable(signable_slots, false); },
      RunSignable(signable_slots, false));
  SignableResult memo = BestOfN(
      reps, [&] { return RunSignable(signable_slots, true); },
      RunSignable(signable_slots, true));
  std::printf("signable     : fresh %10.0f ops/s, memoized %10.0f ops/s "
              "(%.1fx)\n",
              fresh.ops_per_sec, memo.ops_per_sec,
              memo.ops_per_sec / fresh.ops_per_sec);

  RawResult storm = BestOfN(
      reps, [&] { return RunWheelStorm(storm_firings); },
      RunWheelStorm(storm_firings));
  std::printf("wheel storm  : %9llu events in %6.3fs  -> %10.0f events/s\n",
              static_cast<unsigned long long>(storm.events), storm.wall_s,
              storm.events_per_sec);

  struct Scale {
    int e;
    int s;
    int reps;
  };
  // The 4x4 point is the fig7-style end-to-end run (best-of-3);
  // the outer scales bound how the protocol layer behaves as cluster
  // count shrinks and grows, one repetition each.
  const Scale scales[] = {{2, 2, 1}, {4, 4, quick ? 1 : 3}, {8, 4, 1}};
  std::vector<E2eResult> e2e;
  for (const Scale& sc : scales) {
    E2eResult r = BestOfN(
        sc.reps, [&] { return RunE2e(sc.e, sc.s); }, RunE2e(sc.e, sc.s));
    std::printf("e2e %dx%-2d     : %9llu events in %6.3fs  -> %10.0f "
                "events/s, %0.0f tps (avg lat %.2f ms), sim/wall %.2fx\n",
                r.enterprises, r.shards,
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.events_per_sec, r.measured_tps, r.avg_lat_ms,
                r.sim_time_ratio);
    e2e.push_back(r);
  }
  std::printf("\n");

  std::string json = "{\"bench\":\"protocol\",\"mode\":\"";
  json += quick ? "quick" : "full";
  json += "\",\"series\":[\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  {\"metric\":\"paxos_slot_churn\",\"slots\":%llu,"
                "\"messages\":%llu,\"wall_s\":%.4f,"
                "\"slots_per_sec\":%.0f},\n",
                static_cast<unsigned long long>(churn.slots),
                static_cast<unsigned long long>(churn.messages),
                churn.wall_s, churn.slots_per_sec);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  {\"metric\":\"signable_fresh\",\"ops\":%llu,"
                "\"wall_s\":%.4f,\"events_per_sec\":%.0f},\n",
                static_cast<unsigned long long>(fresh.ops), fresh.wall_s,
                fresh.ops_per_sec);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  {\"metric\":\"signable_memoized\",\"ops\":%llu,"
                "\"wall_s\":%.4f,\"events_per_sec\":%.0f},\n",
                static_cast<unsigned long long>(memo.ops), memo.wall_s,
                memo.ops_per_sec);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  {\"metric\":\"wheel_storm\",\"events\":%llu,"
                "\"wall_s\":%.4f,\"events_per_sec\":%.0f},\n",
                static_cast<unsigned long long>(storm.events), storm.wall_s,
                storm.events_per_sec);
  json += buf;
  for (size_t i = 0; i < e2e.size(); ++i) {
    const E2eResult& r = e2e[i];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"metric\":\"e2e\",\"enterprises\":%d,\"shards\":%d,"
        "\"offered_tps\":%.0f,\"tput_tps\":%.0f,\"avg_lat_ms\":%.2f,"
        "\"events\":%llu,\"wall_s\":%.4f,\"events_per_sec\":%.0f,"
        "\"sim_time_ratio\":%.3f}%s\n",
        r.enterprises, r.shards, r.offered_tps, r.measured_tps,
        r.avg_lat_ms, static_cast<unsigned long long>(r.events), r.wall_s,
        r.events_per_sec, r.sim_time_ratio,
        i + 1 < e2e.size() ? "," : "");
    json += buf;
  }
  json += "]}\n";
  std::fputs(json.c_str(), stdout);

  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  return 0;
}
