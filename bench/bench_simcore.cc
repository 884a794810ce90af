// Sim-core throughput baseline: how fast the discrete-event engine itself
// runs, independent of the protocol stacks.
//
//  * raw_message_events — a message ring through Network/Actor with no
//    protocol logic: measures scheduling + delivery + CPU-model overhead
//    per event.
//  * raw_timer_events — a self-rearming timer storm: measures the timer
//    path of the event core.
//
// The fig7-style end-to-end run is measured once, by bench_protocol's
// `e2e` series (its 4x4 point).
//
// Every record is printed as a bench JSON line on stdout and the whole
// set is written to BENCH_simcore.json (override with argv[1]) so CI can
// archive the perf trajectory run over run.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/network.h"

namespace qanaat {
namespace bench {
namespace {

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Ring actor: forwards a token to the next actor until the hop budget
/// of the token's ring is exhausted.
class RingActor : public Actor {
 public:
  RingActor(Env* env, int index) : Actor(env, "ring/" + std::to_string(index)) {}

  void Wire(NodeId next, uint64_t* hops_left) {
    next_ = next;
    hops_left_ = hops_left;
  }

  void OnMessage(NodeId /*from*/, const MessageRef& msg) override {
    if (*hops_left_ == 0) return;
    --*hops_left_;
    Send(next_, msg);
  }

 private:
  NodeId next_ = kInvalidNode;
  uint64_t* hops_left_ = nullptr;
};

/// Timer actor: rearm on every firing until the budget is exhausted.
class RearmActor : public Actor {
 public:
  explicit RearmActor(Env* env, uint64_t* left) : Actor(env, "rearm"), left_(left) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (*left_ == 0) return;
    --*left_;
    StartTimer(1 + (payload % 7), tag, payload + 1);
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

RawResult RunMessageRing(uint64_t hops) {
  Env env(42);
  Network net(&env);
  env.costs.verify_sig_us = 0;
  constexpr int kActors = 16;
  constexpr int kTokens = 8;
  std::vector<std::unique_ptr<RingActor>> actors;
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(std::make_unique<RingActor>(&env, i));
  }
  uint64_t hops_left = hops;
  for (int i = 0; i < kActors; ++i) {
    actors[i]->Wire(actors[(i + 1) % kActors]->id(), &hops_left);
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kTokens; ++t) {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    net.Send(actors[t % kActors]->id(), actors[(t + 1) % kActors]->id(), m);
  }
  RawResult r;
  r.events = env.sim.RunAll();
  r.wall_s = WallSince(t0);
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

RawResult RunTimerStorm(uint64_t firings) {
  Env env(43);
  Network net(&env);
  uint64_t left = firings;
  RearmActor actor(&env, &left);
  auto t0 = std::chrono::steady_clock::now();
  actor.Kick(8);
  RawResult r;
  r.events = env.sim.RunAll();
  r.wall_s = WallSince(t0);
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

/// Best-of-n for the raw micro measurements (single-core CI containers
/// are noisy; the simulated work is identical per repetition).
template <typename Fn>
RawResult BestOf(int n, Fn fn) {
  RawResult best;
  for (int i = 0; i < n; ++i) {
    RawResult r = fn();
    if (best.events == 0 || r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace
}  // namespace bench
}  // namespace qanaat

int main(int argc, char** argv) {
  using namespace qanaat;
  using namespace qanaat::bench;

  // --quick: one repetition with reduced event counts, for the CI
  // bench-smoke job (full best-of-3 stays the default and is what the
  // committed BENCH_simcore.json baselines are measured with).
  bool quick = false;
  const char* path = "BENCH_simcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      path = argv[i];
    }
  }

  const bool fast = FastMode();
  const uint64_t ring_hops = (fast || quick) ? 500000 : 2000000;
  const uint64_t timer_firings = (fast || quick) ? 500000 : 2000000;
  const int reps = quick ? 1 : 3;
  const char* mode = quick ? "quick" : fast ? "fast" : "full";

  std::printf("bench_simcore — sim-core event throughput (%s mode)\n\n",
              mode);

  RawResult ring = BestOf(reps, [&] { return RunMessageRing(ring_hops); });
  std::printf("message ring : %9llu events in %6.3fs  -> %10.0f events/s\n",
              static_cast<unsigned long long>(ring.events), ring.wall_s,
              ring.events_per_sec);

  RawResult timers =
      BestOf(reps, [&] { return RunTimerStorm(timer_firings); });
  std::printf("timer storm  : %9llu events in %6.3fs  -> %10.0f events/s\n",
              static_cast<unsigned long long>(timers.events), timers.wall_s,
              timers.events_per_sec);

  std::printf("\n");

  char buf[2048];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"simcore\",\"mode\":\"%s\",\"series\":[\n"
      "  {\"metric\":\"raw_message_events\",\"events\":%llu,"
      "\"wall_s\":%.4f,\"events_per_sec\":%.0f},\n"
      "  {\"metric\":\"raw_timer_events\",\"events\":%llu,"
      "\"wall_s\":%.4f,\"events_per_sec\":%.0f}\n"
      "]}\n",
      mode,
      static_cast<unsigned long long>(ring.events), ring.wall_s,
      ring.events_per_sec,
      static_cast<unsigned long long>(timers.events), timers.wall_s,
      timers.events_per_sec);
  std::fputs(buf, stdout);

  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(buf, 1, static_cast<size_t>(n), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  return 0;
}
