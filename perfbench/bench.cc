// qanaat_perfbench: runs one fixed-load Qanaat workload end to end and
// prints the benchmark's result record (see perfbench/README.md).
//
//   qanaat_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--span-ms <ms>] [--min-reps <n>] [--slice-us <us>]
//
// Untraced (--trace 0): the workload's simulation is repeated, each time
// from scratch with the same seed, while another repetition still fits
// in --seconds of wall time (at least --min-reps times). Every
// repetition does identical work, so their wall times differ only by
// machine interference: wall_s is the fastest repetition and setup_s the
// median set-up, both scaled to a reference memory latency measured by
// MemoryLatencyProbe. Simulated-time metrics must be identical in every
// repetition (the determinism check). The first repetition also runs the
// correctness gate: the full safety audit, the ledger re-verification
// and a replay of every executing replica's committed blocks into a
// fresh ExecutorCore whose stores must fingerprint equal to the live
// ones.
//
// Traced (--trace 1): one untraced repetition, then one traced
// repetition of the same run (100 ms Run slices with /proc/self/statm
// reads; delivered links are recorded so the gate also audits firewall
// containment), followed by post-run replays of the run's own committed
// blocks through each layer's public API. Prints the per-layer metrics.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. A run that fails the gate prints the
// violation on stderr, no result, and exits 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "harness/chaos.h"
#include "qanaat/system.h"
#include "sim/network.h"

namespace qanaat {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------ workloads

struct Workload {
  const char* name;
  FailureModel failure_model;
  bool firewall;
  ProtocolFamily family;
  CrossKind cross_kind;
  double cross_fraction;
  double zipf_s;
  double offered_tps;
  /// Uniform loss on every link; client retransmission is on when > 0.
  double loss;
  /// Every cluster's initial primary crashes at 1/3 of the issue span
  /// and recovers at 1/2.
  bool crash_primaries;
};

// All: 4 enterprises x 4 shards, f = g = h = 1, SmallBank, 16 open-loop
// Poisson client machines, the CostModel's default network delay.
const Workload kWorkloads[] = {
    // Crd-B, 10% intra-shard cross-enterprise (the fig7_e2e point).
    {"pbft_local", FailureModel::kByzantine, false,
     ProtocolFamily::kCoordinator, CrossKind::kIntraShardCrossEnterprise,
     0.10, 0.0, 30000, 0.0, false},
    // Flt-B(PF), 50% cross-shard cross-enterprise (Fig 9b).
    {"pf_cross_shard", FailureModel::kByzantine, true,
     ProtocolFamily::kFlattened, CrossKind::kCrossShardCrossEnterprise, 0.50,
     0.0, 4000, 0.0, false},
    // Crd-C, 20% cross-shard intra-enterprise (Fig 8), Zipf 0.9, 1% loss,
    // primaries crash and recover.
    {"paxos_lossy_failover", FailureModel::kCrash, false,
     ProtocolFamily::kCoordinator, CrossKind::kCrossShardIntraEnterprise,
     0.20, 0.9, 30000, 0.01, true},
};

constexpr int kEnterprises = 4;
constexpr int kShards = 4;
constexpr int kClientMachines = 16;
constexpr SimTime kClientRetransmit = 250 * kMillisecond;
constexpr SimTime kDrain = 500 * kMillisecond;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Schedule {
  SimTime span;          // clients issue in [0, span)
  SimTime measure_from;  // measurement window [measure_from, measure_to)
  SimTime measure_to;
  SimTime run_until;     // span + drain
};

Schedule MakeSchedule(SimTime span) {
  Schedule s;
  s.span = span;
  s.measure_from = span * 3 / 20;  // 300 ms of a 2 s span
  s.measure_to = span - span / 20;
  s.run_until = span + kDrain;
  return s;
}

/// Builds the deployment, its clients and its fault schedule.
std::unique_ptr<QanaatSystem> BuildSystem(const Workload& w, uint64_t seed,
                                          const Schedule& s) {
  QanaatSystem::Options opts;
  opts.params.num_enterprises = kEnterprises;
  opts.params.shards_per_enterprise = kShards;
  opts.params.failure_model = w.failure_model;
  opts.params.use_firewall = w.firewall;
  opts.params.family = w.family;
  opts.seed = seed;
  auto sys = std::make_unique<QanaatSystem>(std::move(opts));

  WorkloadParams wl;
  wl.cross_kind = w.cross_kind;
  wl.cross_fraction = w.cross_fraction;
  wl.zipf_s = w.zipf_s;
  for (int i = 0; i < kClientMachines; ++i) {
    ClientMachine* c = sys->AddClient(wl, w.offered_tps / kClientMachines);
    if (w.loss > 0) c->SetRetransmitTimeout(kClientRetransmit);
    c->Start(0, s.span, s.measure_from, s.measure_to);
  }
  if (w.loss > 0) sys->net().SetDropRate(w.loss);
  if (w.crash_primaries) {
    for (int c = 0; c < sys->cluster_count(); ++c) {
      Actor* primary = sys->ordering_node(c, 0);
      sys->env().sim.ScheduleAt(s.span / 3, [primary] { primary->Crash(); });
      sys->env().sim.ScheduleAt(s.span / 2,
                                [primary] { primary->Recover(); });
    }
  }
  return sys;
}

uint64_t TotalIssued(const QanaatSystem& sys) {
  uint64_t n = 0;
  for (const auto& c : sys.clients()) n += c->issued();
  return n;
}

// ------------------------------------------------------------- memory


double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ------------------------------------------------------ machine control

/// Dependent loads around a 64 MB random cycle. The simulator's working
/// set (hundreds of MB of hash maps, queues and stores) is bound by
/// memory latency, and on a shared machine that latency drifts by tens
/// of percent over minutes; wall times drift with this probe, while a
/// pure ALU loop (or SHA-256) does not track them. The probe runs no
/// program code, so no change to the program can move it.
class MemoryLatencyProbe {
 public:
  MemoryLatencyProbe() : next_(kEntries) {
    // A full-period LCG modulo 2^24 (odd increment, multiplier = 1 mod 4)
    // visits every entry in one cycle, in an order no prefetcher follows.
    for (uint32_t i = 0; i < kEntries; ++i) {
      next_[i] = (i * 0x2545F491u + 0x9E3779B1u) & (kEntries - 1);
    }
  }

  /// Wall ns per dependent load, over kLoads loads.
  double NsPerLoad() {
    auto t0 = Clock::now();
    uint32_t p = pos_;
    for (int i = 0; i < kLoads; ++i) p = next_[p];
    pos_ = p;
    return Since(t0) * 1e9 / kLoads;
  }

 private:
  static constexpr uint32_t kEntries = 16u << 20;  // 64 MB of uint32_t
  static constexpr int kLoads = 1'000'000;
  std::vector<uint32_t> next_;
  volatile uint32_t pos_ = 0;  // volatile: the loads must not be elided
};

/// Wall-clock metrics are reported at this probe latency: raw seconds
/// times kReferenceLoadNs / (the run's median probe latency). 220 ns is
/// the probe's typical reading on the 4-core Xeon VM the baseline was
/// measured on.
constexpr double kReferenceLoadNs = 220;

// ------------------------------------------------------ latency summary

/// Histogram::Percentile returns the lower bound of the bucket holding
/// the ranked sample (8 sub-buckets per octave, so up to 12.5% low, on a
/// fixed grid). This recovers the bucket's population by bisecting
/// Percentile over ranks and interpolates linearly inside the bucket.
double InterpolatedPercentileUs(const Histogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  auto at_rank = [&](uint64_t r) {
    return h.Percentile((static_cast<double>(r) + 0.5) /
                        static_cast<double>(n));
  };
  uint64_t r = std::min<uint64_t>(
      n - 1, static_cast<uint64_t>(q * static_cast<double>(n)));
  const int64_t low = at_rank(r);
  uint64_t lo = 0, hi = r;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < low) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = r;
  hi = n - 1;
  while (lo < hi) {
    uint64_t mid = hi - (hi - lo) / 2;
    if (at_rank(mid) > low) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  double width = 1;
  if (low >= 8) {
    int msb = 63 - __builtin_clzll(static_cast<uint64_t>(low));
    width = static_cast<double>(int64_t{1} << (msb - 3));
  }
  double v = static_cast<double>(low) +
             width * (static_cast<double>(r - first) + 0.5) /
                 static_cast<double>(last - first + 1);
  return std::min(v, static_cast<double>(h.max()));
}

// ------------------------------------------------------------ one run

/// What one simulated run yields. Every field except the wall-clock ones
/// is a function of (workload, seed, span) alone.
struct RunResult {
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  // simulated time
  uint64_t issued = 0;
  uint64_t settled = 0;
  uint64_t window_settles = 0;
  double window_s = 0;
  uint64_t lat_samples = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_mean_us = 0;
  int64_t lat_p50_floor_us = 0;
  int64_t lat_p99_floor_us = 0;
  SimTime unavail_us = 0;
  uint64_t trace_hash = 0;
  uint64_t events = 0;

  bool SameSimulation(const RunResult& o) const {
    return issued == o.issued && settled == o.settled &&
           window_settles == o.window_settles &&
           lat_samples == o.lat_samples && lat_p50_us == o.lat_p50_us &&
           lat_p99_us == o.lat_p99_us && lat_mean_us == o.lat_mean_us &&
           unavail_us == o.unavail_us && trace_hash == o.trace_hash &&
           events == o.events;
  }
};

/// Per-slice record of a traced run.
struct Slice {
  SimTime end;
  double wall_s;
  double rss_mb;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  SimTime span = 2 * kSecond;
  int min_reps = 3;
  /// Run slice of the untraced run; 0 = a single Run call (then
  /// unavailability is not observed).
  SimTime slice_us = kMillisecond;
};

/// Runs the simulation in `slice`-sized Run calls. After every slice the
/// settle count is polled: the longest stretch of the measurement window
/// without a settle is the run's unavailability. `on_slice` (optional)
/// sees every slice boundary.
void RunSliced(QanaatSystem& sys, const Schedule& s, SimTime slice,
               RunResult* out,
               const std::function<void(SimTime)>& on_slice = nullptr) {
  Simulator& sim = sys.env().sim;
  const double wall0 = sim.wall_seconds_in_run();
  const uint64_t events0 = sim.events_executed();
  if (slice <= 0) {
    sim.Run(s.run_until);
  } else {
    uint64_t last_count = 0;
    SimTime last_settle = s.measure_from;
    SimTime longest = 0;
    for (SimTime t = slice; t <= s.run_until; t += slice) {
      sim.Run(t);
      if (on_slice) on_slice(t);
      if (t <= s.measure_from || t > s.measure_to) {
        last_count = sys.TotalAccepted();
        continue;
      }
      uint64_t count = sys.TotalAccepted();
      if (count != last_count) {
        longest = std::max(longest, t - last_settle);
        last_settle = t;
        last_count = count;
      }
    }
    out->unavail_us = std::max(longest, s.measure_to - last_settle);
  }
  out->wall_s = sim.wall_seconds_in_run() - wall0;
  out->events = sim.events_executed() - events0;
}

void Summarize(QanaatSystem& sys, const Schedule& s, RunResult* r) {
  r->issued = TotalIssued(sys);
  r->settled = sys.TotalAccepted();
  r->window_settles = sys.TotalMeasuredCommits();
  r->window_s = static_cast<double>(s.measure_to - s.measure_from) / kSecond;
  Histogram lat = sys.MergedLatencies();
  r->lat_samples = lat.count();
  r->lat_p50_us = InterpolatedPercentileUs(lat, 0.50);
  r->lat_p99_us = InterpolatedPercentileUs(lat, 0.99);
  r->lat_mean_us = lat.Mean();
  r->lat_p50_floor_us = lat.Percentile(0.50);
  r->lat_p99_floor_us = lat.Percentile(0.99);
  r->trace_hash = sys.net().trace_hash();
}

// ------------------------------------------------------ correctness gate

/// The executor core whose ledger and stores represent cluster `c`: its
/// last executing replica (execution node when execution is separated —
/// ordering-node ledgers stay empty behind the firewall). Index 0 is the
/// primary that the failover workload crashes, so the last index is the
/// replica that never lost its volatile state.
const ExecutorCore& ReplicaCore(QanaatSystem& sys, int c) {
  const ClusterConfig& cc = sys.directory().Cluster(c);
  if (cc.SeparatedExecution()) {
    return sys.execution_node(c, static_cast<int>(cc.execution.size()) - 1)
        ->core();
  }
  return sys.ordering_node(c, static_cast<int>(cc.ordering.size()) - 1)
      ->exec_core();
}

/// Re-executes `live`'s ledger, in ledger order, on a fresh core.
std::unique_ptr<ExecutorCore> Replay(QanaatSystem& sys, Env* env,
                                     const ExecutorCore& live,
                                     Status* status) {
  auto core = std::make_unique<ExecutorCore>(env, &sys.model(),
                                             live.enterprise(), live.shard());
  const DagLedger& led = live.ledger();
  for (size_t i = 0; i < led.size() && status->ok(); ++i) {
    const DagLedger::Entry& e = led.entry(i);
    *status = core->Submit(e.block, e.cert, e.alpha, e.gamma,
                           [](const ExecutorCore::ExecResult&) {});
  }
  return core;
}

/// Replayed stores and ledger must match the live replica exactly.
Status CompareReplay(const ExecutorCore& live, const ExecutorCore& replay,
                     int cluster) {
  std::string where = "cluster " + std::to_string(cluster);
  if (replay.ledger().size() != live.ledger().size() ||
      !replay.pending().empty()) {
    return Status::Internal("replay of " + where + " executed " +
                            std::to_string(replay.ledger().size()) + " of " +
                            std::to_string(live.ledger().size()) +
                            " blocks");
  }
  for (const auto& [ref, chain] : live.ledger().chains()) {
    if (replay.StateFingerprintOf(ref.collection) !=
        live.StateFingerprintOf(ref.collection)) {
      return Status::Internal("replayed store of " + ref.Label() + " on " +
                              where + " differs from the live replica");
    }
  }
  return Status::Ok();
}

struct GateResult {
  Status status = Status::Ok();
  double audit_s = 0;
  double replay_s = 0;
  uint64_t replay_txs = 0;
  std::vector<std::unique_ptr<ExecutorCore>> replayed;  // per cluster
};

/// Full audit + ledger verification + replay equality. Runs untimed.
GateResult CorrectnessGate(QanaatSystem& sys, Env* replay_env) {
  GateResult g;
  auto t0 = Clock::now();
  g.status = SafetyAuditor::AuditQanaat(sys, /*full=*/true, nullptr);
  if (g.status.ok()) g.status = sys.VerifyAllLedgers();
  g.audit_s = Since(t0);
  if (!g.status.ok()) return g;
  t0 = Clock::now();
  for (int c = 0; c < sys.cluster_count() && g.status.ok(); ++c) {
    const ExecutorCore& live = ReplicaCore(sys, c);
    g.replayed.push_back(Replay(sys, replay_env, live, &g.status));
    g.replay_txs += live.ledger().total_txs();
  }
  g.replay_s = Since(t0);
  for (int c = 0; c < sys.cluster_count() && g.status.ok(); ++c) {
    g.status = CompareReplay(ReplicaCore(sys, c), *g.replayed[c], c);
  }
  return g;
}

// ------------------------------------------------------- layer replays

constexpr int kReplayPasses = 5;

/// Fastest of kReplayPasses runs of `pass`, in seconds. `pass` returns how
/// many of its items it verified; `ok` clears unless every run verified
/// all `expected` of them.
double BestPass(size_t expected, bool* ok,
                const std::function<size_t()>& pass) {
  double best = 0;
  for (int i = 0; i < kReplayPasses; ++i) {
    auto t0 = Clock::now();
    size_t verified = pass();
    double s = Since(t0);
    best = i == 0 ? s : std::min(best, s);
    *ok = *ok && verified == expected;
  }
  return best;
}

/// Every committed entry of every cluster's representative replica.
std::vector<const DagLedger::Entry*> CommittedEntries(QanaatSystem& sys) {
  std::vector<const DagLedger::Entry*> out;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const DagLedger& led = ReplicaCore(sys, c).ledger();
    for (size_t i = 0; i < led.size(); ++i) out.push_back(&led.entry(i));
  }
  return out;
}

/// Loopback cluster: sends go to a FIFO that is drained after each
/// proposal (no network, no CPU model, timers never fire), so the time
/// measured is the engine's own bookkeeping per decided slot. Returns
/// wall seconds per decided slot.
template <typename Engine>
double EngineSlotSeconds(const std::vector<const DagLedger::Entry*>& entries,
                         int n, int f, uint64_t seed, std::string* error) {
  struct Pending {
    NodeId from, to;
    MessageRef msg;
  };
  Env env(seed);
  std::vector<std::unique_ptr<Engine>> engines(n);
  std::deque<Pending> queue;
  std::vector<NodeId> members;
  for (int i = 0; i < n; ++i) members.push_back(static_cast<NodeId>(i));
  uint64_t delivered = 0;
  for (int i = 0; i < n; ++i) {
    const NodeId self = static_cast<NodeId>(i);
    EngineContext ctx;
    ctx.env = &env;
    ctx.self = self;
    ctx.cluster = members;
    ctx.self_index = i;
    ctx.pipeline_depth = static_cast<size_t>(SystemParams().pipeline_depth);
    ctx.checkpoint_interval =
        static_cast<size_t>(SystemParams().checkpoint_interval);
    ctx.send = [&queue, self](NodeId to, MessageRef m) {
      queue.push_back({self, to, std::move(m)});
    };
    ctx.broadcast = [&queue, &members, self](MessageRef m) {
      for (NodeId p : members) {
        if (p != self) queue.push_back({self, p, m});
      }
    };
    ctx.start_timer = [](SimTime, uint64_t, uint64_t) {};
    ctx.deliver = [&delivered](uint64_t, const ConsensusValue&) {
      ++delivered;
    };
    engines[i] = std::make_unique<Engine>(std::move(ctx), f,
                                          SystemParams().consensus_timeout_us);
  }
  auto t0 = Clock::now();
  for (const DagLedger::Entry* e : entries) {
    engines[0]->Propose(ConsensusValue::ForBlock(e->block));
    while (!queue.empty()) {
      Pending p = std::move(queue.front());
      queue.pop_front();
      engines[p.to]->OnMessage(p.from, p.msg);
    }
  }
  double wall = Since(t0);
  uint64_t slots = delivered / static_cast<uint64_t>(n);
  if (slots != entries.size()) {
    *error = "loopback engine decided " + std::to_string(slots) + " of " +
             std::to_string(entries.size()) + " slots";
  }
  return Ratio(wall, static_cast<double>(slots));
}

class RingActor : public Actor {
 public:
  RingActor(Env* env, int i) : Actor(env, "ring/" + std::to_string(i)) {}
  void Wire(NodeId next, uint64_t* left) {
    next_ = next;
    left_ = left;
  }
  void OnMessage(NodeId, const MessageRef& msg) override {
    if (*left_ == 0) return;
    --*left_;
    Send(next_, msg);
  }

 private:
  NodeId next_ = kInvalidNode;
  uint64_t* left_ = nullptr;
};

class RearmActor : public Actor {
 public:
  RearmActor(Env* env, uint64_t* left) : Actor(env, "rearm"), left_(left) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (*left_ == 0) return;
    --*left_;
    StartTimer(1 + static_cast<SimTime>(payload % 7), tag, payload + 1);
  }
  void Kick(int streams) {
    for (int i = 0; i < streams; ++i) StartTimer(1 + i, 1, i);
  }

 private:
  uint64_t* left_;
};

/// Protocol-free message ring through Network/Actor: ns per event.
double RingNsPerEvent(uint64_t hops) {
  Env env(42);
  Network net(&env);
  std::vector<std::unique_ptr<RingActor>> ring;
  for (int i = 0; i < 16; ++i) {
    ring.push_back(std::make_unique<RingActor>(&env, i));
  }
  uint64_t left = hops;
  for (int i = 0; i < 16; ++i) ring[i]->Wire(ring[(i + 1) % 16]->id(), &left);
  for (int t = 0; t < 8; ++t) {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    net.Send(ring[t]->id(), ring[t + 1]->id(), m);
  }
  uint64_t events = env.sim.RunAll();
  return Ratio(env.sim.wall_seconds_in_run() * 1e9, double(events));
}

/// Protocol-free self-rearming timer storm: ns per event.
double TimerNsPerEvent(uint64_t firings) {
  Env env(43);
  Network net(&env);
  uint64_t left = firings;
  RearmActor actor(&env, &left);
  actor.Kick(8);
  uint64_t events = env.sim.RunAll();
  return Ratio(env.sim.wall_seconds_in_run() * 1e9, double(events));
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result record. `attempted` counts simulated runs; a failing run
/// exits before printing one, so `failed` is always 0.
std::string ResultJson(size_t attempted, const std::vector<Metric>& metrics) {
  std::string j = "{\"correct\": true, \"attempted\": " +
                  std::to_string(attempted) +
                  ", \"failed\": 0, \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", i ? ", " : "", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    j += buf;
  }
  return j + "}}";
}

void PrintRunLine(const char* label, const RunResult& r) {
  std::printf("%s: setup %.4fs wall %.4fs events %" PRIu64 " settled %" PRIu64
              "/%" PRIu64 " lat p50 %.3fms (floor %.3f) p99 %.3fms (floor "
              "%.3f) mean %.3fms n=%" PRIu64 " unavail %.1fms trace_hash "
              "%016" PRIx64 "\n",
              label, r.setup_s, r.wall_s, r.events, r.settled, r.issued,
              r.lat_p50_us / 1e3, r.lat_p50_floor_us / 1e3,
              r.lat_p99_us / 1e3, r.lat_p99_floor_us / 1e3,
              r.lat_mean_us / 1e3, r.lat_samples, r.unavail_us / 1e3,
              r.trace_hash);
}

/// Machine-readable run identity for the self-test: every simulated-time
/// quantity, bit for bit.
void PrintDetail(const RunResult& r) {
  std::printf("detail {\"trace_hash\": \"%016" PRIx64 "\", \"issued\": %"
              PRIu64 ", \"settled\": %" PRIu64 ", \"window_settles\": %" PRIu64
              ", \"lat_samples\": %" PRIu64 ", \"lat_p50_us\": %.17g, "
              "\"lat_p99_us\": %.17g, \"lat_mean_us\": %.17g, \"events\": %"
              PRIu64 ", \"unavail_us\": %" PRId64 "}\n",
              r.trace_hash, r.issued, r.settled, r.window_settles,
              r.lat_samples, r.lat_p50_us, r.lat_p99_us, r.lat_mean_us,
              r.events, static_cast<int64_t>(r.unavail_us));
}

int Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  return 1;
}

// ------------------------------------------------------------ untraced

int RunUntraced(const Workload& w, const Options& o) {
  const Schedule s = MakeSchedule(o.span);
  std::vector<RunResult> reps;
  // Repeat while another repetition (as long as the slowest so far)
  // still fits in --seconds, and at least --min-reps times. After each
  // repetition the memory-latency probe is read twice. It is built after
  // the first repetition, so it is not part of peak_rss_mb.
  std::unique_ptr<MemoryLatencyProbe> probe;
  std::vector<double> load_ns;
  auto start = Clock::now();
  double longest_rep = 0;
  while (static_cast<int>(reps.size()) < o.min_reps ||
         Since(start) + longest_rep <= o.seconds) {
    RunResult r;
    auto rep_start = Clock::now();
    auto t0 = rep_start;
    std::unique_ptr<QanaatSystem> sys = BuildSystem(w, o.seed, s);
    r.setup_s = Since(t0);
    RunSliced(*sys, s, o.slice_us, &r);
    r.peak_rss_mb = PeakRssMb();
    Summarize(*sys, s, &r);
    PrintRunLine(("rep " + std::to_string(reps.size())).c_str(), r);
    if (reps.empty()) {
      Env replay_env(o.seed);
      GateResult g = CorrectnessGate(*sys, &replay_env);
      std::printf("gate: audit %.3fs replay %.3fs (%" PRIu64 " txs)\n",
                  g.audit_s, g.replay_s, g.replay_txs);
      if (!g.status.ok()) return Fail(g.status.ToString());
    } else if (!r.SameSimulation(reps.front())) {
      return Fail("repetition " + std::to_string(reps.size()) +
                  " of the same seed diverged from the first");
    }
    reps.push_back(r);
    sys.reset();
    if (probe == nullptr) probe = std::make_unique<MemoryLatencyProbe>();
    for (int i = 0; i < 2; ++i) load_ns.push_back(probe->NsPerLoad());
    // The first repetition also pays for the gate and the probe's set-up.
    if (reps.size() > 1) longest_rep = std::max(longest_rep, Since(rep_start));
  }

  const RunResult& first = reps.front();
  if (first.settled == 0 || first.lat_samples == 0) {
    return Fail("no transaction settled in the measurement window");
  }
  std::vector<double> wall, setup;
  for (const RunResult& r : reps) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
  }
  PrintDetail(first);
  const double raw_wall = *std::min_element(wall.begin(), wall.end());
  const double raw_setup = Median(setup);
  const double scale = kReferenceLoadNs / Median(load_ns);
  std::printf("raw wall %.4fs setup %.6fs, probe %.1f ns/load (scale %.4f)\n",
              raw_wall, raw_setup, Median(load_ns), scale);
  std::vector<Metric> m = {
      {"wall_s", raw_wall * scale, "s"},
      {"setup_s", raw_setup * scale, "s"},
      {"peak_rss_mb", first.peak_rss_mb, "MB"},
      {"commit_tps", double(first.window_settles) / first.window_s, "tx/s"},
      {"settle_frac", Ratio(double(first.settled), double(first.issued)),
       "frac"},
      {"lat_p50_ms", first.lat_p50_us / 1e3, "ms"},
      {"lat_p99_ms", first.lat_p99_us / 1e3, "ms"},
      {"lat_mean_ms", first.lat_mean_us / 1e3, "ms"},
  };
  std::printf("%s seed %" PRIu64 ": %zu repetitions, latency samples %" PRIu64
              ", trace_hash %016" PRIx64 "\n",
              w.name, o.seed, reps.size(), first.lat_samples,
              first.trace_hash);
  std::puts(ResultJson(reps.size(), m).c_str());
  return 0;
}

// -------------------------------------------------------------- traced

int RunTraced(const Workload& w, const Options& o) {
  const Schedule s = MakeSchedule(o.span);

  // Reference: the untraced run, exactly as the untraced mode measures it.
  RunResult plain;
  {
    auto t0 = Clock::now();
    std::unique_ptr<QanaatSystem> sys = BuildSystem(w, o.seed, s);
    plain.setup_s = Since(t0);
    RunSliced(*sys, s, o.slice_us, &plain);
    Summarize(*sys, s, &plain);
    PrintRunLine("untraced", plain);
  }

  RunResult r;
  auto t0 = Clock::now();
  std::unique_ptr<QanaatSystem> sys = BuildSystem(w, o.seed, s);
  r.setup_s = Since(t0);
  QanaatSystem& q = *sys;
  Simulator& sim = q.env().sim;
  // Recording delivered links lets the gate audit firewall containment;
  // it costs a set insert per delivery, so only the traced run pays it.
  q.net().set_record_delivered_links(true);
  std::vector<Slice> slices;
  double last_wall = sim.wall_seconds_in_run();
  RunSliced(q, s, 100 * kMillisecond, &r, [&](SimTime t) {
    double wall = sim.wall_seconds_in_run();
    slices.push_back({t, wall - last_wall, CurrentRssMb()});
    last_wall = wall;
  });
  Summarize(q, s, &r);
  PrintRunLine("traced (100 ms slices)", r);
  if (r.trace_hash != plain.trace_hash) {
    return Fail("traced run diverged from the untraced run");
  }

  Env replay_env(o.seed);
  GateResult g = CorrectnessGate(q, &replay_env);
  if (!g.status.ok()) return Fail(g.status.ToString());

  const Metrics& mx = q.env().metrics;
  auto counter = [&mx](const char* name) {
    return static_cast<double>(mx.Get(name));
  };
  const double settled = static_cast<double>(r.settled);

  // The first and the last 100 ms slice inside the measurement window
  // bracket how the wall cost of a simulated 100 ms evolves under
  // steady load (the ramp-up before the window is left out).
  const Slice* first_slice = nullptr;
  const Slice* last_slice = nullptr;
  for (const Slice& sl : slices) {
    if (sl.end <= s.measure_from + 100 * kMillisecond) continue;
    if (sl.end > s.measure_to) break;
    if (first_slice == nullptr) first_slice = &sl;
    last_slice = &sl;
  }
  if (first_slice == nullptr || first_slice == last_slice) {
    return Fail("measurement window shorter than two 100 ms slices");
  }
  double slowdown = Ratio(last_slice->wall_s, first_slice->wall_s);
  double rss_per_sim_s =
      Ratio(last_slice->rss_mb - first_slice->rss_mb,
            double(last_slice->end - first_slice->end) / kSecond);

  // consensus: blocks as each cluster's representative replica saw them.
  double blocks = 0, block_txs = 0;
  for (int c = 0; c < q.cluster_count(); ++c) {
    blocks += double(ReplicaCore(q, c).ledger().size());
    block_txs += double(ReplicaCore(q, c).ledger().total_txs());
  }
  double closes = counter("batch.closed_size") +
                  counter("batch.closed_timeout") +
                  counter("batch.closed_flush");

  double filtered = 0;
  for (int c = 0; c < q.cluster_count(); ++c) {
    const ClusterConfig& cc = q.directory().Cluster(c);
    for (size_t row = 0; row < cc.filter_rows.size(); ++row) {
      for (size_t i = 0; i < cc.filter_rows[row].size(); ++i) {
        filtered += double(q.filter_node(c, static_cast<int>(row),
                                         static_cast<int>(i))
                               ->filtered_messages());
      }
    }
  }

  // ---- post-run replays of the run's own committed blocks.
  std::vector<const DagLedger::Entry*> entries = CommittedEntries(q);
  if (entries.empty()) return Fail("no committed blocks to replay");
  const KeyStore& ks = q.env().keystore;
  const double n_blocks = double(entries.size());

  // Each replay below is timed as the fastest of kReplayPasses passes;
  // every pass must also verify all of its items.
  bool replay_ok = true;

  // crypto: KeyStore sign/verify over the block digests.
  std::vector<Signature> sigs;
  double sign_ns = BestPass(entries.size(), &replay_ok, [&] {
    sigs.clear();
    for (const DagLedger::Entry* e : entries) {
      sigs.push_back(ks.Sign(static_cast<NodeId>(sigs.size() % 16),
                             e->block->Digest()));
    }
    return sigs.size();
  }) * 1e9 / n_blocks;
  double verify_ns = BestPass(entries.size(), &replay_ok, [&] {
    size_t ok = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      ok += ks.Verify(sigs[i], entries[i]->block->Digest());
    }
    return ok;
  }) * 1e9 / n_blocks;
  const size_t quorum = q.directory().params.CertQuorum();
  double cert_us = BestPass(entries.size(), &replay_ok, [&] {
    size_t ok = 0;
    for (const DagLedger::Entry* e : entries) ok += e->cert.Valid(ks, quorum);
    return ok;
  }) * 1e6 / n_blocks;
  double tx_root_us = BestPass(entries.size(), &replay_ok, [&] {
    size_t ok = 0;
    for (const DagLedger::Entry* e : entries) {
      ok += e->block->RecomputeTxRoot() == e->block->tx_root;
    }
    return ok;
  }) * 1e6 / n_blocks;

  // wire: Block encode / decode round trip.
  std::vector<std::vector<uint8_t>> wire(entries.size());
  double encode_us = BestPass(entries.size(), &replay_ok, [&] {
    for (size_t i = 0; i < entries.size(); ++i) {
      Encoder enc;
      entries[i]->block->EncodeTo(&enc);
      wire[i] = enc.buffer();
    }
    return entries.size();
  }) * 1e6 / n_blocks;
  double decode_us = BestPass(entries.size(), &replay_ok, [&] {
    size_t ok = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      Decoder dec(wire[i]);
      Block b;
      ok += Block::DecodeFrom(&dec, &b) &&
            b.Digest() == entries[i]->block->Digest();
    }
    return ok;
  }) * 1e6 / n_blocks;

  // ledger: full chain verification of every representative ledger.
  const size_t clusters = static_cast<size_t>(q.cluster_count());
  double ledger_verify_us = BestPass(clusters, &replay_ok, [&] {
    size_t ok = 0;
    for (size_t c = 0; c < clusters; ++c) {
      ok += ReplicaCore(q, static_cast<int>(c)).ledger().VerifyChain(ks, 0)
                .ok();
    }
    return ok;
  }) * 1e6 / n_blocks;

  // store: MvStore::Get over every key the replayed blocks wrote.
  std::vector<std::pair<const MvStore*, uint64_t>> reads;
  double store_keys = 0;
  for (size_t c = 0; c < clusters; ++c) {
    const ExecutorCore& core = *g.replayed[c];
    std::set<CollectionId> collections;
    for (size_t i = 0; i < core.ledger().size(); ++i) {
      for (const Transaction& tx : core.ledger().entry(i).block->txs) {
        collections.insert(tx.collection);
        const MvStore& st = core.StoreOf(tx.collection);
        for (const TxOp& op : tx.ops) {
          if (st.Find(op.key) != nullptr) reads.emplace_back(&st, op.key);
        }
      }
    }
    for (const CollectionId& col : collections) {
      store_keys += double(core.StoreOf(col).key_count());
    }
  }
  if (reads.empty()) return Fail("replayed stores hold no keys");
  int64_t fold = 0;
  double get_ns = BestPass(reads.size(), &replay_ok, [&] {
    size_t ok = 0;
    for (const auto& [st, key] : reads) {
      StatusOr<MvStore::Value> v = st->Get(key);
      if (v.ok()) {
        fold += *v;
        ++ok;
      }
    }
    return ok;
  }) * 1e9 / double(reads.size());
  std::printf("store read fold %" PRId64 "\n", fold);
  if (!replay_ok) return Fail("a layer replay did not verify all its items");

  // consensus: the run's engine in loopback over the run's blocks.
  std::string engine_error;
  const int f = q.directory().params.f;
  double slot_s = 1e300, ring_ns = 1e300, timer_ns = 1e300;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    slot_s = std::min(
        slot_s, w.failure_model == FailureModel::kByzantine
                    ? EngineSlotSeconds<PbftEngine>(entries, 3 * f + 1, f,
                                                    o.seed, &engine_error)
                    : EngineSlotSeconds<PaxosEngine>(entries, 2 * f + 1, f,
                                                     o.seed, &engine_error));
    ring_ns = std::min(ring_ns, RingNsPerEvent(1'000'000));
    timer_ns = std::min(timer_ns, TimerNsPerEvent(1'000'000));
  }
  if (!engine_error.empty()) return Fail(engine_error);
  std::vector<double> load_ns;
  {
    MemoryLatencyProbe probe;
    for (int i = 0; i < 2 * kReplayPasses; ++i) {
      load_ns.push_back(probe.NsPerLoad());
    }
  }

  std::vector<Metric> m = {
      {"sim.events_per_tx", Ratio(double(r.events), settled), "events/tx"},
      {"sim.ns_per_event", Ratio(r.wall_s * 1e9, double(r.events)), "ns"},
      {"sim.slowdown", slowdown, "x"},
      {"sim.rss_mb_per_sim_s", rss_per_sim_s, "MB/sim_s"},
      {"sim.ring_ns_per_event", ring_ns, "ns"},
      {"sim.probe_load_ns", Median(load_ns), "ns"},
      {"sim.timer_ns_per_event", timer_ns, "ns"},
      {"net.msgs_per_tx", Ratio(double(q.net().messages_sent()), settled),
       "msgs/tx"},
      {"net.bytes_per_tx", Ratio(double(q.net().bytes_sent()), settled),
       "B/tx"},
      {"net.dropped", counter("net.dropped"), "count"},
      {"consensus.txs_per_block", Ratio(block_txs, blocks), "tx/block"},
      {"consensus.timeout_close_frac",
       Ratio(counter("batch.closed_timeout"), closes), "frac"},
      {"consensus.view_changes",
       counter("pbft.view_installed") + counter("paxos.leader_takeover"),
       "count"},
      {"consensus.slot_us", slot_s * 1e6, "us"},
      {"order.intake_gated_frac",
       Ratio(counter("order.intake_gated"),
             double(r.issued) + counter("client.retransmit")),
       "1/request"},
      {"order.duplicate_requests", counter("order.duplicate_request"),
       "count"},
      {"client.retransmits_per_tx",
       Ratio(counter("client.retransmit"), double(r.issued)), "1/tx"},
      {"cross.timeouts", counter("cross.timeout"), "count"},
      {"cross.redrives", counter("cross.redrive"), "count"},
      {"cross.deferred_conflicts", counter("cross.deferred_conflict"),
       "count"},
      {"exec.deferred_per_block", Ratio(counter("exec.deferred"), blocks),
       "1/block"},
      {"firewall.filtered", filtered, "count"},
      {"crypto.sign_ns", sign_ns, "ns"},
      {"crypto.verify_ns", verify_ns, "ns"},
      {"crypto.cert_verify_us", cert_us, "us"},
      {"ledger.tx_root_us_per_block", tx_root_us, "us"},
      {"wire.encode_us_per_block", encode_us, "us"},
      {"wire.decode_us_per_block", decode_us, "us"},
      {"ledger.verify_us_per_block", ledger_verify_us, "us"},
      {"exec.replay_us_per_tx", Ratio(g.replay_s * 1e6, double(g.replay_txs)),
       "us"},
      {"store.get_ns", get_ns, "ns"},
      {"store.keys", store_keys, "count"},
      {"recovery.state_blocks_installed",
       counter("order.state_block_installed") +
           counter("exec.pull_block_installed"),
       "count"},
      {"ckpt.stable", counter("ckpt.stable"), "count"},
      {"unavail_ms", double(plain.unavail_us) / 1e3, "ms"},
      {"audit_s", g.audit_s, "s"},
      {"trace.overhead_s", r.wall_s - plain.wall_s, "s"},
  };
  for (const Metric& x : m) {
    std::printf("  %-34s %16.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  std::puts(ResultJson(2, m).c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atof(v);
    } else if (k == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (k == "--span-ms") {
      o->span = std::atoll(v) * kMillisecond;
    } else if (k == "--min-reps") {
      o->min_reps = std::max(1, std::atoi(v));
    } else if (k == "--slice-us") {
      o->slice_us = std::atoll(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->span >= 100 * kMillisecond;
}

}  // namespace
}  // namespace perfbench
}  // namespace qanaat

int main(int argc, char** argv) {
  using namespace qanaat::perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-ms <ms>] [--min-reps <n>] "
                 "[--slice-us <us>]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  return o.trace ? RunTraced(*w, o) : RunUntraced(*w, o);
}
