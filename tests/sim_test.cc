#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/watchdog.h"

namespace qanaat {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, TieBreaksByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, RunStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(100, [&] { fired++; });
  sim.Run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.Run(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.Schedule(10, recurse);
  };
  sim.Schedule(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(SimulatorTest, PooledEventsPreserveOrderAcrossPoolReuse) {
  // The closure pool recycles slots after each executed event. (time,
  // insertion-seq) ordering must survive reuse: a second wave of
  // same-time events, landing in slots freed by the first wave, still
  // executes in exact insertion order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  // Second wave, alternating between two times: ties break by insertion
  // order, and every time-7 event runs before every time-8 event even
  // though their pool slots interleave.
  for (int i = 16; i < 32; ++i) {
    sim.Schedule(i % 2 == 0 ? 7 : 8, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), 32u);
  std::vector<int> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(i);
  for (int i = 16; i < 32; i += 2) expect.push_back(i);      // time 7
  for (int i = 17; i < 32; i += 2) expect.push_back(i);      // time 8
  EXPECT_EQ(order, expect);
  EXPECT_EQ(sim.events_executed(), 32u);
}

TEST(SimulatorTest, EventsExecutedCounterAccumulates) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { fired++; });
  sim.Schedule(2, [&] { fired++; });
  sim.Run(1);
  EXPECT_EQ(sim.events_executed(), 1u);
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PastScheduleClampedToNow) {
  Simulator sim;
  SimTime observed = -1;
  sim.Schedule(100, [&] {
    sim.ScheduleAt(5, [&] { observed = sim.now(); });
  });
  sim.RunAll();
  EXPECT_EQ(observed, 100);
}

// ------------------------------------------------------------- Network

class EchoActor : public Actor {
 public:
  EchoActor(Env* env, int region) : Actor(env, "echo", region) {}
  void OnMessage(NodeId from, const MessageRef& msg) override {
    received++;
    last_from = from;
    last_time = now();
    (void)msg;
  }
  int received = 0;
  NodeId last_from = kInvalidNode;
  SimTime last_time = 0;
};

struct NetFixture {
  NetFixture() : env(1), net(&env) {}
  Env env;
  Network net;
};

MessageRef MakeMsg() {
  auto m = std::make_shared<Message>(MsgType::kRequest);
  m->sig_verify_ops = 0;
  return m;
}

TEST(NetworkTest, DeliversWithLanLatency) {
  NetFixture f;
  f.env.costs.jitter_us = 0;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
  // latency + processing cost
  EXPECT_GE(b.last_time, f.env.costs.lan_latency_us);
}

TEST(NetworkTest, WanLatencyFromRttMatrix) {
  NetFixture f;
  f.env.costs.jitter_us = 0;
  int r1 = f.net.AddRegion();
  EchoActor a(&f.env, 0), b(&f.env, r1);
  f.net.SetRtt(0, r1, 100000);  // 100 ms RTT -> 50 ms one-way
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
  EXPECT_GE(b.last_time, 50000);
  EXPECT_LT(b.last_time, 52000);
}

TEST(NetworkTest, CrashedNodesDropTraffic) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  b.Crash();
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);
  b.Recover();
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
}

TEST(NetworkTest, PartitionBlocksBothDirectionsUntilHealed) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Partition(a.id(), b.id());
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.net.Send(b.id(), a.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(a.received + b.received, 0);
  f.net.HealPartition(a.id(), b.id());
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
}

TEST(NetworkTest, LinkRestrictionEnforcedBothWays) {
  // The privacy firewall's physical wiring: a restricted node can only
  // talk to its allow-list, and others cannot reach it either.
  NetFixture f;
  EchoActor exec(&f.env, 0), filter(&f.env, 0), client(&f.env, 0);
  f.net.RestrictLinks(exec.id(), {filter.id()});
  f.net.Send(exec.id(), client.id(), MakeMsg());  // leak attempt
  f.env.sim.RunAll();
  EXPECT_EQ(client.received, 0);
  EXPECT_EQ(f.net.blocked_sends(), 1u);
  f.net.Send(exec.id(), filter.id(), MakeMsg());  // allowed path
  f.env.sim.RunAll();
  EXPECT_EQ(filter.received, 1);
  f.net.Send(client.id(), exec.id(), MakeMsg());  // reverse also blocked
  f.env.sim.RunAll();
  EXPECT_EQ(exec.received, 0);
}

TEST(NetworkTest, DropRateLosesSomeMessages) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.SetDropRate(0.5);
  for (int i = 0; i < 200; ++i) f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_GT(b.received, 50);
  EXPECT_LT(b.received, 150);
}

TEST(NetworkTest, SerialCpuQueueDelaysBursts) {
  // Two messages arriving together: the second handler runs after the
  // first's processing completes (M/G/1 behaviour).
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.base_proc_us = 100;
  f.env.costs.verify_sig_us = 0;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 2);
  // Arrival ~250, first done ~350, second done ~450.
  EXPECT_GE(b.last_time, 450);
}

TEST(NetworkTest, BandwidthAddsTransmissionDelay) {
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.bandwidth_bytes_per_us = 1.0;  // 1 byte/us
  EchoActor a(&f.env, 0), b(&f.env, 0);
  auto m = std::make_shared<Message>(MsgType::kRequest);
  m->sig_verify_ops = 0;
  m->wire_bytes = 10000;
  f.net.Send(a.id(), b.id(), m);
  f.env.sim.RunAll();
  EXPECT_GE(b.last_time, 10000 + f.env.costs.lan_latency_us);
}

TEST(NetworkTest, MulticastReachesAll) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0), c(&f.env, 0), d(&f.env, 0);
  f.net.Multicast(a.id(), {b.id(), c.id(), d.id()}, MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received + c.received + d.received, 3);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Env env(seed);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0);
    std::vector<SimTime> times;
    for (int i = 0; i < 20; ++i) net.Send(a.id(), b.id(), MakeMsg());
    env.sim.RunAll();
    return b.last_time;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // jitter differs with seed
}

// ----------------------------------------------------------- timers

class TimerActor : public Actor {
 public:
  explicit TimerActor(Env* env) : Actor(env, "timer") {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    fired.emplace_back(tag, payload);
  }
  void Arm(SimTime d, uint64_t tag, uint64_t payload) {
    StartTimer(d, tag, payload);
  }
  std::vector<std::pair<uint64_t, uint64_t>> fired;
};

TEST(ActorTimerTest, TaggedTimersPreserveArmingOrderAcrossPoolReuse) {
  // Actor timers ride the pooled tagged-event path; ties on the same
  // firing time must keep arming order, including for timers armed after
  // earlier events freed their pool slots.
  NetFixture f;
  TimerActor t(&f.env);
  for (uint64_t i = 0; i < 8; ++i) t.Arm(50, 1, i);
  f.env.sim.RunAll();
  for (uint64_t i = 8; i < 16; ++i) t.Arm(50, 1, i);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 16u);
  for (uint64_t i = 0; i < 16; ++i) EXPECT_EQ(t.fired[i].second, i);
}

// ------------------------------------------------------- CPU charging

class ChargingActor : public Actor {
 public:
  explicit ChargingActor(Env* env) : Actor(env, "charge") {}
  void OnMessage(NodeId, const MessageRef&) override { handled_at = now(); }
  void OnTimer(uint64_t, uint64_t payload) override {
    ChargeCpu(static_cast<SimTime>(payload));
  }
  void Arm(SimTime d, SimTime charge) {
    StartTimer(d, 1, static_cast<uint64_t>(charge));
  }
  SimTime handled_at = -1;
};

TEST(ActorCpuTest, ChargeCpuAfterIdleStartsFromNow) {
  // Regression: ChargeCpu used to extend a stale busy_until_ that lay in
  // the past, so a node idle since t=0 charging 500us at t=1000 appeared
  // busy only until t=500 — i.e. not at all. The charge must occupy
  // [now, now + d].
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.base_proc_us = 8;
  EchoActor sender(&f.env, 0);
  ChargingActor c(&f.env);
  c.Arm(1000, 500);  // at t=1000, occupy the CPU until t=1500
  f.env.sim.Schedule(1000, [&] {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    f.net.Send(sender.id(), c.id(), m);  // arrives ~1250, mid-charge
  });
  f.env.sim.RunAll();
  // Processing starts when the charged work completes, not at arrival.
  EXPECT_GE(c.handled_at, 1500 + f.env.costs.base_proc_us);
}

TEST(ActorTimerTest, FiresWithTagAndPayload) {
  NetFixture f;
  TimerActor t(&f.env);
  t.Arm(100, 7, 42);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 1u);
  EXPECT_EQ(t.fired[0], std::make_pair(uint64_t{7}, uint64_t{42}));
}

TEST(ActorTimerTest, CrashedActorTimersDontFire) {
  NetFixture f;
  TimerActor t(&f.env);
  t.Arm(100, 1, 0);
  t.Crash();
  f.env.sim.RunAll();
  EXPECT_TRUE(t.fired.empty());
}

// ------------------------------------------------ crash epochs (recovery)

TEST(ActorEpochTest, PreCrashTimerDoesNotFireAfterRecovery) {
  // Regression: a timer armed before Crash() must not fire in the
  // recovered life, even though the node is up again when it expires.
  NetFixture f;
  TimerActor t(&f.env);
  t.Arm(100, 7, 1);
  f.env.sim.Schedule(10, [&] { t.Crash(); });
  f.env.sim.Schedule(20, [&] { t.Recover(); });
  f.env.sim.RunAll();
  EXPECT_TRUE(t.fired.empty());
  // A timer armed in the new life fires normally.
  t.Arm(50, 8, 2);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 1u);
  EXPECT_EQ(t.fired[0].first, 8u);
}

TEST(ActorEpochTest, InFlightDeliveryFromPreviousLifeDiscarded) {
  // A message in flight while the destination crashes is lost with that
  // life, even when it would arrive after recovery.
  NetFixture f;
  f.env.costs.jitter_us = 0;  // arrival exactly at lan latency (250us)
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.Schedule(100, [&] { b.Crash(); });
  f.env.sim.Schedule(150, [&] { b.Recover(); });
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);
  // Messages sent to the recovered life are delivered.
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
}

TEST(ActorEpochTest, ProcessingInterruptedByCrashNeverCompletes) {
  // A message whose CPU processing spans a crash must not invoke the
  // handler after recovery (the process that was computing it is gone).
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.base_proc_us = 200;  // arrival 250, handler would run at 450
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.Schedule(300, [&] { b.Crash(); });
  f.env.sim.Schedule(350, [&] { b.Recover(); });
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);
}

// ----------------------------------------------------------- watchdog

/// Actor watching one deadline the way every protocol module watches its
/// own: the watchdog starts host timers, OnTimer filters them, acts on an
/// expired deadline and re-arms for one still ahead.
class WatchdogActor : public Actor {
 public:
  static constexpr uint64_t kTag = 9;
  explicit WatchdogActor(Env* env)
      : Actor(env, "watchdog"),
        dog(&env->sim, kTag, [this](SimTime d, uint64_t tag, uint64_t p) {
          StartTimer(d, tag, p);
        }) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (tag != kTag || !dog.Fire(payload)) {
      ++ignored;
      return;
    }
    if (deadline > now()) {
      dog.ArmBy(deadline);
      return;
    }
    deadline = kNoDeadline;
    acted_at.push_back(now());
  }
  void Watch(SimTime at) {
    deadline = at;
    dog.ArmBy(at);
  }
  Watchdog dog;
  SimTime deadline = kNoDeadline;
  std::vector<SimTime> acted_at;
  int ignored = 0;
};

TEST(WatchdogTest, EarlierDeadlineSupersedesAndLaterOneIsKept) {
  NetFixture f;
  WatchdogActor a(&f.env);
  a.dog.ArmBy(300);
  a.Watch(100);      // earlier: re-arms earlier, superseding the 300 timer
  a.dog.ArmBy(200);  // later than the armed timer: nothing new is armed
  a.dog.ArmBy(kNoDeadline);
  f.env.sim.RunAll();
  EXPECT_EQ(a.acted_at, (std::vector<SimTime>{100}));
  // The superseded firing at 300 reached OnTimer and was ignored.
  EXPECT_EQ(a.ignored, 1);
  EXPECT_FALSE(a.dog.armed());
}

TEST(WatchdogTest, CrashLeavesNothingArmedAndRecoveryRearms) {
  NetFixture f;
  WatchdogActor a(&f.env);
  a.Watch(100);
  f.env.sim.Schedule(50, [&] { a.Crash(); });
  f.env.sim.Run(500);
  // The armed timer died with the crash epoch: nothing fired, even past
  // the deadline, and nothing reached OnTimer to be ignored either.
  EXPECT_TRUE(a.acted_at.empty());
  EXPECT_EQ(a.ignored, 0);
  // The deadline survived the crash. It lapsed during the downtime, so it
  // acts at the re-arm point, not at once.
  a.Recover();
  a.dog.Rearm(550);
  f.env.sim.RunAll();
  EXPECT_EQ(a.acted_at, (std::vector<SimTime>{550}));
  // A deadline still ahead at the re-arm point acts at the deadline.
  a.Watch(900);
  f.env.sim.Schedule(100, [&] { a.Crash(); });  // t = 650
  f.env.sim.Schedule(150, [&] {                  // t = 700
    a.Recover();
    a.dog.Rearm(750);
  });
  f.env.sim.RunAll();
  EXPECT_EQ(a.acted_at, (std::vector<SimTime>{550, 900}));
  EXPECT_EQ(a.ignored, 0);
}

// -------------------------------------- fault randomness determinism

TEST(NetworkTest, BlockedSendsDoNotConsumeFaultRandomness) {
  // Regression: sends blocked by a crashed endpoint must not draw the
  // drop coin, or replays would diverge based on how many sends were
  // blocked. Two runs differing only in extra sends to a crashed node
  // must deliver the same messages at the same times.
  auto run = [](bool with_blocked_sends) {
    Env env(123);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0), dead(&env, 0);
    dead.Crash();
    net.SetDropRate(0.3);
    for (int i = 0; i < 50; ++i) {
      if (with_blocked_sends) {
        net.Send(a.id(), dead.id(), MakeMsg());  // must be side-effect free
      }
      net.Send(a.id(), b.id(), MakeMsg());
    }
    env.sim.RunAll();
    return std::make_pair(b.received, b.last_time);
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------- per-link fault injection

TEST(NetworkTest, LinkFaultDuplicatesMessages) {
  NetFixture f;
  Network::LinkFault lf;
  lf.duplicate = 1.0;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.SetLinkFault(a.id(), b.id(), lf);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 2);
  EXPECT_EQ(f.net.duplicated(), 1u);
  EXPECT_EQ(f.env.metrics.Get("net.duplicated"), 1u);
}

TEST(NetworkTest, LinkFaultReordersMessages) {
  // With an aggressive reorder rule, some later-sent messages overtake
  // earlier ones; the metric counts the overtakes.
  NetFixture f;
  f.env.costs.jitter_us = 0;
  Network::LinkFault lf;
  lf.reorder = 1.0;
  lf.reorder_delay_us = 5000;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.SetDefaultLinkFault(lf);
  for (int i = 0; i < 30; ++i) f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 30);  // reordering delays, never loses
  EXPECT_GT(f.net.reordered(), 0u);
}

TEST(NetworkTest, LinkFaultDropIsPerLink) {
  NetFixture f;
  Network::LinkFault lf;
  lf.drop = 1.0;
  EchoActor a(&f.env, 0), b(&f.env, 0), c(&f.env, 0);
  f.net.SetLinkFault(a.id(), b.id(), lf);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.net.Send(a.id(), c.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);  // faulted link loses everything
  EXPECT_EQ(c.received, 1);  // other links unaffected
}

// ------------------------------------------- hierarchical timer wheel

TEST(TimerWheelTest, SameTickOrderAcrossWheelHeapSpillBoundary) {
  // A timer beyond the wheel horizon waits in the wheel's overflow; a
  // timer armed later for the SAME tick lands in the levels. The wheel
  // must still fire them in global arming (seq) order, and closures
  // scheduled for that tick interleave by seq too.
  NetFixture f;
  TimerActor t(&f.env);
  const SimTime kTick = TimerWheel::kHorizon + 100;
  t.Arm(kTick, 1, 100);               // beyond horizon: overflow
  std::vector<int> closure_pos;
  f.env.sim.Schedule(TimerWheel::kHorizon, [] {});  // advance the clock
  f.env.sim.Run(TimerWheel::kHorizon);
  t.Arm(100, 1, 200);                 // same tick, now within the wheel
  f.env.sim.ScheduleAt(kTick, [&] {
    closure_pos.push_back(static_cast<int>(t.fired.size()));
  });
  t.Arm(100, 1, 300);                 // armed after the closure
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 3u);
  EXPECT_EQ(t.fired[0].second, 100u);  // overflowed timer first (seq)
  EXPECT_EQ(t.fired[1].second, 200u);
  EXPECT_EQ(t.fired[2].second, 300u);
  // The closure was scheduled between the 200 and 300 arms: it must run
  // after two timers fired and before the third.
  ASSERT_EQ(closure_pos.size(), 1u);
  EXPECT_EQ(closure_pos[0], 2);
}

TEST(TimerWheelTest, SameTickMergesAcrossWheelLevels) {
  // Entries for one tick can sit at different wheel levels depending on
  // how far ahead they were armed (level 2 for a 70 ms delta, level 1
  // for 1 ms, level 0 for 100 us). The drain must merge them back into
  // exact arming order.
  NetFixture f;
  TimerActor t(&f.env);
  const SimTime kTick = 70000;
  t.Arm(kTick, 1, 1);  // delta 70000 -> level 2
  f.env.sim.Schedule(kTick - 1000, [] {});
  f.env.sim.Run(kTick - 1000);
  t.Arm(1000, 1, 2);   // same tick, delta 1000 -> level 1
  f.env.sim.Schedule(900, [] {});
  f.env.sim.Run(kTick - 100);
  t.Arm(100, 1, 3);    // same tick, delta 100 -> level 0
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 3u);
  EXPECT_EQ(t.fired[0].second, 1u);
  EXPECT_EQ(t.fired[1].second, 2u);
  EXPECT_EQ(t.fired[2].second, 3u);
}

TEST(TimerWheelTest, CancelledEpochTimersDieAndSlotsAreReusable) {
  // Crash-epoch "cancellation": timers armed before a crash must not
  // fire after recovery, and re-arming onto the same wheel tick (the
  // freed slot) must fire the new-life timers in their own arming order.
  NetFixture f;
  TimerActor t(&f.env);
  for (uint64_t i = 0; i < 4; ++i) t.Arm(500, 1, i);  // old life
  t.Crash();
  t.Recover();
  for (uint64_t i = 10; i < 14; ++i) t.Arm(500, 1, i);  // new life
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(t.fired[i].second, 10 + i);
  // The tick's wheel slot was fully consumed; a later tick mapping to
  // the same level-0 slot index (time + 256) is independent.
  t.Arm(256, 1, 99);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 5u);
  EXPECT_EQ(t.fired[4].second, 99u);
}

TEST(TimerWheelTest, MessageDeliveriesRideTheWheelDeterministically) {
  // Deliveries and handler completions ride the wheel too; two runs of
  // the same seed must stay bit-identical (trace hash covers arrival
  // times and endpoints).
  auto run = [](uint64_t seed) {
    Env env(seed);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0);
    for (int i = 0; i < 64; ++i) net.Send(a.id(), b.id(), MakeMsg());
    env.sim.RunAll();
    return net.trace_hash();
  };
  EXPECT_EQ(run(9), run(9));
}

/// A message naming the scheduled operation it belongs to.
struct OpMsg : Message {
  explicit OpMsg(int op) : Message(MsgType::kRequest), op(op) {}
  int op;
};

/// Logs the operation of every timer and handler it runs; message
/// processing costs no CPU time, so a delivery's handler is scheduled
/// at the delivery's own time.
class OpLogActor : public Actor {
 public:
  OpLogActor(Env* env, std::vector<int>* log)
      : Actor(env, "oplog"), log_(log) {}
  void OnMessage(NodeId, const MessageRef& msg) override {
    log_->push_back(msg->As<OpMsg>()->op);
  }
  void OnTimer(uint64_t, uint64_t op) override {
    log_->push_back(static_cast<int>(op));
  }
  SimTime CostOf(const Message&) const override { return 0; }

 private:
  std::vector<int>* log_;
};

TEST(TimerWheelTest, RandomMixRunsInReferenceOrder) {
  // A seeded mix of closures, timers, deliveries and handler
  // completions, with delays of 0, same-tick collisions, every wheel
  // level, the horizon boundary, beyond the horizon and beyond 2^32 µs,
  // scheduled between Run(until) slices. The simulator must execute
  // exactly the order of an independent reference: a flat list popped
  // by (time, schedule order). Some events schedule a child when they
  // run — a delivery its handler (same time), a closure another closure
  // — and the reference schedules the same child at the same point.
  NetFixture f;
  Simulator& sim = f.env.sim;
  std::vector<int> got;
  OpLogActor actor(&f.env, &got);

  struct Ref {
    SimTime when;
    uint64_t seq;
    int op;     // logged when run; -1 for a delivery (its handler logs)
    int child;  // scheduled when run; -1 for none
    SimTime child_delay;
  };
  std::vector<Ref> ref;
  std::vector<int> want;
  uint64_t ref_seq = 0;
  SimTime ref_now = 0;
  auto ref_run = [&](SimTime until) {
    for (;;) {
      auto it = std::min_element(
          ref.begin(), ref.end(), [](const Ref& x, const Ref& y) {
            return x.when != y.when ? x.when < y.when : x.seq < y.seq;
          });
      if (it == ref.end() || it->when > until) break;
      Ref r = *it;
      ref.erase(it);
      ref_now = r.when;
      if (r.op >= 0) want.push_back(r.op);
      if (r.child >= 0) {
        ref.push_back({ref_now + r.child_delay, ref_seq++, r.child, -1, 0});
      }
    }
  };

  std::mt19937_64 rng(18);
  std::vector<SimTime> used;  // scheduled times, for same-tick collisions
  auto delay = [&]() -> SimTime {
    const SimTime h = TimerWheel::kHorizon;
    switch (rng() % 9) {
      case 0:
        return 0;
      case 1: {  // collide with an earlier event's tick, if still ahead
        SimTime t = used.empty() ? 0 : used[rng() % used.size()];
        return t >= sim.now() ? t - sim.now() : 0;
      }
      case 2:
        return 1 + static_cast<SimTime>(rng() % 255);  // level 0
      case 3:
        return 256 + static_cast<SimTime>(rng() % (65536 - 256));  // level 1
      case 4:
        return 65536 + static_cast<SimTime>(rng() % (h - 65536));  // level 2
      case 5:
        return h - 1 + static_cast<SimTime>(rng() % 3);  // horizon edge
      case 6:
        return h + static_cast<SimTime>(rng() % (4 * h));  // overflow
      case 7:
        return (SimTime{1} << 32) + static_cast<SimTime>(rng() % h);
      default:
        return static_cast<SimTime>(rng() % 64);  // dense near ticks
    }
  };

  int next_op = 0;
  auto schedule_one = [&]() {
    const SimTime d = delay();
    const SimTime when = sim.now() + d;
    used.push_back(when);
    const int op = next_op++;
    switch (rng() % 5) {
      case 0: {  // closure, sometimes with a child closure
        int child = -1;
        SimTime cd = 0;
        if (rng() % 4 == 0) {
          child = next_op++;
          cd = delay();
        }
        sim.Schedule(d, [&sim, &got, op, child, cd] {
          got.push_back(op);
          if (child >= 0) sim.Schedule(cd, [&got, child] {
            got.push_back(child);
          });
        });
        ref.push_back({when, ref_seq++, op, child, cd});
        break;
      }
      case 1: {  // absolute closure, sometimes in the past (clamped)
        SimTime at = rng() % 8 == 0 ? sim.now() / 2 : when;
        sim.ScheduleAt(at, [&got, op] { got.push_back(op); });
        ref.push_back({std::max(at, sim.now()), ref_seq++, op, -1, 0});
        break;
      }
      case 2:
        sim.ScheduleTimer(when, &actor, actor.epoch(), 7,
                          static_cast<uint64_t>(op));
        ref.push_back({when, ref_seq++, op, -1, 0});
        break;
      case 3:
        sim.ScheduleDeliver(when, &actor, actor.epoch(), 0,
                            std::make_shared<OpMsg>(op));
        ref.push_back({when, ref_seq++, -1, op, 0});
        break;
      default:
        sim.ScheduleHandle(when, &actor, actor.epoch(), 0,
                           std::make_shared<OpMsg>(op));
        ref.push_back({when, ref_seq++, op, -1, 0});
        break;
    }
  };

  for (int round = 0; round < 40; ++round) {
    const int n = 1 + static_cast<int>(rng() % 120);
    for (int i = 0; i < n; ++i) schedule_one();
    SimTime step;
    switch (rng() % 4) {
      case 0:
        step = static_cast<SimTime>(rng() % 300);
        break;
      case 1:
        step = static_cast<SimTime>(rng() % 70000);
        break;
      case 2:
        step = static_cast<SimTime>(rng() % (2 * TimerWheel::kHorizon));
        break;
      default:
        step = (SimTime{1} << 32) / 8;
        break;
    }
    const SimTime until = sim.now() + step;
    sim.Run(until);
    ref_run(until);
    ref_now = std::max(ref_now, until);
    ASSERT_EQ(sim.now(), ref_now) << "round " << round;
    ASSERT_EQ(sim.pending(), ref.size()) << "round " << round;
    ASSERT_EQ(got, want) << "round " << round;
  }
  sim.RunAll();
  ref_run(std::numeric_limits<SimTime>::max());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), ref_now);
  EXPECT_EQ(got, want);
  EXPECT_GT(ref_now, SimTime{1} << 32);
  EXPECT_EQ(got.size(), static_cast<size_t>(next_op));
}

TEST(NetworkTest, TraceHashIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Env env(seed);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0);
    Network::LinkFault lf;
    lf.duplicate = 0.2;
    lf.reorder = 0.3;
    net.SetDefaultLinkFault(lf);
    for (int i = 0; i < 40; ++i) net.Send(a.id(), b.id(), MakeMsg());
    env.sim.RunAll();
    return net.trace_hash();
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace qanaat
