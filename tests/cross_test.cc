// Cross-shard conflict resolution (§4.3.5), cross-instance failure
// handling and pull-based executor state transfer: digest-priority
// arbitration of symmetric rival claims, loser re-proposal, the §4.3.4
// outcome query after a crash in both protocol families, vote provenance
// before an instance exists, and the firewall-routed
// StateRequest/StateReply path a gapped execution node uses to converge.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "harness/chaos.h"
#include "qanaat/system.h"

namespace qanaat {
namespace {

/// Inert request source for hand-crafted rivalry scenarios.
class ClientStub : public Actor {
 public:
  explicit ClientStub(Env* env) : Actor(env, "client-stub") {}
  void OnMessage(NodeId, const MessageRef& msg) override {
    if (msg->type == MsgType::kReply || msg->type == MsgType::kReplyCert) {
      ++replies;
    }
  }
  int replies = 0;
};

// --------------------------------------- §4.3.5 arbitration symmetry

/// Runs the two-enterprise rivalry scenario with the given per-side
/// initiation times, asserts full settlement (both rival transactions
/// commit exactly once, every replica converges), and returns the
/// client timestamp of the transaction that won the contested height 1
/// of the shared chain. `late_rival`: enterprise 1's claim reaches
/// enterprise 0 only after the winner committed there.
uint64_t RunRivalry(SimTime fire_ent0, SimTime fire_ent1,
                    bool late_rival = false) {
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = ProtocolFamily::kFlattened;
  so.params.designated_coordinator = false;  // optimistic mode: races
  so.seed = 3;
  so.cluster_regions = {0, 1};
  QanaatSystem sys(std::move(so));
  // WAN latency between the enterprises: both sides below claim n=1
  // before either one-way trip (50ms) can reveal the rival claim.
  sys.net().SetRtt(0, 1, 100 * kMillisecond);
  ClientStub stub(&sys.env());

  CollectionId shared(EnterpriseSet{0, 1});
  auto make_req = [&](uint64_t ts, EnterpriseId initiator) {
    auto req = std::make_shared<RequestMsg>();
    req->tx.client = stub.id();
    req->tx.client_ts = ts;
    req->tx.collection = shared;
    req->tx.shards = {0};
    req->tx.initiator = initiator;
    req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
    req->tx.client_sig =
        sys.env().keystore.Sign(stub.id(), req->tx.Digest());
    return req;
  };
  sys.env().sim.ScheduleAt(fire_ent0, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(0).InitialPrimary(),
                   make_req(1, 0));
  });
  sys.env().sim.ScheduleAt(fire_ent1, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(1).InitialPrimary(),
                   make_req(2, 1));
  });
  sys.env().sim.Run(2 * kSecond);

  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // A loser existed and went through the re-proposal path.
  EXPECT_GT(sys.env().metrics.Get("cross.arbitration_loser"), 0u);
  std::set<std::pair<NodeId, uint64_t>> losers;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const auto& ordering = sys.directory().Cluster(c).ordering;
    for (size_t i = 0; i < ordering.size(); ++i) {
      const OrderingNode* node = sys.ordering_node(c, static_cast<int>(i));
      const auto& l = node->arbitration_loser_txs();
      losers.insert(l.begin(), l.end());
      // Drained: every instance, loser and winner alike, has left the
      // live index that the per-commit loser scan walks. The one
      // exception is a rival that arrives after its slot's winner already
      // committed: the winner's cluster nacks it but never learns of its
      // abort at the initiator, so it stays live there (one per node).
      size_t stale = late_rival && c == 0 ? 1 : 0;
      EXPECT_EQ(node->live_cross_instances(), stale)
          << "cluster " << c << " node " << i;
    }
  }
  EXPECT_FALSE(losers.empty());
  // Both rival transactions settled, exactly once each — the re-proposed
  // loser included.
  uint64_t winner_ts = 0;
  ShardRef ref{shared, 0};
  for (int c = 0; c < sys.cluster_count(); ++c) {
    uint64_t committed = 0;
    std::map<std::pair<NodeId, uint64_t>, int> copies;
    const DagLedger& led = sys.ordering_node(c, 0)->exec_core().ledger();
    for (size_t i = 0; i < led.size(); ++i) {
      for (const auto& tx : led.entry(i).block->txs) {
        if (tx.client == stub.id()) ++committed;
        ++copies[{tx.client, tx.client_ts}];
      }
    }
    EXPECT_EQ(committed, 2u) << "cluster " << c << " did not settle";
    for (const auto& id : losers) {
      EXPECT_EQ(copies[id], 1) << "cluster " << c << " ts " << id.second;
    }
    const auto& chain = led.ChainOf(ref);
    if (!chain.empty()) {
      winner_ts = led.entry(chain[0]).block->txs[0].client_ts;
    }
  }
  return winner_ts;
}

TEST(ArbitrationTest, SymmetricClaimsConvergeOnSameWinnerEitherOrder) {
  // Digest priority is a function of block content, not claim-arrival
  // order: whichever side proposes first, the contested height must go
  // to the same block, and the other side's transaction must re-propose
  // onto the next height. The stub lives in region 0, so enterprise 1's
  // propose lags its firing by the 50ms one-way trip: with ent0 firing
  // 20ms (resp. 80ms) after ent1, both claims are in flight before
  // either side can commit-lock, in opposite propose orders.
  uint64_t winner_a = RunRivalry(30 * kMillisecond, 10 * kMillisecond);
  uint64_t winner_b = RunRivalry(90 * kMillisecond, 10 * kMillisecond);
  EXPECT_NE(winner_a, 0u);
  EXPECT_EQ(winner_a, winner_b)
      << "arbitration picked different winners for different claim orders";
}

TEST(ArbitrationTest, LateRivalYieldsToCommittedWinner) {
  // When the claims are NOT concurrent — enterprise 0's block is
  // proposed, accepted by both clusters and commit-locked before
  // enterprise 1's rival even exists — digest priority must not unseat
  // it: the lock wins, the latecomer loses and re-proposes behind it.
  uint64_t winner = RunRivalry(10 * kMillisecond, 30 * kMillisecond,
                               /*late_rival=*/true);
  EXPECT_EQ(winner, 1u) << "a committed claim was unseated by a late rival";
}

// ------------------------------------- cross deadlines across a crash

std::string FamilyName(
    const ::testing::TestParamInfo<ProtocolFamily>& info) {
  return info.param == ProtocolFamily::kCoordinator ? "Coordinator"
                                                    : "Flattened";
}

class CrossTimeoutTest : public ::testing::TestWithParam<ProtocolFamily> {};

TEST_P(CrossTimeoutTest, RecoveredNodeFinishesInstanceItMissedTheCommitOf) {
  // A node that crashes while a cross instance is live on it misses the
  // instance's commit. Its cross deadline survives the crash, so after
  // recovery it queries the outcome (§4.3.4) and finishes the instance
  // instead of keeping it live forever. Its peers answer from the
  // outcome records their finished instances left behind.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = GetParam();
  so.seed = 5;
  so.cluster_regions = {0, 1};
  QanaatSystem sys(std::move(so));
  // WAN latency between the enterprises: the propose (flattened) or
  // prepare (coordinator) reaches cluster 1 at least 50ms before any
  // commit can.
  sys.net().SetRtt(0, 1, 100 * kMillisecond);
  ClientStub stub(&sys.env());

  auto req = std::make_shared<RequestMsg>();
  req->tx.client = stub.id();
  req->tx.client_ts = 1;
  req->tx.collection = CollectionId(EnterpriseSet{0, 1});
  req->tx.shards = {0};
  req->tx.initiator = 0;
  req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
  req->tx.client_sig = sys.env().keystore.Sign(stub.id(), req->tx.Digest());
  sys.env().sim.ScheduleAt(10 * kMillisecond, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(0).InitialPrimary(),
                   req);
  });
  OrderingNode* victim = sys.ordering_node(1, 2);  // a backup
  size_t live_at_crash = 0;
  sys.env().sim.ScheduleAt(90 * kMillisecond, [&]() {
    live_at_crash = victim->live_cross_instances();
    victim->Crash();
  });
  sys.env().sim.ScheduleAt(1000 * kMillisecond,
                           [&]() { victim->Recover(); });
  sys.env().sim.Run(3 * kSecond);

  ASSERT_EQ(live_at_crash, 1u) << "the instance was not live at the crash";
  EXPECT_GT(sys.env().metrics.Get("cross.query_answered"), 0u);
  for (int c = 0; c < sys.cluster_count(); ++c) {
    for (int i = 0; i < 3; ++i) {
      const OrderingNode* node = sys.ordering_node(c, i);
      EXPECT_EQ(node->live_cross_instances(), 0u)
          << "cluster " << c << " node " << i;
      EXPECT_EQ(node->finished_cross_instances(), 1u)
          << "cluster " << c << " node " << i;
    }
  }
  // The victim's chains equal its peers': convergence is audited with an
  // empty exclusion set.
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, CrossTimeoutTest,
                         ::testing::Values(ProtocolFamily::kCoordinator,
                                           ProtocolFamily::kFlattened),
                         FamilyName);

// ------------------------------------------- vote provenance first

class ForgedVoteTest : public ::testing::TestWithParam<ProtocolFamily> {};

TEST_P(ForgedVoteTest, NonMemberVotesLeaveNoInstance) {
  // A node that is no ordering node of any cluster sends 1000 votes for
  // random block digests: FAccepts (flattened) or signed PREPARED votes
  // (coordinator). Each fails provenance, and none may leave a cross
  // instance behind, live or finished — such an instance would never
  // finish, and every deadline and loser scan would walk it.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 2;
  so.params.failure_model = FailureModel::kByzantine;
  so.params.family = GetParam();
  so.seed = 11;
  QanaatSystem sys(std::move(so));
  ClientStub outsider(&sys.env());
  OrderingNode* target = sys.ordering_node(0, 1);

  constexpr int kVotes = 1000;
  for (int i = 0; i < kVotes; ++i) {
    Sha256Digest d = Sha256::Hash("forged-" + std::to_string(i));
    // A genuine signature of the outsider over the digest: only the
    // membership check can refuse it.
    Signature sig = sys.env().keystore.Sign(outsider.id(), d);
    MessageRef vote;
    if (GetParam() == ProtocolFamily::kFlattened) {
      auto acc = std::make_shared<FAcceptMsg>();
      acc->from_cluster = 0;
      acc->block_digest = d;
      acc->sig = sig;
      vote = acc;
    } else {
      auto pd = std::make_shared<XPreparedMsg>();
      pd->from_cluster = 0;
      pd->block_digest = d;
      pd->sig = sig;
      vote = pd;
    }
    sys.net().Send(outsider.id(), target->id(), vote);
  }
  sys.env().sim.Run(1 * kSecond);

  const char* refused = GetParam() == ProtocolFamily::kFlattened
                            ? "cross.bad_accept"
                            : "cross.bad_prepared_sig";
  EXPECT_EQ(sys.env().metrics.Get(refused), static_cast<uint64_t>(kVotes));
  EXPECT_EQ(target->live_cross_instances(), 0u);
  EXPECT_EQ(target->finished_cross_instances(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, ForgedVoteTest,
                         ::testing::Values(ProtocolFamily::kCoordinator,
                                           ProtocolFamily::kFlattened),
                         FamilyName);

// ----------------------------- pull-based executor state transfer

SystemParams FirewallParams() {
  SystemParams p;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 1;
  p.failure_model = FailureModel::kByzantine;
  p.use_firewall = true;
  p.family = ProtocolFamily::kFlattened;
  return p;
}

TEST(ExecutorPullTest, CrashedExecutorRecoversThroughFilterRows) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 7;
  QanaatSystem sys(std::move(opts));

  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* client = sys.AddClient(wl, 300);
  client->Start(0, 1200 * kMillisecond, 0, 2000 * kMillisecond);

  // Crash one executor mid-stream; every ExecOrder push in the window is
  // lost to it (pushes are fire-and-forget through the filters). On
  // recovery it must pull the missed blocks back through the firewall —
  // nothing else would ever close the gap.
  ExecutionNode* victim = sys.execution_node(0, 2);
  sys.env().sim.ScheduleAt(300 * kMillisecond, [&]() { victim->Crash(); });
  sys.env().sim.ScheduleAt(900 * kMillisecond, [&]() { victim->Recover(); });
  sys.env().sim.Run(2000 * kMillisecond);

  ASSERT_GT(client->measured_commits(), 100u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_on_recover"), 0u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_block_installed"), 0u);
  // Store-fingerprint identity includes the recovered executor: the
  // convergence audit runs with an EMPTY exclusion set.
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ExecutorPullTest, WatchdogRearmsAfterCrashWhileArmed) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 7;
  QanaatSystem sys(std::move(opts));

  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* client = sys.AddClient(wl, 300);
  client->Start(0, 1200 * kMillisecond, 0, 2000 * kMillisecond);

  // Cutting every top-row filter off the victim loses the pushes sent in
  // the window for good (filters forward each block once), so the next
  // push parks behind the gap and arms the pull watchdog.
  const ClusterConfig& cc = sys.directory().Cluster(0);
  ExecutionNode* victim = sys.execution_node(0, 2);
  auto cut = [&](bool on) {
    for (NodeId f : cc.filter_rows.back()) {
      if (on) {
        sys.net().Partition(f, victim->id());
      } else {
        sys.net().HealPartition(f, victim->id());
      }
    }
  };
  auto gap_at = [&](SimTime t) {
    sys.env().sim.ScheduleAt(t, [&]() { cut(true); });
    sys.env().sim.ScheduleAt(t + 20 * kMillisecond, [&]() { cut(false); });
  };
  // First gap, then a crash while the watchdog is armed (its timer dies
  // with the crash epoch) and a recovery that pulls the gap closed.
  gap_at(300 * kMillisecond);
  size_t pending_at_crash = 0;
  sys.env().sim.ScheduleAt(360 * kMillisecond, [&]() {
    pending_at_crash = victim->core().pending_blocks();
    victim->Crash();
  });
  uint64_t wedged_at_recover = 0;
  sys.env().sim.ScheduleAt(400 * kMillisecond, [&]() {
    victim->Recover();
    wedged_at_recover = sys.env().metrics.Get("exec.pull_wedged");
  });
  // Second gap after recovery: only a re-armed watchdog can close it.
  gap_at(700 * kMillisecond);
  sys.env().sim.Run(2000 * kMillisecond);

  ASSERT_GT(pending_at_crash, 0u) << "the watchdog was not armed at crash";
  ASSERT_GT(client->measured_commits(), 100u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_wedged"), wedged_at_recover);
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ExecutorPullTest, TamperedStateReplyBlockRejected) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 11;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cc = sys.directory().Cluster(0);
  ExecutionNode* exec = sys.execution_node(0, 0);

  // A sealed block whose body was tampered AFTER sealing: the memoized
  // tx_root no longer matches the transactions, exactly what a faulty
  // serving peer (or filter) would have to produce to smuggle state into
  // an executor. The verifier recomputes the root from canonical bytes,
  // so the entry must be rejected before any certificate math.
  auto block = std::make_shared<Block>();
  block->id.alpha = {CollectionId(EnterpriseSet{0}), 0, 1};
  Transaction tx;
  tx.collection = block->id.alpha.collection;
  tx.ops.push_back(TxOp{TxOp::Kind::kWrite, 1, 777, {}});
  block->txs.push_back(tx);
  block->Seal();
  block->txs[0].ops[0].value = 999999;  // post-seal tamper

  auto rep = std::make_shared<StateReplyMsg>();
  StateReplyMsg::Entry entry;
  entry.block = block;
  entry.cert.block_digest = block->Digest();
  entry.cert.direct = true;
  entry.cert.sigs.push_back(sys.env().keystore.Forge(cc.ordering[0]));
  entry.alpha = block->id.alpha;
  rep->entries.push_back(entry);
  rep->requester = exec->id();

  // Inject on the legitimate link (top filter row -> executor).
  sys.net().Send(cc.filter_rows.back()[0], exec->id(), rep);
  sys.env().sim.RunAll();

  EXPECT_GE(sys.env().metrics.Get("exec.bad_pull_block"), 1u);
  EXPECT_EQ(sys.env().metrics.Get("exec.pull_block_installed"), 0u);
  EXPECT_EQ(exec->core().executed_blocks(), 0u);
}

TEST(ExecutorPullTest, FiltersDropPullsNotFromAnExecutionNode) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 13;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cc = sys.directory().Cluster(0);
  // A StateRequest whose requester is not one of this cluster's
  // execution nodes is out-of-protocol traffic: filters refuse to route
  // it in either direction.
  auto req = std::make_shared<StateRequestMsg>();
  req->frontier = UINT64_MAX;
  req->requester = kInvalidNode;
  sys.net().Send(cc.execution[0], cc.filter_rows.back()[0], req);
  sys.env().sim.RunAll();

  EXPECT_GE(sys.env().metrics.Get("firewall.filtered_bad_pull"), 1u);
  EXPECT_EQ(sys.env().metrics.Get("order.state_served"), 0u);
}

}  // namespace
}  // namespace qanaat
