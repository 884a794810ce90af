#include "protocols/ordering_node.h"

#include <algorithm>

#include "consensus/paxos.h"
#include "consensus/pbft.h"

namespace qanaat {

OrderingNode::OrderingNode(Env* env, const Directory* dir,
                           const DataModel* model, int cluster_id, int index)
    : Actor(env, "order/" + std::to_string(cluster_id) + "/" +
                     std::to_string(index),
            dir->Cluster(cluster_id).region),
      dir_(dir),
      model_(model),
      cfg_(dir->Cluster(cluster_id)),
      index_(index),
      exec_(env, model, cfg_.enterprise, cfg_.shard),
      batcher_(
          BatcherConfig{dir->params.batch_size, dir->params.batch_timeout_us},
          [this](SimTime delay, uint64_t token) {
            StartTimer(delay, kTagBatch, token);
          },
          [this](const FlowKey& key, std::vector<Transaction> txs,
                 BatchClose why) { OnBatchClosed(key, std::move(txs), why); }),
      watchdog_(&env->sim, kTagWatchdog,
                [this](SimTime delay, uint64_t tag, uint64_t payload) {
                  StartTimer(delay, tag, payload);
                }) {
  // The dedup tables sit on the per-request hot path. A modest seed
  // reservation skips the first few growth rebuilds; further growth is
  // amortized (each rebuild is a flat copy), which beats the old
  // megabyte-scale up-front reservations — zeroing those dominated
  // node construction and wrecked cache locality for the common small
  // case.
  seen_requests_.reserve(1 << 10);
  observed_requests_.reserve(1 << 10);
  committed_requests_.reserve(1 << 10);
  EngineContext ctx;
  ctx.env = env;
  ctx.self = id();
  ctx.cluster = cfg_.ordering;
  ctx.self_index = index;
  ctx.pipeline_depth = static_cast<size_t>(
      dir_->params.pipeline_depth < 0 ? 0 : dir_->params.pipeline_depth);
  ctx.send = [this](NodeId to, MessageRef m) { Send(to, std::move(m)); };
  ctx.broadcast = [this](MessageRef m) { SendExceptSelf(cfg_.ordering, m); };
  ctx.start_timer = [this](SimTime d, uint64_t tag, uint64_t payload) {
    StartTimer(d, tag, payload);
  };
  ctx.deliver = [this](uint64_t slot, const ConsensusValue& v) {
    OnDecide(slot, v);
  };
  ctx.checkpoint_interval = static_cast<size_t>(
      dir_->params.checkpoint_interval < 0
          ? 0
          : dir_->params.checkpoint_interval);
  if (dir_->params.state_transfer) {
    ctx.request_state_transfer = [this](const CheckpointCertificate&) {
      // The peer's StateReply carries its own certificate; all the host
      // needs to know is that per-slot catch-up cannot work.
      ScheduleStateSync(dir_->params.consensus_timeout_us / 4);
    };
  }
  ctx.on_view_change = [this](ViewNo, NodeId new_primary) {
    if (new_primary == id()) ReplayExecPushes();
  };
  if (cfg_.failure_model == FailureModel::kByzantine) {
    engine_ = std::make_unique<PbftEngine>(
        std::move(ctx), dir_->params.f, dir_->params.consensus_timeout_us);
  } else {
    engine_ = std::make_unique<PaxosEngine>(
        std::move(ctx), dir_->params.f, dir_->params.consensus_timeout_us);
  }
}

SimTime OrderingNode::CostOf(const Message& msg) const {
  if (msg.type == MsgType::kRequest) {
    SimTime auth = cfg_.failure_model == FailureModel::kCrash
                       ? env()->costs.mac_verify_us
                       : env()->costs.verify_sig_us;
    SimTime pf = dir_->params.use_firewall
                     ? env()->costs.pf_tx_overhead_us
                     : 0;
    return env()->costs.base_proc_us + auth + pf;
  }
  return Actor::CostOf(msg);
}

void OrderingNode::OnCrash() {
  // Volatile intake state dies with the process: pending batch items are
  // recovered by client retransmission, and the batcher's armed-timer
  // flags must not outlive the timers (which the crash epoch discards).
  batcher_.Reset();
  state_sync_pending_ = false;  // its timer died with the old epoch
}

void OrderingNode::MaybeWatchExecWedge() {
  if (!dir_->params.state_transfer ||
      exec_wedge_deadline_ != kNoDeadline || exec_.pending_blocks() == 0) {
    return;
  }
  exec_wedge_deadline_ = now() + dir_->params.cross_timeout_us;
  exec_ledger_at_arm_ = exec_.ledger().size();
  watchdog_.ArmBy(exec_wedge_deadline_);
}

void OrderingNode::OnRecover() {
  engine_->OnHostRecover();
  RetireFinished();
  watchdog_.Rearm(now() + dir_->params.cross_timeout_us);
  // A restarted replica missed every commit of its downtime — including
  // cross-cluster commits nothing will ever retransmit (completed
  // instances stop re-driving). Proactively fetch the gap from a peer;
  // the tail still catches up through the normal fill protocols.
  if (!dir_->params.state_transfer) return;
  ScheduleStateSync(dir_->params.consensus_timeout_us / 2);
}

// --------------------------------------------------------------- intake

void OrderingNode::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kRequest:
      HandleRequest(from, *msg->As<RequestMsg>());
      break;
    case MsgType::kPrePrepare:
      ObserveProposedValue(msg->As<PrePrepareMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosAccept:
      ObserveProposedValue(msg->As<PaxosAcceptMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kViewChange:
      for (const auto& p : msg->As<ViewChangeMsg>()->prepared) {
        ObserveProposedValue(p.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kNewView:
      for (const auto& p : msg->As<NewViewMsg>()->reproposals) {
        ObserveProposedValue(p.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosPromise:
      for (const auto& a : msg->As<PaxosPromiseMsg>()->accepted) {
        ObserveProposedValue(a.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPrepare:
    case MsgType::kCommit:
    case MsgType::kPaxosAccepted:
    case MsgType::kPaxosLearn:
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kFillReply:
      ObserveProposedValue(msg->As<FillReplyMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosPrepare:
    case MsgType::kFillRequest:
    case MsgType::kCheckpoint:
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kStateRequest:
      HandleStateRequest(from, *msg->As<StateRequestMsg>());
      break;
    case MsgType::kStateReply:
      HandleStateReply(from, *msg->As<StateReplyMsg>());
      break;
    case MsgType::kXPrepare:
      ObserveProposedBlock(msg->As<XPrepareMsg>()->block);
      HandleXPrepare(from, *msg->As<XPrepareMsg>());
      break;
    case MsgType::kXPrepared:
      HandleXPrepared(from, *msg->As<XPreparedMsg>());
      break;
    case MsgType::kXCommit:
    case MsgType::kXAbort:
      HandleXCommit(from, *msg->As<XCommitMsg>());
      break;
    case MsgType::kFPropose:
      ObserveProposedBlock(msg->As<FProposeMsg>()->block);
      HandleFPropose(from, *msg->As<FProposeMsg>());
      break;
    case MsgType::kFAccept:
      HandleFAccept(from, *msg->As<FAcceptMsg>());
      break;
    case MsgType::kFCommit:
      HandleFCommit(from, *msg->As<FCommitMsg>());
      break;
    case MsgType::kCommitQuery:
    case MsgType::kPreparedQuery:
      HandleQuery(from, *msg->As<QueryMsg>());
      break;
    case MsgType::kReplyCert:
      ForwardReplyCert(msg);
      break;
    default:
      break;
  }
  RetireFinished();
}

void OrderingNode::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag >= InternalConsensus::kEngineTimerBase) {
    engine_->OnTimer(tag, payload);
  } else if (tag == kTagBatch) {
    batcher_.OnTimer(payload);
  } else if (tag == kTagRetry) {
    RunRetry(payload);
  } else if (tag == kTagStateSync) {
    state_sync_pending_ = false;
    SendStateRequest();
  } else if (tag == kTagWatchdog && watchdog_.Fire(payload)) {
    OnDeadlines();
  }
  RetireFinished();
}

void OrderingNode::OnDeadlines() {
  if (exec_wedge_deadline_ <= now()) {
    exec_wedge_deadline_ = kNoDeadline;
    if (exec_.pending_blocks() > 0 &&
        exec_.ledger().size() == exec_ledger_at_arm_) {
      env()->metrics.Inc("order.exec_wedge_detected");
      ScheduleStateSync(0);
    }
    MaybeWatchExecWedge();
  }
  while (!pending_exec_push_.empty() &&
         pending_exec_push_.front().deadline <= now()) {
    PendingExecPush p = std::move(pending_exec_push_.front());
    pending_exec_push_.pop_front();
    // A reply certificate that came back down the firewall means the
    // execution nodes saw the block: nothing to do.
    if (reply_cache_.count(p.msg->cert.block_digest)) continue;
    env()->metrics.Inc("order.exec_push_backup");
    Multicast(cfg_.filter_rows.front(), p.msg);
    if (++p.tries < 3) {
      p.deadline = now() + dir_->params.cross_timeout_us;
      pending_exec_push_.push_back(std::move(p));
    }
  }
  while (!progress_checks_.empty() &&
         progress_checks_.front().deadline <= now()) {
    ProgressCheck pc = progress_checks_.front();
    progress_checks_.pop_front();
    // Dropped when a proposal carrying the request was observed, when
    // consensus moved since the relay (the primary is alive and the
    // request is parked for a legitimate reason — suspecting would thrash
    // views on a healthy cluster), or after three tries (the request is
    // lost upstream; the client's retransmission starts a fresh check).
    if (IsDuplicateRequest(pc.id) ||
        engine_->LastDelivered() != pc.delivered_at_arm || ++pc.tries > 3) {
      continue;
    }
    env()->metrics.Inc("order.primary_suspected");
    engine_->SuspectPrimary();
    pc.delivered_at_arm = engine_->LastDelivered();
    pc.deadline = now() + 2 * dir_->params.consensus_timeout_us;
    progress_checks_.push_back(pc);
  }
  SimTime next = exec_wedge_deadline_;
  if (!pending_exec_push_.empty()) {
    next = std::min(next, pending_exec_push_.front().deadline);
  }
  if (!progress_checks_.empty()) {
    next = std::min(next, progress_checks_.front().deadline);
  }
  // Expired cross instances act in deadline order (ties by digest):
  // xstates_ is a hashed container.
  std::vector<std::pair<SimTime, Sha256Digest>> expired;
  for (const auto& [d, xs] : xstates_) {
    if (xs.done) continue;
    SimTime deadline = xs.deadline;
    if (deadline <= now()) {
      expired.emplace_back(deadline, d);
    } else {
      next = std::min(next, deadline);
    }
  }
  watchdog_.ArmBy(next);
  std::sort(expired.begin(), expired.end());
  for (const auto& [deadline, d] : expired) {
    // An earlier timeout's re-drive may have finished this instance.
    auto xit = xstates_.find(d);
    if (xit == xstates_.end() || xit->second.done) continue;
    xit->second.deadline = kNoDeadline;
    env()->metrics.Inc("cross.timeout");
    // Initiator/coordinator primary: re-drive the instance — some votes
    // or the PREPARE/PROPOSE itself may have been lost, and nothing else
    // retransmits them.
    RedriveCross(xit->second);
    // The re-drive may have aborted the instance into the retry
    // machinery (arbitration back-off) and reshaped xstates_ — re-find
    // before touching the state again.
    xit = xstates_.find(d);
    if (xit == xstates_.end() || xit->second.done) continue;
    XState& xs = xit->second;
    // §4.3.4: query the coordinator/initiator cluster for the outcome.
    auto q = std::make_shared<QueryMsg>(MsgType::kCommitQuery);
    q->from_cluster = cfg_.cluster_id;
    q->block_digest = d;
    q->sig = env()->keystore.Sign(id(), d);
    int coord = xs.involved.empty() ? cfg_.cluster_id : xs.involved.front();
    if (xs.block) {
      coord = CoordinatorClusterOf(xs.block->id.alpha.collection,
                                   AllShards(xs));
    }
    Multicast(dir_->Cluster(coord).ordering, q);
    ArmCrossTimer(xs);
  }
}

std::vector<ShardId> OrderingNode::AllShards(const XState& xs) {
  std::vector<ShardId> out;
  out.reserve(xs.assignments.size());
  for (const auto& [s, a] : xs.assignments) out.push_back(s);
  if (out.empty() && xs.block) {
    out = xs.block->txs.empty() ? std::vector<ShardId>{0}
                                : xs.block->txs.front().shards;
  }
  return out;
}

void OrderingNode::HandleRequest(NodeId /*from*/, const RequestMsg& m) {
  const Transaction& tx = m.tx;
  // Authorization + signature (paper §4.1: "valid signed request from an
  // authorized client").
  if (!env()->keystore.Verify(tx.client_sig, tx.Digest())) {
    env()->metrics.Inc("order.bad_request_sig");
    return;
  }
  if (!engine_->IsPrimary()) {
    // Relay to the current primary (§4.3.4 client retransmission path).
    if (m.is_retransmission) {
      // Re-send a cached reply if we executed it already.
      auto it = reply_index_.find({tx.client, tx.client_ts});
      if (it != reply_index_.end()) {
        Send(tx.client, reply_cache_.at(it->second));
        return;
      }
    }
    Send(engine_->PrimaryNode(), std::make_shared<RequestMsg>(m));
    WatchRelayedRequest(tx);
    return;
  }
  if (IsDuplicateRequest({tx.client, tx.client_ts})) {
    env()->metrics.Inc("order.duplicate_request");
    return;
  }
  if (IntakeGated()) {
    // A catching-up primary must not admit fresh batches: its permanent
    // at-most-once record is still incomplete, so a retransmission of a
    // transaction whose commit it has not yet learned would be ordered a
    // second time. The client retransmits once the gate clears.
    env()->metrics.Inc("order.intake_gated");
    return;
  }
  // Write rule (§3.2): the transaction must target a collection its
  // initiating enterprise is involved in.
  Status ok = model_->ValidateWrite(tx.collection, cfg_.enterprise);
  if (!ok.ok()) {
    env()->metrics.Inc("order.rejected_write_rule");
    return;
  }
  seen_requests_.Put({tx.client, tx.client_ts}, now());
  MaybePurgeDedup();

  // Requests of one flow (same collection + shard set) can legally share
  // a block; cross-cluster flows use the longer batch window.
  FlowKey key{tx.collection, tx.shards};
  SimTime window = IsCross(key) ? dir_->params.cross_batch_timeout_us : 0;
  batcher_.Add(key, tx, window);
}

void OrderingNode::ObserveProposedValue(const ConsensusValue& v) {
  if (v.kind != ConsensusValue::Kind::kBlock &&
      v.kind != ConsensusValue::Kind::kXOrder) {
    return;
  }
  ObserveProposedBlock(v.block);
}

void OrderingNode::ObserveProposedBlock(const BlockPtr& block) {
  if (block == nullptr) return;
  for (const Transaction& tx : block->txs) {
    observed_requests_.Put({tx.client, tx.client_ts}, now());
  }
  // Backups never take the intake path, so the observation map must be
  // purged here too or it grows for the whole run on (n-1)/n nodes.
  MaybePurgeDedup();
}

bool OrderingNode::IntakeGated() const {
  // Deferred blocks gate intake from the FIRST deferral, not only once
  // the wedge watchdog confirms one: the gap between "a commit we have
  // not applied exists" and "the watchdog noticed" is exactly where a
  // catching-up leader re-orders a retransmission into a duplicate
  // block (the chaos corpus reproduces this deterministically). The
  // cost on a healthy primary is negligible — transient γ-deferrals
  // rarely coincide with intake, and gated clients simply retransmit.
  return dir_->params.state_transfer &&
         (state_sync_pending_ || exec_.pending_blocks() > 0);
}

SimTime OrderingNode::DedupWindowUs() const {
  // The window a live proposal could still commit in (internal rounds
  // plus a full re-driven cross instance); past it the proposal is
  // presumed abandoned and the transaction may be batched afresh.
  return 2 * dir_->params.cross_timeout_us;
}

bool OrderingNode::RecentlyIn(const RequestTable& m,
                              const RequestId& id) const {
  const SimTime* at = m.Find(id);
  return at != nullptr && now() - *at <= DedupWindowUs();
}

bool OrderingNode::ObservedRecently(const RequestId& id) const {
  return committed_requests_.Contains(id) ||
         RecentlyIn(observed_requests_, id);
}

bool OrderingNode::IsDuplicateRequest(const RequestId& id) const {
  // Intake dedup uses the same expiry as observation dedup: past the
  // window, this node's own proposal is presumed abandoned and a client
  // retransmission may be admitted afresh — otherwise a transaction lost
  // in an abandoned proposal would stay blacklisted here until another
  // node became primary.
  // pending_cross_ deliberately has no expiry: those requests sit in a
  // cross instance this node keeps re-driving, so they are never
  // abandoned while pinned (see FinishCross for the release).
  return committed_requests_.Contains(id) ||
         pending_cross_.find(id) != pending_cross_.end() ||
         RecentlyIn(seen_requests_, id) ||
         RecentlyIn(observed_requests_, id);
}

void OrderingNode::PinCross(const BlockPtr& block) {
  for (const auto& tx : block->txs) {
    ++pending_cross_[{tx.client, tx.client_ts}];
  }
}

void OrderingNode::UnpinCross(const BlockPtr& block) {
  if (block == nullptr) return;
  for (const auto& tx : block->txs) {
    auto it = pending_cross_.find({tx.client, tx.client_ts});
    if (it == pending_cross_.end()) continue;
    if (--it->second == 0) pending_cross_.erase(it);
  }
}

void OrderingNode::MaybePurgeDedup() {
  if (now() - last_dedup_purge_ <= DedupWindowUs()) return;
  last_dedup_purge_ = now();
  SimTime horizon = now() - DedupWindowUs();
  seen_requests_.PurgeBefore(horizon);
  observed_requests_.PurgeBefore(horizon);
}

void OrderingNode::WatchRelayedRequest(const Transaction& tx) {
  ProgressCheck pc;
  pc.id = {tx.client, tx.client_ts};
  pc.delivered_at_arm = engine_->LastDelivered();
  pc.deadline = now() + 2 * dir_->params.consensus_timeout_us;
  progress_checks_.push_back(pc);
  watchdog_.ArmBy(pc.deadline);
}

LocalPart OrderingNode::NextAlpha(const CollectionId& c) {
  LocalPart a;
  a.collection = c;
  a.shard = cfg_.shard;
  // In optimistic (non-designated) mode another enterprise's commits may
  // have advanced the chain past our own assignment counter.
  SeqNo base = std::max(next_seq_[c], StateOfCollection(c));
  a.n = base + 1;
  next_seq_[c] = a.n;
  return a;
}

SeqNo OrderingNode::StateOfCollection(const CollectionId& c) const {
  const SeqNo* at = state_.Find(c);
  return at == nullptr ? 0 : *at;
}

SeqNo OrderingNode::CommittedHeadOf(const CollectionId& c) const {
  return exec_.ledger().HeadOf(ShardRef{c, cfg_.shard});
}

std::vector<GammaEntry> OrderingNode::CaptureGamma(
    const CollectionId& c) const {
  // §4.1: the global part includes the current state of *all* collections
  // d_c is order-dependent on, because the read-set is unknown until
  // execution.
  std::vector<GammaEntry> gamma;
  for (const CollectionId& dep : model_->OrderDependenciesOf(c)) {
    const SeqNo* at = state_.Find(dep);
    SeqNo m = at == nullptr ? 0 : *at;
    gamma.push_back(GammaEntry{dep, m});
  }
  return gamma;
}

BlockPtr OrderingNode::MakeBlock(const FlowKey& key,
                                 std::vector<Transaction> txs,
                                 uint32_t attempt) {
  auto block = std::make_shared<Block>();
  block->attempt = attempt;
  block->id.alpha = NextAlpha(key.collection);
  block->id.gamma = CaptureGamma(key.collection);
  block->txs = std::move(txs);
  block->Seal();
  // Batching cost: hashing/assembling the block.
  const_cast<OrderingNode*>(this)->ChargeCpu(
      static_cast<SimTime>(block->txs.size()) * env()->costs.batch_tx_us);
  return block;
}

void OrderingNode::OnBatchClosed(const FlowKey& key,
                                 std::vector<Transaction> txs,
                                 BatchClose why) {
  // A transaction observed in another leader's proposal between intake
  // and batch close is (or will be) ordered there — proposing it again
  // here would commit it twice.
  size_t before = txs.size();
  txs.erase(std::remove_if(txs.begin(), txs.end(),
                           [this](const Transaction& tx) {
                             return ObservedRecently(
                                 {tx.client, tx.client_ts});
                           }),
            txs.end());
  if (txs.size() != before) {
    env()->metrics.Inc("order.dup_tx_filtered", before - txs.size());
  }
  if (txs.empty()) return;
  env()->metrics.Inc(std::string("batch.closed_") + BatchCloseName(why));
  env()->metrics.Hist("batch.txs").Add(static_cast<int64_t>(txs.size()));

  if (!IsCross(key)) {
    // Intra-shard intra-enterprise: internal consensus commits directly.
    ConsensusValue v = ConsensusValue::ForBlock(MakeBlock(key, std::move(txs)));
    v.batch_close = static_cast<uint8_t>(why);
    engine_->Propose(v);
    return;
  }
  int initiator = CoordinatorClusterOf(key.collection, key.shards);
  if (initiator != cfg_.cluster_id) {
    // Another cluster initiates this flow (a client sent to a cluster
    // other than the flow's coordinator/initiator): hand the batch over
    // before a block is minted, so no sequence number of this cluster's
    // chain is spent on a block it never proposes.
    for (const auto& tx : txs) {
      auto req = std::make_shared<RequestMsg>();
      req->tx = tx;
      req->wire_bytes = 64 + tx.WireSize();
      Send(dir_->Cluster(initiator).InitialPrimary(), req);
    }
    return;
  }
  StartCross(MakeBlock(key, std::move(txs)));
}

// --------------------------------------------------- consensus plumbing

CommitCertificate OrderingNode::MakeCert(uint64_t slot,
                                         const Sha256Digest& digest,
                                         ConsensusValue::Kind kind) {
  CommitCertificate cert;
  cert.block_digest = digest;
  cert.view = engine_->view();
  cert.slot = slot;
  cert.value_kind = static_cast<uint8_t>(kind);
  cert.sigs = engine_->CommitProof(slot);
  if (cert.sigs.empty()) {
    // Crash clusters don't exchange signatures during consensus; the
    // appending node certifies the decided block itself.
    cert.direct = true;
    cert.sigs.push_back(env()->keystore.Sign(id(), digest));
  }
  return cert;
}

void OrderingNode::OnDecide(uint64_t slot, const ConsensusValue& v) {
  switch (v.kind) {
    case ConsensusValue::Kind::kBlock: {
      CommitCertificate cert =
          MakeCert(slot, v.block_digest, ConsensusValue::Kind::kBlock);
      CommitBlock(v.block, std::move(cert), v.block->id.alpha,
                  v.block->id.gamma, /*reply_from_here=*/true);
      break;
    }
    case ConsensusValue::Kind::kXOrder:
      OnXOrderDecided(slot, v);
      break;
    case ConsensusValue::Kind::kXCommit:
      OnXCommitDecided(slot, v, /*is_abort=*/false);
      break;
    case ConsensusValue::Kind::kXAbort:
      OnXCommitDecided(slot, v, /*is_abort=*/true);
      break;
    case ConsensusValue::Kind::kNoop:
      break;
  }
}

// ------------------------------------------------- commit & execution

void OrderingNode::CommitBlock(const BlockPtr& block, CommitCertificate cert,
                               const LocalPart& alpha,
                               std::vector<GammaEntry> gamma,
                               bool reply_from_here) {
  for (const Transaction& tx : block->txs) {
    committed_requests_.Put({tx.client, tx.client_ts}, 0);
  }
  // Track committed state for future γ captures.
  auto& st = state_[alpha.collection];
  st = std::max(st, alpha.n);
  committed_blocks_++;
  committed_txs_ += block->tx_count();
  if (reply_from_here) reply_owner_.insert(cert.block_digest);

  if (cfg_.SeparatedExecution()) {
    // Byzantine with separation: the primary pushes the request + commit
    // certificate through the privacy firewall (§4.2). Backups keep the
    // recent pushes instead of discarding them — if the primary crashed
    // between committing and forwarding, the next primary replays the
    // tail on its view change (execution-side dedup absorbs duplicates).
    auto eo = std::make_shared<ExecOrderMsg>();
    eo->block = block;
    eo->cert = std::move(cert);
    eo->alpha_here = alpha;
    eo->gamma_here = std::move(gamma);
    eo->wire_bytes = 128 + block->WireSize() + eo->cert.WireSize();
    eo->sig_verify_ops = static_cast<uint16_t>(eo->cert.sigs.size());
    if (engine_->IsPrimary()) {
      Multicast(cfg_.filter_rows.front(), eo);
    } else {
      SimTime deadline = now() + dir_->params.cross_timeout_us;
      pending_exec_push_.push_back(PendingExecPush{std::move(eo), 0, deadline});
      watchdog_.ArmBy(deadline);
    }
    return;
  }

  // Co-located execution (crash clusters; Byzantine without separation):
  // every ordering node executes.
  Status st2 = exec_.Submit(
      block, std::move(cert), alpha, std::move(gamma),
      [this, reply_from_here](const ExecutorCore::ExecResult& res) {
        ChargeCpu(res.cpu_cost);
        if (reply_from_here) OnExecutedReply(res);
      });
  if (!st2.ok() && st2.code() != StatusCode::kAlreadyExists) {
    env()->metrics.Inc("order.commit_submit_error");
  }
  MaybeWatchExecWedge();
}

void OrderingNode::OnExecutedReply(const ExecutorCore::ExecResult& res) {
  // Every executing node replies; the client machine applies its
  // acceptance rule (first reply on crash clusters, f+1 matching results
  // on Byzantine ones). Suppressing non-primary replies on crash
  // clusters — the cheaper steady-state choice — deadlocks under chaos:
  // leadership can land on a recovered replica whose execution lags its
  // consensus (its ledger misses blocks from its crashed life), and then
  // nobody ever answers the clients.
  auto reply = std::make_shared<ReplyMsg>();
  reply->block_digest = res.block->Digest();
  reply->result_digest = res.result_digest;
  reply->clients = res.clients;
  reply->sig = env()->keystore.Sign(id(), res.result_digest);
  reply->wire_bytes = 96 + static_cast<uint32_t>(res.clients.size() * 12);
  // Distinct target machines in ascending id order (same order the
  // std::set this replaced produced) without a tree allocation per reply.
  SortedVec<NodeId> machines;
  for (const auto& [c, ts] : res.clients) machines.Insert(c);
  for (NodeId c : machines) Send(c, reply);
}

void OrderingNode::ForwardReplyCert(const MessageRef& msg) {
  // Reply certificate arrived from the bottom filter row; the primary
  // forwards it to the client machines (§4.2). All nodes cache it for
  // client retransmissions (the latest arrival answers). Messages are
  // immutable, so the cache shares the delivered certificate — one
  // allocation per filter copy, not one per ordering node. For
  // cross-cluster blocks only the initiator cluster replies.
  auto cached = std::static_pointer_cast<const ReplyCertMsg>(msg);
  const ReplyCertMsg& m = *cached;
  reply_cache_[m.block_digest] = cached;
  for (const auto& id : m.clients) {
    auto [it, fresh] = reply_index_.try_emplace(id, m.block_digest);
    if (!fresh && m.block_digest < it->second) it->second = m.block_digest;
  }
  if (!engine_->IsPrimary()) return;
  if (!reply_owner_.count(m.block_digest)) return;
  SortedVec<NodeId> machines;
  for (const auto& [c, ts] : m.clients) machines.Insert(c);
  for (NodeId c : machines) Send(c, cached);
}

// ------------------------------------------------- cross-cluster common

bool OrderingNode::IsCross(const FlowKey& key) const {
  return key.collection.members.size() > 1 || key.shards.size() > 1;
}

std::vector<int> OrderingNode::InvolvedClusters(
    const CollectionId& c, const std::vector<ShardId>& shards) const {
  std::vector<int> out;
  for (EnterpriseId e : c.members.Members()) {
    for (ShardId s : shards) {
      out.push_back(dir_->ClusterIdOf(e, s));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int OrderingNode::CoordinatorClusterOf(
    const CollectionId& c, const std::vector<ShardId>& shards) const {
  ShardId s = shards.empty() ? 0 : *std::min_element(shards.begin(),
                                                     shards.end());
  EnterpriseId e = dir_->params.designated_coordinator
                       ? dir_->CoordinatorEnterpriseOf(c, s)
                       : cfg_.enterprise;
  if (c.members.size() == 1) e = c.members.First();
  return dir_->ClusterIdOf(e, s);
}

bool OrderingNode::IAmShardAssigner(const CollectionId& c,
                                    EnterpriseId initiator_enterprise) const {
  if (!c.members.Contains(cfg_.enterprise)) return false;
  if (c.members.size() == 1) return c.members.First() == cfg_.enterprise;
  if (dir_->params.designated_coordinator) {
    return dir_->CoordinatorEnterpriseOf(c, cfg_.shard) == cfg_.enterprise;
  }
  return cfg_.enterprise == initiator_enterprise;
}

bool OrderingNode::HasCrossShardConflict(
    const BlockPtr& block, const std::vector<ShardId>& shards) const {
  auto intersects2 = [&shards](const std::vector<ShardId>& other) {
    std::vector<ShardId> inter;
    std::set_intersection(shards.begin(), shards.end(), other.begin(),
                          other.end(), std::back_inserter(inter));
    return inter.size() >= 2;
  };
  for (const auto& [d, s] : active_cross_) {
    if (intersects2(s)) return true;
  }
  for (const auto& d : deferred_cross_) {
    if (d.block == block) continue;  // re-admission of the head itself
    if (!d.block->txs.empty() && intersects2(d.block->txs.front().shards)) {
      return true;
    }
  }
  return false;
}

OrderingNode::XState& OrderingNode::StateFor(const Sha256Digest& d) {
  auto [it, fresh] = xstates_.try_emplace(d);
  XState& xs = it->second;
  if (!fresh) return xs;
  xs.digest = d;
  auto rec = finished_.find(d);
  if (rec != finished_.end()) {
    const XOutcome& o = rec->second;
    xs.done = true;
    xs.block = o.block;
    xs.outcome_cert = o.cert;
    xs.outcome_known = o.certified;
    xs.outcome_abort = o.abort;
    for (const ShardAssignment& a : o.assignments) {
      xs.assignments.emplace(a.alpha.shard, a);
    }
    finishing_.push_back(d);
  }
  return xs;
}

OrderingNode::XState* OrderingNode::LiveState(const Sha256Digest& d) {
  auto it = xstates_.find(d);
  if (it != xstates_.end()) return it->second.done ? nullptr : &it->second;
  if (finished_.find(d) != finished_.end()) return nullptr;
  return &StateFor(d);
}

void OrderingNode::RetireFinished() {
  for (const Sha256Digest& d : finishing_) {
    auto node = xstates_.extract(d);
    XState& xs = node.mapped();
    XOutcome& o = finished_[d];
    o.block = std::move(xs.block);
    o.cert = std::move(xs.outcome_cert);
    o.certified = xs.outcome_known;
    o.abort = xs.outcome_abort;
    o.assignments.clear();
    o.assignments.reserve(xs.assignments.size());
    for (auto& [shard, a] : xs.assignments) {
      o.assignments.push_back(std::move(a));
    }
  }
  finishing_.clear();
}

void OrderingNode::ArmCrossTimer(XState& xs) {
  if (xs.deadline != kNoDeadline || xs.done) return;
  xs.deadline = now() + dir_->params.cross_timeout_us;
  watchdog_.ArmBy(xs.deadline);
}

// ------------------------------------------- cross-instance skeleton

void OrderingNode::StartCross(const BlockPtr& block) {
  const Transaction& probe = block->txs.front();
  // Concurrency control (§4.3.2, §4.4.2): defer blocks that intersect an
  // active cross-shard transaction in >= 2 shards.
  if (probe.shards.size() > 1) {
    if (HasCrossShardConflict(block, probe.shards)) {
      deferred_cross_.push_back(DeferredCross{block});
      PinCross(block);
      env()->metrics.Inc("cross.deferred_conflict");
      return;
    }
    active_cross_[block->Digest()] = probe.shards;
  }

  XState& xs = StateFor(block->Digest());
  AdoptBlock(xs, block);
  xs.i_coordinate = true;
  if (!xs.pinned) {
    xs.pinned = true;
    PinCross(block);
  }
  const LocalPart& alpha = block->id.alpha;
  xs.assignments[alpha.shard] =
      ShardAssignment{cfg_.cluster_id, alpha, block->id.gamma};
  own_pending_.insert({ShardRef{alpha.collection, alpha.shard}, alpha.n});
  if (dir_->params.family == ProtocolFamily::kCoordinator) {
    OpenCoordinated(xs);
  } else {
    OpenFlattened(xs);
  }
}

void OrderingNode::AdoptBlock(XState& xs, const BlockPtr& block) {
  const Transaction& probe = block->txs.front();
  xs.block = block;
  xs.involved = InvolvedClusters(probe.collection, probe.shards);
  xs.is_cross_enterprise = probe.collection.members.size() > 1;
  xs.is_cross_shard = probe.shards.size() > 1;
}

void OrderingNode::CompleteCross(XState& xs, const CommitCertificate& cert,
                                 bool abort, bool reply_from_here) {
  xs.outcome_cert = cert;
  xs.outcome_known = true;
  xs.outcome_abort = abort;
  if (!abort) {
    auto mine = xs.assignments.find(cfg_.shard);
    if (mine != xs.assignments.end()) {
      CommitBlock(xs.block, cert, mine->second.alpha, mine->second.gamma,
                  reply_from_here);
    }
  }
  FinishCross(xs, !abort);
}

void OrderingNode::SendToInvolved(const XState& xs, const MessageRef& m) {
  for (int c : xs.involved) SendExceptSelf(dir_->Cluster(c).ordering, m);
}

void OrderingNode::MulticastToOtherClusters(const XState& xs,
                                            const MessageRef& m) {
  for (int c : xs.involved) {
    if (c != cfg_.cluster_id) Multicast(dir_->Cluster(c).ordering, m);
  }
}

void OrderingNode::SendExceptSelf(const std::vector<NodeId>& nodes,
                                  const MessageRef& m) {
  for (NodeId n : nodes) {
    if (n != id()) Send(n, m);
  }
}

bool OrderingNode::SignedByMember(NodeId from, int cluster,
                                  const Signature& sig,
                                  const Sha256Digest& signable) const {
  const std::vector<NodeId>& members = dir_->Cluster(cluster).ordering;
  return std::find(members.begin(), members.end(), from) != members.end() &&
         sig.signer == from && env()->keystore.Verify(sig, signable);
}

bool OrderingNode::AllShardsAssigned(const XState& xs) {
  for (ShardId s : xs.block->txs.front().shards) {
    if (!xs.assignments.count(s)) return false;
  }
  return true;
}

bool OrderingNode::QuorumFromEveryInvolved(
    const XState& xs, const FlatMap<int, VoteSet>& tally) const {
  for (int c : xs.involved) {
    const VoteSet* votes = tally.Find(c);
    if (votes == nullptr || votes->size() < dir_->params.LocalMajority()) {
      return false;
    }
  }
  return true;
}

void OrderingNode::FinishCross(XState& xs, bool committed) {
  xs.done = true;
  finishing_.push_back(xs.digest);
  if (xs.pinned) {
    xs.pinned = false;
    UnpinCross(xs.block);
  }
  if (!committed) aborted_blocks_++;
  for (const auto& [shard, a] : xs.assignments) {
    if (a.cluster == cfg_.cluster_id) {
      own_pending_.erase(
          {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
    }
  }
  // Release the shard reservation and admit deferred conflicting blocks.
  auto it = active_cross_.find(xs.digest);
  if (it != active_cross_.end()) {
    active_cross_.erase(it);
    if (!deferred_cross_.empty()) {
      std::vector<DeferredCross> retry;
      retry.swap(deferred_cross_);
      for (auto& d : retry) {
        // Hand the pin from the deferred entry to whatever holder the
        // restart lands in (new instance, or back onto the deferred
        // queue) — StartCross re-pins.
        UnpinCross(d.block);
        StartCross(d.block);
      }
    }
  }
  // Abort at the initiating cluster: retry the batch under a fresh block
  // (same transactions, new ID) after a deterministic per-cluster backoff
  // (§4.3.5: different timers per cluster prevent repeated deadlocks).
  if (!committed) {
    // Release slot claims and roll back our own assignment counters so
    // replacements can reuse the burned sequence numbers. Only this
    // block's own endorsement is released: after a §4.3.5 arbitration
    // switch the slot entry holds the rival winner's digest, and erasing
    // it would let a third claim sneak into a decided slot.
    for (const auto& [shard, a] : xs.assignments) {
      Slot slot{ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      auto claim = validated_digest_.find(slot);
      if (claim != validated_digest_.end() && claim->second == xs.digest) {
        validated_digest_.erase(claim);
      }
      auto locked = commit_locked_.find(slot);
      if (locked != commit_locked_.end() && locked->second == xs.digest) {
        commit_locked_.erase(locked);
      }
      if (a.cluster == cfg_.cluster_id && engine_->IsPrimary() &&
          next_seq_[a.alpha.collection] == a.alpha.n) {
        --next_seq_[a.alpha.collection];
      }
    }
  }
  if (!committed && xs.i_coordinate && xs.block != nullptr &&
      engine_->IsPrimary() && xs.retries < 8) {
    env()->metrics.Inc("cross.retry");
    uint64_t token = next_retry_++;
    retry_blocks_[token] = {xs.block, xs.retries + 1};
    PinCross(xs.block);
    SimTime backoff = 1000 * (cfg_.cluster_id + 1) * (xs.retries + 1);
    StartTimer(backoff, kTagRetry, token);
  }
  // §4.3.5 loser re-proposal is a flattened-mode mechanism: only there
  // does the commit-vote lock guarantee a slot-losing rival can never
  // commit, making its abort-and-requeue safe. In the coordinator
  // family a slot collision is a duplicate redrive whose transactions
  // may ride in another live instance — requeueing would mint a third
  // copy and break exactly-once (the paxos-seed-32 scenario).
  if (committed && dir_->params.family == ProtocolFamily::kFlattened) {
    RequeueArbitrationLosers(xs);
  }
}

void OrderingNode::RequeueArbitrationLosers(const XState& winner) {
  if (winner.assignments.empty()) return;
  // Copy the winner's contested slots first: aborting a loser below can
  // mutate xstates_ (deferred re-admission inserts fresh instances),
  // which would invalidate references into the table.
  const Sha256Digest winner_digest = winner.digest;
  std::vector<Slot> slots;
  slots.reserve(winner.assignments.size());
  for (const auto& [shard, a] : winner.assignments) {
    slots.push_back(
        {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
  }
  // xstates_ is a hashed container — collect matches, then order the
  // losers by digest so the abort (and retry) schedule is deterministic.
  std::vector<Sha256Digest> losers;
  for (const auto& [d, rival] : xstates_) {
    if (rival.done || d == winner_digest) continue;
    for (const auto& [shard, a] : rival.assignments) {
      Slot slot{ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
        losers.push_back(d);
        break;
      }
    }
  }
  std::sort(losers.begin(), losers.end());
  for (const Sha256Digest& d : losers) {
    auto it = xstates_.find(d);
    if (it == xstates_.end() || it->second.done) continue;
    env()->metrics.Inc("cross.arbitration_loser");
    if (it->second.block != nullptr) {
      for (const Transaction& tx : it->second.block->txs) {
        arbitration_loser_txs_.insert({tx.client, tx.client_ts});
      }
    }
    // The winner holds the slot, and its commit-vote majorities keep it
    // locked at a local majority of every involved cluster — the loser
    // can never commit, so its transactions can safely go back through
    // the retry machinery (the pin in pending_cross_ rides along, which
    // is what keeps re-admission exactly-once).
    FinishCross(it->second, /*committed=*/false);
  }
}

void OrderingNode::RunRetry(uint64_t token) {
  auto it = retry_blocks_.find(token);
  if (it == retry_blocks_.end()) return;
  auto [old_block, retries] = it->second;
  retry_blocks_.erase(it);
  // The retry entry's pin moves to the fresh block's holder below.
  UnpinCross(old_block);
  // Exactly-once: drop transactions that committed meanwhile. An aborted
  // instance can share requests with the block that beat it — a §4.3.5
  // arbitration loser that was a duplicate admission of the winner, or a
  // redrive whose original finally landed — and re-proposing those would
  // commit them twice (committed_requests_ is the permanent record).
  std::vector<Transaction> txs;
  txs.reserve(old_block->txs.size());
  for (const Transaction& tx : old_block->txs) {
    if (!committed_requests_.Contains({tx.client, tx.client_ts})) {
      txs.push_back(tx);
    }
  }
  if (txs.empty()) {
    env()->metrics.Inc("cross.retry_settled");
    return;
  }
  const Transaction& probe = txs.front();
  BlockPtr fresh = MakeBlock(FlowKey{probe.collection, probe.shards},
                             std::move(txs),
                             static_cast<uint32_t>(retries));
  XState& xs = StateFor(fresh->Digest());
  xs.retries = retries;
  StartCross(fresh);
}

void OrderingNode::RedriveCross(XState& xs) {
  if (xs.done || xs.block == nullptr || !xs.i_coordinate ||
      !engine_->IsPrimary()) {
    return;
  }
  // §4.3.5: if one of our claimed slots has meanwhile committed under a
  // different block (learned via votes or state transfer), this instance
  // lost its arbitration and can never commit — the winner's commit-vote
  // majorities hold the slot locked. Abort into the retry machinery
  // instead of re-driving a dead claim forever.
  for (const auto& [shard, a] : xs.assignments) {
    if (a.cluster != cfg_.cluster_id) continue;
    ShardRef ref{a.alpha.collection, a.alpha.shard};
    if (exec_.ledger().HeadOf(ref) < a.alpha.n) continue;
    for (size_t i : exec_.ledger().ChainOf(ref)) {
      const DagLedger::Entry& e = exec_.ledger().entry(i);
      if (e.alpha.n != a.alpha.n) continue;
      if (e.block->Digest() != xs.digest) {
        env()->metrics.Inc("cross.arbitration_backoff");
        FinishCross(xs, /*committed=*/false);
        return;
      }
      break;
    }
  }
  env()->metrics.Inc("cross.redrive");
  if (dir_->params.family == ProtocolFamily::kFlattened) {
    SendFPropose(xs);
    ResendCrossVotes(xs);
  } else if (xs.order_cert_known) {
    SendXPrepare(xs);
  }
}

void OrderingNode::HandleQuery(NodeId from, const QueryMsg& m) {
  auto it = finished_.find(m.block_digest);
  if (it != finished_.end() && it->second.certified &&
      it->second.block != nullptr) {
    // §4.3.4: answer with the certified outcome. The asker lost the
    // original commit (crash, partition, drop); without this resend its
    // chain — and every collection order-dependent on it — stalls
    // forever.
    const XOutcome& o = it->second;
    env()->metrics.Inc("cross.query_answered");
    auto cm = std::make_shared<XCommitMsg>();
    cm->coord_cluster = cfg_.cluster_id;
    cm->block = o.block;
    cm->block_digest = m.block_digest;
    cm->coord_cert = o.cert;
    cm->is_abort = o.abort;
    if (o.abort) cm->type = MsgType::kXAbort;
    cm->assignments = o.assignments;
    cm->wire_bytes = 128 + cm->coord_cert.WireSize() +
                     static_cast<uint32_t>(cm->assignments.size()) * 48;
    cm->sig_verify_ops = static_cast<uint16_t>(cm->coord_cert.sigs.size());
    Send(from, cm);
    return;
  }
  // No certified outcome here (no record, or still pending): nothing to
  // answer. The asker re-queries at its next cross deadline; the metric
  // only counts such queries.
  env()->metrics.Inc("cross.query_pending");
}

// ------------------------------------- checkpointed state transfer

void OrderingNode::ScheduleStateSync(SimTime delay) {
  if (!dir_->params.state_transfer || state_sync_pending_) return;
  state_sync_pending_ = true;
  StartTimer(delay, kTagStateSync, 0);
}

void OrderingNode::SendStateRequest() {
  size_t n = cfg_.ordering.size();
  if (n <= 1) return;
  NodeId peer = id();
  for (size_t i = 0; i < n && peer == id(); ++i) {
    peer = cfg_.ordering[(static_cast<size_t>(index_) + 1 +
                          static_cast<size_t>(state_sync_rr_++)) % n];
  }
  if (peer == id()) return;
  env()->metrics.Inc("order.state_requested");
  Send(peer, exec_.MakeStateRequest(engine_->LastDelivered(), kInvalidNode));
}

void OrderingNode::HandleStateRequest(NodeId from, const StateRequestMsg& m) {
  if (!dir_->params.state_transfer) return;
  auto rep = exec_.BuildStateReply(m, &engine_->stable_checkpoint());
  if (rep == nullptr) return;
  env()->metrics.Inc("order.state_served");
  env()->metrics.Inc("order.state_blocks_served", rep->entries.size());
  Send(from, rep);
}

void OrderingNode::HandleStateReply(NodeId /*from*/, const StateReplyMsg& m) {
  if (!dir_->params.state_transfer) return;
  auto stats = exec_.InstallTransferred(
      *dir_, m.entries,
      [this](const StateReplyMsg::Entry& e, const Status& s) {
        for (const Transaction& tx : e.block->txs) {
          committed_requests_.Put({tx.client, tx.client_ts}, 0);
        }
        auto& st = state_[e.alpha.collection];
        st = std::max(st, e.alpha.n);
        MaybeWatchExecWedge();
        // An entry already queued by an earlier chunk must not inflate
        // counters or re-trigger sync rounds.
        if (s.code() == StatusCode::kAlreadyExists) return;
        if (!s.ok()) {
          env()->metrics.Inc("order.state_install_error");
          return;
        }
        committed_blocks_++;
        committed_txs_ += e.block->tx_count();
        env()->metrics.Inc("order.state_block_installed");
      },
      [this](const ExecutorCore::ExecResult& res) { ChargeCpu(res.cpu_cost); });
  if (stats.rejected > 0) {
    env()->metrics.Inc("order.bad_state_block", stats.rejected);
  }
  if (m.ckpt.slot > engine_->LastDelivered()) {
    if (!engine_->InstallCheckpoint(m.ckpt)) {
      env()->metrics.Inc("order.bad_state_ckpt");
    }
  }
  if (stats.installed > 0) {
    // Another round in case the serving peer itself was behind; it
    // no-ops (and goes unanswered) once everyone agrees.
    ScheduleStateSync(dir_->params.consensus_timeout_us);
  }
}

void OrderingNode::ReplayExecPushes() {
  if (!cfg_.SeparatedExecution() || pending_exec_push_.empty()) return;
  env()->metrics.Inc("order.exec_push_replayed", pending_exec_push_.size());
  for (const PendingExecPush& p : pending_exec_push_) {
    if (reply_cache_.count(p.msg->cert.block_digest)) continue;
    Multicast(cfg_.filter_rows.front(), p.msg);
  }
  pending_exec_push_.clear();
}

}  // namespace qanaat
