// Coordinator-based cross-cluster consensus (paper §4.3, Fig 5):
//   prepare   — the coordinator cluster internally orders the block, then
//               sends a cluster-signed PREPARE to every involved cluster;
//   prepared  — involved clusters either validate (same data shard) or
//               internally order (different shard, assigning their own
//               ⟨α, γ⟩) and answer PREPARED;
//   commit    — with prepared evidence from every involved cluster, the
//               coordinator runs internal consensus on the decision and
//               multicasts COMMIT; every cluster appends and executes.
// The instance's start, fan-out and completion are the shared skeleton
// in ordering_node.cc; this file holds only the rounds above.

#include <algorithm>

#include "protocols/ordering_node.h"

namespace qanaat {

void OrderingNode::OpenCoordinated(XState& xs) {
  // Prepare phase, first step: the coordinator cluster internally orders
  // the block under its own assignment.
  ConsensusValue v;
  v.kind = ConsensusValue::Kind::kXOrder;
  v.block = xs.block;
  v.block_digest = xs.digest;
  v.assignments = {xs.assignments[xs.block->id.alpha.shard]};
  engine_->Propose(v);
  ArmCrossTimer(xs);
}

void OrderingNode::SendXPrepare(const XState& xs) {
  auto prep = std::make_shared<XPrepareMsg>();
  prep->coord_cluster = cfg_.cluster_id;
  prep->block = xs.block;
  prep->block_digest = xs.digest;
  prep->coord_cert = xs.order_cert;
  prep->wire_bytes = 160 + xs.block->WireSize() + prep->coord_cert.WireSize();
  prep->sig_verify_ops = static_cast<uint16_t>(prep->coord_cert.sigs.size());
  MulticastToOtherClusters(xs, prep);
}

std::shared_ptr<XPreparedMsg> OrderingNode::MakeClusterPrepared(
    const XState& xs, const ShardAssignment* assignment) const {
  auto pd = std::make_shared<XPreparedMsg>();
  pd->from_cluster = cfg_.cluster_id;
  pd->block_digest = xs.digest;
  if (assignment != nullptr) {
    pd->has_assignment = true;
    pd->assignment = *assignment;
  }
  pd->is_cluster_cert = true;
  pd->cluster_cert = xs.order_cert;
  pd->wire_bytes = 160 + pd->cluster_cert.WireSize();
  pd->sig_verify_ops = static_cast<uint16_t>(pd->cluster_cert.sigs.size());
  return pd;
}

std::shared_ptr<XPreparedMsg> OrderingNode::MakeNodePrepared(
    const Sha256Digest& d, bool abort) const {
  auto pd = std::make_shared<XPreparedMsg>();
  pd->from_cluster = cfg_.cluster_id;
  pd->block_digest = d;
  pd->abort = abort;
  pd->sig = env()->keystore.Sign(id(), d);
  return pd;
}

std::shared_ptr<XCommitMsg> OrderingNode::MakeXCommit(
    const BlockPtr& block, const Sha256Digest& d,
    const CommitCertificate& cert, bool abort,
    const std::vector<ShardAssignment>& assignments) const {
  auto cm = std::make_shared<XCommitMsg>();
  if (abort) cm->type = MsgType::kXAbort;
  cm->coord_cluster = cfg_.cluster_id;
  cm->block = block;
  cm->block_digest = d;
  cm->coord_cert = cert;
  cm->is_abort = abort;
  cm->assignments = assignments;
  cm->wire_bytes = 128 + cert.WireSize() +
                   static_cast<uint32_t>(assignments.size()) * 48;
  cm->sig_verify_ops = static_cast<uint16_t>(cert.sigs.size());
  return cm;
}

void OrderingNode::OnXOrderDecided(uint64_t slot, const ConsensusValue& v) {
  // An XOrder decided again for a finished instance (a re-proposal that
  // raced the outcome) has nothing left to claim or send.
  XState* live = LiveState(v.block_digest);
  if (live == nullptr) return;
  XState& xs = *live;
  AdoptBlock(xs, v.block);
  for (const auto& a : v.assignments) {
    xs.assignments[a.alpha.shard] = a;
    if (a.cluster == cfg_.cluster_id) {
      own_pending_.insert(
          {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
    }
  }
  const Transaction& probe = v.block->txs.front();
  int coord = CoordinatorClusterOf(probe.collection, probe.shards);
  xs.i_coordinate = (coord == cfg_.cluster_id);
  xs.order_cert =
      MakeCert(slot, v.block_digest, ConsensusValue::Kind::kXOrder);
  xs.order_cert_known = true;

  if (xs.i_coordinate) {
    // Phase 1 done: the coordinator cluster agreed on the order. The
    // primary sends PREPARE (signed by local-majority: the commit
    // certificate of the internal consensus) to all involved clusters.
    xs.prepared_clusters.insert(cfg_.cluster_id);
    if (!engine_->IsPrimary()) return;
    SendXPrepare(xs);
    MaybeStartCommitPhase(xs);  // single-cluster edge case
    return;
  }

  // We are an involved (non-coordinator) cluster that internally ordered
  // the transaction on its own shard. The primary reports PREPARED with
  // the locally assigned ID to the coordinator cluster, and — for
  // cross-shard cross-enterprise transactions — to every cluster that
  // maintains the same data shard as us (§4.3.3).
  if (!engine_->IsPrimary()) return;
  auto pd = MakeClusterPrepared(
      xs, v.assignments.empty() ? nullptr : &v.assignments.front());
  Multicast(dir_->Cluster(coord).ordering, pd);
  if (xs.is_cross_enterprise && xs.is_cross_shard) {
    for (int c : xs.involved) {
      const ClusterConfig& cc = dir_->Cluster(c);
      if (c != cfg_.cluster_id && cc.shard == cfg_.shard) {
        Multicast(cc.ordering, pd);
      }
    }
  }
  ArmCrossTimer(xs);
}

void OrderingNode::HandleXPrepare(NodeId /*from*/, const XPrepareMsg& m) {
  const ClusterConfig& coord = dir_->Cluster(m.coord_cluster);
  // Validate provenance: a cluster-signed message from the coordinator.
  if (m.coord_cert.block_digest != m.block_digest ||
      m.block->Digest() != m.block_digest ||
      !m.coord_cert.ValidFrom(env()->keystore, dir_->params.CertQuorum(),
                              coord.ordering)) {
    env()->metrics.Inc("cross.bad_prepare");
    return;
  }
  XState* live = LiveState(m.block_digest);
  if (live == nullptr) return;
  XState& xs = *live;
  AdoptBlock(xs, m.block);
  const Transaction& probe = m.block->txs.front();
  xs.assignments[m.block->id.alpha.shard] = ShardAssignment{
      m.coord_cluster, m.block->id.alpha, m.block->id.gamma};
  ArmCrossTimer(xs);

  if (coord.shard == cfg_.shard) {
    // Same data shard as the coordinator (intra-shard cross-enterprise,
    // or the coordinator-shard replica in the cross-shard cross-
    // enterprise protocol): validate the ID and answer PREPARED with an
    // individual signature — no internal consensus needed (§4.3.1).
    const LocalPart& alpha = m.block->id.alpha;
    ShardRef ref{alpha.collection, alpha.shard};
    auto nack = [&]() {
      Send(coord.InitialPrimary(),
           MakeNodePrepared(m.block_digest, /*abort=*/true));
    };
    if (own_pending_.count({ref, alpha.n})) {
      // Our own cluster has an uncommitted block claiming this sequence
      // number (optimistic mode): refuse, so at most one coordinator can
      // assemble prepared evidence.
      env()->metrics.Inc("cross.conflict_nack");
      nack();
      return;
    }
    auto claim = validated_digest_.find({ref, alpha.n});
    if (claim != validated_digest_.end()) {
      if (claim->second != m.block_digest) {
        // Distinct from the live-rivalry nack above: the slot is already
        // endorsed for another block, so this claim arrived too late.
        env()->metrics.Inc("cross.conflict_stale");
        nack();
        return;
      }
      // Re-vote for the same block (retransmission) falls through.
    } else if (alpha.n <= CommittedHeadOf(alpha.collection)) {
      env()->metrics.Inc("cross.stale_prepare");
      nack();
      return;
    } else {
      validated_digest_[{ref, alpha.n}] = m.block_digest;
    }
    Send(coord.InitialPrimary(),
         MakeNodePrepared(m.block_digest, /*abort=*/false));
    return;
  }

  // Different shard: only the assigner cluster of this shard runs
  // consensus to assign its own ID (§4.3.2, §4.3.3); other enterprises'
  // clusters wait for the PREPARED of the same-shard assigner cluster.
  if (!IAmShardAssigner(probe.collection, coord.enterprise)) return;
  if (!engine_->IsPrimary()) return;
  if (xs.assign_proposed) {
    // Duplicate / re-driven PREPARE: never assign a second ⟨α, γ⟩ —
    // re-send the PREPARED if the first assignment already decided.
    auto mine = xs.assignments.find(cfg_.shard);
    if (xs.order_cert_known && mine != xs.assignments.end() &&
        mine->second.cluster == cfg_.cluster_id) {
      Multicast(coord.ordering, MakeClusterPrepared(xs, &mine->second));
    }
    return;
  }
  xs.assign_proposed = true;

  ConsensusValue v;
  v.kind = ConsensusValue::Kind::kXOrder;
  v.block = m.block;
  v.block_digest = m.block_digest;
  ShardAssignment mine;
  mine.cluster = cfg_.cluster_id;
  mine.alpha = NextAlpha(probe.collection);
  mine.gamma = CaptureGamma(probe.collection);
  v.assignments = {mine};
  engine_->Propose(v);
}

void OrderingNode::HandleXPrepared(NodeId from, const XPreparedMsg& m) {
  const ClusterConfig& sender = dir_->Cluster(m.from_cluster);
  // Provenance before the instance exists, so a message that fails it
  // leaves no live instance behind. A cluster-level PREPARED carries the
  // certificate of its cluster's internal consensus; an individual
  // validation (or abort) vote carries its sender's signature.
  if (m.is_cluster_cert) {
    if (!m.cluster_cert.ValidFrom(env()->keystore,
                                  dir_->params.CertQuorum(),
                                  sender.ordering)) {
      env()->metrics.Inc("cross.bad_prepared_cert");
      return;
    }
  } else if (!SignedByMember(from, m.from_cluster, m.sig, m.block_digest)) {
    env()->metrics.Inc("cross.bad_prepared_sig");
    return;
  }
  XState* live = LiveState(m.block_digest);
  if (live == nullptr) return;
  XState& xs = *live;

  if (m.is_cluster_cert) {
    if (m.has_assignment) {
      xs.assignments[m.assignment.alpha.shard] = m.assignment;
    }
    if (m.abort) {
      xs.prepared_clusters.clear();  // force abort path
    }
    xs.prepared_clusters.insert(m.from_cluster);
    xs.prepared_votes[m.from_cluster].Insert(from);

    // Cross-shard cross-enterprise: a non-initiator cluster that shares
    // the sender's shard validates the assignment and reports its own
    // PREPARED votes to the coordinator (§4.3.3).
    if (!xs.i_coordinate && xs.block != nullptr &&
        sender.shard == cfg_.shard && sender.enterprise != cfg_.enterprise) {
      int coord = CoordinatorClusterOf(xs.block->txs.front().collection,
                                       AllShards(xs));
      Send(dir_->Cluster(coord).InitialPrimary(),
           MakeNodePrepared(m.block_digest, /*abort=*/false));
    }
  } else {
    if (m.abort) {
      auto& nacks = xs.abort_votes[m.from_cluster];
      nacks.Insert(from);
      // f+1 abort votes guarantee one correct node rejected the ID.
      if (xs.i_coordinate && !xs.abort_started && !xs.commit_started &&
          nacks.size() >= static_cast<size_t>(dir_->params.f) + 1 &&
          engine_->IsPrimary()) {
        xs.abort_started = true;
        ConsensusValue v;
        v.kind = ConsensusValue::Kind::kXAbort;
        v.block = xs.block;
        v.block_digest = xs.digest;
        engine_->Propose(v);
      }
      return;
    }
    auto& votes = xs.prepared_votes[m.from_cluster];
    votes.Insert(from);
    if (votes.size() >= dir_->params.LocalMajority()) {
      xs.prepared_clusters.insert(m.from_cluster);
    }
  }
  if (xs.i_coordinate) MaybeStartCommitPhase(xs);
}

void OrderingNode::MaybeStartCommitPhase(XState& xs) {
  if (xs.commit_started || xs.abort_started || xs.done ||
      xs.block == nullptr) {
    return;
  }
  if (!engine_->IsPrimary()) return;
  // Every involved cluster must have prepared (the coordinator cluster
  // itself prepared when its internal consensus decided), and every
  // shard must have an assignment.
  for (int c : xs.involved) {
    if (!xs.prepared_clusters.count(c)) return;
  }
  if (!AllShardsAssigned(xs)) return;
  xs.commit_started = true;

  ConsensusValue v;
  v.kind = ConsensusValue::Kind::kXCommit;
  v.block = xs.block;
  v.block_digest = xs.digest;
  for (const auto& [shard, a] : xs.assignments) v.assignments.push_back(a);
  engine_->Propose(v);
}

void OrderingNode::OnXCommitDecided(uint64_t slot, const ConsensusValue& v,
                                    bool is_abort) {
  XState* live = LiveState(v.block_digest);
  if (live == nullptr) return;
  XState& xs = *live;
  xs.block = v.block;
  for (const auto& a : v.assignments) {
    xs.assignments[a.alpha.shard] = a;
  }

  CommitCertificate cert =
      MakeCert(slot, v.block_digest,
               is_abort ? ConsensusValue::Kind::kXAbort
                        : ConsensusValue::Kind::kXCommit);

  // The coordinator primary disseminates COMMIT to every node of all
  // involved clusters (§4.3.1).
  if (engine_->IsPrimary()) {
    auto cm = MakeXCommit(v.block, v.block_digest, cert, is_abort,
                          v.assignments);
    // §4.3.1: cross-enterprise COMMITs embed the prepared messages from
    // a local-majority of every involved cluster as evidence; receivers
    // verify them (charged via sig_verify_ops) and the wire grows.
    if (xs.is_cross_enterprise) {
      size_t evidence = dir_->params.LocalMajority() *
                        (xs.involved.size() > 0 ? xs.involved.size() - 1 : 0);
      cm->wire_bytes += static_cast<uint32_t>(evidence) * 20;
      cm->sig_verify_ops =
          static_cast<uint16_t>(cm->sig_verify_ops + evidence);
    }
    MulticastToOtherClusters(xs, cm);
  }
  CompleteCross(xs, cert, is_abort, /*reply_from_here=*/true);
}

void OrderingNode::HandleXCommit(NodeId /*from*/, const XCommitMsg& m) {
  const ClusterConfig& coord = dir_->Cluster(m.coord_cluster);
  if (m.coord_cert.block_digest != m.block_digest ||
      !m.coord_cert.ValidFrom(env()->keystore, dir_->params.CertQuorum(),
                              coord.ordering)) {
    env()->metrics.Inc("cross.bad_commit");
    return;
  }
  XState* live = LiveState(m.block_digest);
  if (live == nullptr) return;
  XState& xs = *live;
  xs.block = m.block;
  if (m.is_abort) {
    // Release the slot claims so a replacement block can reuse the
    // sequence numbers — but only the aborted block's own endorsements;
    // after a §4.3.5 arbitration a slot entry may already belong to the
    // rival winner.
    for (const auto& a : m.assignments) {
      Slot slot{ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      auto claim = validated_digest_.find(slot);
      if (claim != validated_digest_.end() &&
          claim->second == m.block_digest) {
        validated_digest_.erase(claim);
      }
    }
  } else {
    for (const auto& a : m.assignments) {
      xs.assignments[a.alpha.shard] = a;
    }
  }
  CompleteCross(xs, m.coord_cert, m.is_abort, /*reply_from_here=*/false);
}

}  // namespace qanaat
