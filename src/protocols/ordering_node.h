#ifndef QANAAT_PROTOCOLS_ORDERING_NODE_H_
#define QANAAT_PROTOCOLS_ORDERING_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/batcher.h"
#include "consensus/engine.h"
#include "consensus/messages.h"
#include "firewall/executor_core.h"
#include "protocols/context.h"
#include "protocols/cross_messages.h"
#include "common/flat_map.h"
#include "protocols/request_table.h"
#include "sim/network.h"
#include "sim/watchdog.h"

namespace qanaat {

/// An ordering node of one Qanaat cluster.
///
/// Responsibilities (paper §4):
///  * receive client requests, batch them per flow (target collection +
///    shard set) into blocks, assign ⟨α, γ⟩ IDs (§4.1);
///  * run the pluggable internal consensus (PBFT / Multi-Paxos);
///  * drive or participate in the cross-cluster protocols, either
///    coordinator-based (§4.3) or flattened (§4.4);
///  * hand committed blocks to execution: through the privacy firewall
///    (Byzantine, separated), or executing in place (crash clusters and
///    Byzantine clusters without separation), and route replies;
///  * failure handling: commit-query / prepared-query and view-change
///    triggering (§4.3.4, §4.4.4).
class OrderingNode : public Actor {
 public:
  OrderingNode(Env* env, const Directory* dir, const DataModel* model,
               int cluster_id, int index);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;
  void OnCrash() override;
  void OnRecover() override;
  /// Byzantine-ordering fault injection (chaos corpus): forwards to the
  /// internal consensus engine, which equivocates while enabled.
  void SetEquivocating(bool on) override { engine_->SetEquivocate(on); }

  const ClusterConfig& cluster() const { return cfg_; }
  InternalConsensus* engine() { return engine_.get(); }
  const ExecutorCore& exec_core() const { return exec_; }
  bool IsPrimary() const { return engine_->IsPrimary(); }

  uint64_t committed_blocks() const { return committed_blocks_; }
  uint64_t committed_txs() const { return committed_txs_; }
  uint64_t aborted_blocks() const { return aborted_blocks_; }

  /// Auditor surface: request ids (client, client timestamp) of the
  /// transactions that lost a §4.3.5 digest-priority arbitration here and
  /// were re-queued for re-proposal. The chaos auditor checks that each
  /// eventually commits exactly once on some winning block.
  const std::set<std::pair<NodeId, uint64_t>>& arbitration_loser_txs() const {
    return arbitration_loser_txs_;
  }
  /// Cross instances not yet committed or aborted here. Between
  /// handlers xstates_ holds live instances only: a finished one has
  /// moved to its outcome record.
  size_t live_cross_instances() const { return xstates_.size(); }
  /// Outcome records of finished cross instances, kept for §4.3.4 query
  /// answering.
  size_t finished_cross_instances() const { return finished_.size(); }

 private:
  friend class QanaatSystem;

  // Key of a batching flow: all requests of a flow execute on the same
  // collection and shard set, so they can share a block.
  struct FlowKey {
    CollectionId collection;
    std::vector<ShardId> shards;
    bool operator<(const FlowKey& o) const {
      if (collection != o.collection) return collection < o.collection;
      return shards < o.shards;
    }
  };

  // Cross-cluster protocol state for one in-flight block.
  struct XState {
    BlockPtr block;
    Sha256Digest digest;
    std::vector<int> involved;          // involved cluster ids (sorted)
    bool is_cross_enterprise = false;
    bool is_cross_shard = false;
    bool i_coordinate = false;          // we are in the coordinator cluster
    bool pinned = false;                // txs held in pending_cross_ here
    // Assignments collected per shard (keyed by shard id).
    std::map<ShardId, ShardAssignment> assignments;
    // Vote tallies are keyed by cluster and hold the engines' flat vote
    // types, which iterate in ascending NodeId order: a certificate
    // built from them serializes the same on every node.
    // Coordinator-side prepared bookkeeping: cluster -> voters.
    FlatMap<int, SortedVec<NodeId>> prepared_votes;
    FlatMap<int, SortedVec<NodeId>> abort_votes;
    std::set<int> prepared_clusters;
    bool commit_started = false;
    bool abort_started = false;
    // Flattened bookkeeping: cluster -> signed votes.
    FlatMap<int, VoteSet> accepts;
    FlatMap<int, VoteSet> commit_votes;
    // Per-shard assignment endorsements carried on commit votes: keyed
    // by the claimed sequence number, with the endorsing nodes. Commit
    // adopts the variant a local-majority of the assigner cluster backs —
    // a node's own belief may be a stale self-assignment from a crashed
    // life, and committing under it diverges the shared chain.
    FlatMap<ShardId,
            FlatMap<SeqNo, std::pair<ShardAssignment, SortedVec<NodeId>>>>
        assignment_votes;
    bool sent_accept = false;
    bool sent_commit = false;
    // A fast-path FCommit that overtook its FPropose (reordered
    // delivery): held until the block arrives, then replayed.
    std::shared_ptr<const FCommitMsg> pending_fast_commit;
    NodeId pending_fast_commit_from = kInvalidNode;
    // Outcome evidence, moved into the instance's XOutcome record once
    // it finishes.
    CommitCertificate outcome_cert;
    bool outcome_known = false;
    bool outcome_abort = false;
    // kXOrder evidence (coordinator family), kept so a timed-out
    // initiator can re-drive its PREPARE and an assigner can re-send its
    // PREPARED without running consensus again.
    CommitCertificate order_cert;
    bool order_cert_known = false;
    bool assign_proposed = false;
    bool done = false;
    // Cross timeout (§4.3.4): re-drive / query the outcome if the
    // instance is still live by then (kNoDeadline: not watched).
    SimTime deadline = kNoDeadline;
    int retries = 0;
  };

  // What a finished cross instance keeps: exactly what a §4.3.4 commit
  // query is answered with, so a node stalled on a lost commit can
  // recover from any node that has the certified outcome. An instance
  // finished without one (an arbitration loser) is answered as pending.
  struct XOutcome {
    BlockPtr block;
    CommitCertificate cert;
    bool certified = false;
    bool abort = false;
    std::vector<ShardAssignment> assignments;  // ascending shard
  };

  static constexpr uint64_t kTagBatch = 1;
  static constexpr uint64_t kTagRetry = 2;
  static constexpr uint64_t kTagStateSync = 3;
  static constexpr uint64_t kTagWatchdog = 4;

  // ---- request intake / batching
  void HandleRequest(NodeId from, const RequestMsg& m);
  /// Marks every transaction of a value observed in a consensus proposal
  /// (pre-prepare, Paxos accept, view-change proof) as seen, so a client
  /// retransmission racing a view change cannot get the same transaction
  /// batched into a second block by the new primary.
  void ObserveProposedValue(const ConsensusValue& v);
  /// Same for a block observed in a cross-cluster proposal (FPropose /
  /// XPrepare): those never pass through internal consensus at every
  /// node, so without this a retransmission during an in-flight cross
  /// instance could be batched into a second block.
  void ObserveProposedBlock(const BlockPtr& block);
  /// A primary may admit fresh intake only from a caught-up state: while
  /// a state sync is pending or committed blocks sit deferred, this
  /// node's permanent at-most-once record (committed_requests_) is
  /// incomplete, and admitting a retransmission whose commit we have not
  /// learned yet re-orders it into a duplicate block.
  bool IntakeGated() const;
  /// Sets a progress deadline for a request relayed to the primary: if no
  /// proposal containing it is observed in time, suspect the primary —
  /// otherwise a primary that crashed with nothing in flight is never
  /// suspected and the cluster ignores new requests forever.
  void WatchRelayedRequest(const Transaction& tx);
  /// Batcher flush sink: seals the batch into a block and hands it to
  /// internal consensus (intra-cluster) or a cross-cluster protocol.
  void OnBatchClosed(const FlowKey& key, std::vector<Transaction> txs,
                     BatchClose why);
  BlockPtr MakeBlock(const FlowKey& key, std::vector<Transaction> txs,
                     uint32_t attempt = 0);
  std::vector<GammaEntry> CaptureGamma(const CollectionId& c) const;
  LocalPart NextAlpha(const CollectionId& c);
  SeqNo StateOfCollection(const CollectionId& c) const;
  /// The gaplessly-committed head of our shard's chain (what staleness
  /// checks must compare against; state_ may run ahead of it when
  /// cross-shard commits of different flows arrive out of order).
  SeqNo CommittedHeadOf(const CollectionId& c) const;

  // ---- internal consensus plumbing
  void OnDecide(uint64_t slot, const ConsensusValue& v);
  CommitCertificate MakeCert(uint64_t slot, const Sha256Digest& digest,
                             ConsensusValue::Kind kind);

  // ---- commit & execution path (shared by all protocols)
  void CommitBlock(const BlockPtr& block, CommitCertificate cert,
                   const LocalPart& alpha, std::vector<GammaEntry> gamma,
                   bool reply_from_here);
  void OnExecutedReply(const ExecutorCore::ExecResult& res);
  void ForwardReplyCert(const MessageRef& msg);
  static std::vector<ShardId> AllShards(const XState& xs);

  // ---- cross-cluster: the instance skeleton both families share
  /// Starts a cross instance at the initiator cluster: defers the block
  /// on a §4.3.2 shard conflict, otherwise reserves its shards, adopts
  /// it with this cluster's own assignment and runs the family's first
  /// round (OpenCoordinated / OpenFlattened).
  void StartCross(const BlockPtr& block);
  /// Records the block an instance orders and what it involves.
  void AdoptBlock(XState& xs, const BlockPtr& block);
  /// Ends an instance with its certified outcome: keeps the outcome for
  /// §4.3.4 queries, appends a committed block under this cluster's
  /// assignment, and finishes the instance.
  void CompleteCross(XState& xs, const CommitCertificate& cert, bool abort,
                     bool reply_from_here);
  /// Fan-out to every node of every involved cluster except this one.
  void SendToInvolved(const XState& xs, const MessageRef& m);
  /// Fan-out to every involved cluster except our own.
  void MulticastToOtherClusters(const XState& xs, const MessageRef& m);
  void SendExceptSelf(const std::vector<NodeId>& nodes, const MessageRef& m);
  /// Provenance of a signed vote: `from` is an ordering node of
  /// `cluster` and signed `signable` itself.
  bool SignedByMember(NodeId from, int cluster, const Signature& sig,
                      const Sha256Digest& signable) const;
  /// Every shard the block touches has a known ⟨α, γ⟩ assignment.
  static bool AllShardsAssigned(const XState& xs);
  /// A local-majority of votes in `tally` from every involved cluster.
  bool QuorumFromEveryInvolved(const XState& xs,
                               const FlatMap<int, VoteSet>& tally) const;

  // ---- cross-cluster: shared helpers
  bool IsCross(const FlowKey& key) const;
  std::vector<int> InvolvedClusters(const CollectionId& c,
                                    const std::vector<ShardId>& shards) const;
  int CoordinatorClusterOf(const CollectionId& c,
                           const std::vector<ShardId>& shards) const;
  /// Is this cluster the one that assigns ⟨α, γ⟩ for its shard of
  /// collection c? In designated mode the per-shard designated
  /// enterprise assigns (one assigner per chain); in optimistic mode the
  /// initiator enterprise's clusters do (paper §4.3.3 verbatim).
  bool IAmShardAssigner(const CollectionId& c,
                        EnterpriseId initiator_enterprise) const;
  /// The instance for `d`, created on first sight. A retired digest
  /// reopens as a done view of its outcome record (a re-decided XOrder,
  /// say), folded back into the record when the handler returns.
  XState& StateFor(const Sha256Digest& d);
  /// The instance for `d` while it is live, created on first sight;
  /// nullptr once it finished, in this handler or an earlier one (its
  /// outcome record answers for it then). Message handlers check
  /// provenance first, so a message that fails it creates no instance.
  XState* LiveState(const Sha256Digest& d);
  /// Moves every instance finished in this handler into its outcome
  /// record. Runs when a handler returns, never inside FinishCross:
  /// callers hold XState references across nested calls (HandleFPropose
  /// replays a held FCommit, then reads `done`).
  void RetireFinished();
  /// True if `block` intersects an active *or already-deferred*
  /// cross-shard block in >= 2 shards (§4.3.2). Deferred blocks count so
  /// a later block of the same flow cannot overtake an earlier one and
  /// gap the chain.
  bool HasCrossShardConflict(const BlockPtr& block,
                             const std::vector<ShardId>& shards) const;
  void FinishCross(XState& xs, bool committed);
  /// §4.3.5 loser re-proposal: after `winner` commits, aborts every live
  /// rival instance claiming one of the winner's slots with a different
  /// digest. The abort path funnels the loser's transactions into the
  /// retry machinery (still pinned in pending_cross_), so re-admission
  /// stays exactly-once.
  void RequeueArbitrationLosers(const XState& winner);
  void ArmCrossTimer(XState& xs);
  void RunRetry(uint64_t token);
  /// Timed-out initiator/coordinator primary re-drives an unfinished
  /// cross instance (re-sends PREPARE / PROPOSE); receivers answer with
  /// idempotent re-votes. Without this, one lost vote strands the
  /// instance and holes its chain's sequence numbers forever.
  void RedriveCross(XState& xs);
  /// Re-sends this node's accept (and commit) votes for an instance it
  /// already voted on — the duplicate-propose path of a re-drive.
  void ResendCrossVotes(XState& xs);

  // ---- coordinator-based family (ordering_coordinator.cc)
  void OpenCoordinated(XState& xs);
  void SendXPrepare(const XState& xs);
  /// PREPARED carrying this cluster's XOrder certificate (and the
  /// assignment it decided, if any).
  std::shared_ptr<XPreparedMsg> MakeClusterPrepared(
      const XState& xs, const ShardAssignment* assignment) const;
  /// PREPARED carrying this node's own signature: a validation vote, or
  /// a nack when `abort`.
  std::shared_ptr<XPreparedMsg> MakeNodePrepared(const Sha256Digest& d,
                                                 bool abort) const;
  void OnXOrderDecided(uint64_t slot, const ConsensusValue& v);
  void OnXCommitDecided(uint64_t slot, const ConsensusValue& v,
                        bool is_abort);
  void HandleXPrepare(NodeId from, const XPrepareMsg& m);
  void HandleXPrepared(NodeId from, const XPreparedMsg& m);
  void HandleXCommit(NodeId from, const XCommitMsg& m);
  void MaybeStartCommitPhase(XState& xs);

  // ---- flattened family (ordering_flattened.cc)
  void OpenFlattened(XState& xs);
  void SendFPropose(const XState& xs);
  /// This node's ACCEPT, announcing `announce` (a primary's own-shard
  /// assignment) when non-null.
  std::shared_ptr<FAcceptMsg> MakeFAccept(
      const XState& xs, const ShardAssignment* announce) const;
  /// This node's COMMIT vote, carrying every known assignment.
  std::shared_ptr<FCommitMsg> MakeFCommit(const XState& xs) const;
  void HandleFPropose(NodeId from, const FProposeMsg& m);
  void HandleFAccept(NodeId from, const FAcceptMsg& m);
  void HandleFCommit(NodeId from, const FCommitMsg& m);
  void SendFAccept(XState& xs);
  void MaybeSendFCommit(XState& xs);
  /// Counts `from`'s commit vote and the assignments it endorses.
  void TallyFCommit(XState& xs, NodeId from, const FCommitMsg& m);
  void MaybeFCommitDone(XState& xs);
  bool FlattenedCftFastPath(const XState& xs) const;

  // ---- failure handling
  /// Watchdog firing: acts on every expired host deadline (executor
  /// wedge, exec push, relayed-request progress, cross instance) and
  /// re-arms for the earliest one left.
  void OnDeadlines();
  void HandleQuery(NodeId from, const QueryMsg& m);

  // ---- checkpointed state transfer (recovery path)
  /// Arms the one-shot state-sync timer (deduped while pending): the
  /// entry point for the recovery hook and the engine's transfer
  /// requests.
  void ScheduleStateSync(SimTime delay);
  /// Sends a StateRequest (chain heads + consensus frontier) to the next
  /// peer in round-robin order — any replica can serve, primary or not.
  void SendStateRequest();
  /// Serves this replica's ledger plus its stable checkpoint.
  void HandleStateRequest(NodeId from, const StateRequestMsg& m);
  /// Installs the transferred entries (ExecutorCore::InstallTransferred)
  /// with this host's dedup and γ-capture bookkeeping, then the
  /// checkpoint.
  void HandleStateReply(NodeId from, const StateReplyMsg& m);
  /// Re-pushes recently committed blocks through the firewall when this
  /// node becomes primary: the previous primary may have crashed between
  /// committing and forwarding, and execution nodes cannot fill the gap
  /// themselves (the wiring only lets them talk to the top filter row).
  void ReplayExecPushes();
  /// Sets the executor-wedge deadline while committed blocks sit
  /// deferred: a block whose chain predecessor was lost for good (e.g. a
  /// cross-cluster commit this node missed while crashed or partitioned
  /// — completed instances are never retransmitted) wedges the ledger at
  /// a point the consensus engine cannot see. If a full cross-timeout
  /// passes with deferred blocks and zero ledger growth, state transfer
  /// fetches the missing predecessors from a peer.
  void MaybeWatchExecWedge();

  /// Cost model hook: client requests are MAC-authenticated on crash
  /// clusters and signature-verified on Byzantine ones; the privacy
  /// firewall adds per-request body-encryption overhead.
  SimTime CostOf(const Message& msg) const override;

  const Directory* dir_;
  const DataModel* model_;
  ClusterConfig cfg_;
  int index_;
  std::unique_ptr<InternalConsensus> engine_;
  ExecutorCore exec_;

  Batcher<Transaction, FlowKey> batcher_;
  FlatMap<CollectionId, SeqNo> state_;  // committed state (γ capture)
  FlatMap<CollectionId, SeqNo> next_seq_;
  // One slot of a shared chain: (collection shard, sequence number).
  using Slot = std::pair<ShardRef, SeqNo>;
  /// The slot-claim maps below are only looked up, never iterated, so a
  /// hashed container cannot leak an order into the protocol.
  struct SlotHash {
    size_t operator()(const Slot& s) const {
      uint64_t members = s.first.collection.members.mask();
      uint64_t ref = (members << 32) | static_cast<uint64_t>(s.first.shard);
      return static_cast<size_t>(Mix64(Mix64(ref) ^ s.second));
    }
  };
  // Validated slot claims on incoming cross-cluster IDs: which block
  // digest this node endorsed for each (chain, n). Re-votes for the same
  // digest are idempotent; a different digest claiming the same slot is
  // a conflict (nack). Aborts erase the claim so a replacement block can
  // take the slot. Keyed by digest rather than a watermark so pipelined
  // prepares tolerate out-of-order delivery.
  std::unordered_map<Slot, Sha256Digest, SlotHash> validated_digest_;
  // Commit-vote lock (§4.3.5 arbitration safety): the one digest this
  // node has commit-voted for each slot. An endorsement may switch to a
  // lower rival digest while the slot is merely accepted, but never after
  // the commit vote — without the lock, two commit-vote majorities for
  // different digests could assemble inside one cluster. Released only by
  // a matching abort.
  std::unordered_map<Slot, Sha256Digest, SlotHash> commit_locked_;
  // (chain, n) assignments our own cluster currently has in flight. A
  // node never endorses a remote block claiming a sequence number its
  // own cluster is still trying to commit (optimistic-mode safety,
  // §4.3.5) — until both claims are digest-comparable, at which point
  // the lower digest wins deterministically.
  std::set<Slot> own_pending_;
  // Transactions that lost a digest-priority arbitration (see
  // RequeueArbitrationLosers); kept for the chaos auditor's
  // eventual-commit invariant.
  std::set<std::pair<NodeId, uint64_t>> arbitration_loser_txs_;
  // Request identity (client, client timestamp) for dedup bookkeeping.
  // These maps sit on the per-request hot path, so they are hashed flat
  // containers rather than ordered trees; nothing iterates them in key
  // order.
  using RequestId = std::pair<NodeId, uint64_t>;
  /// Block digests are uniform SHA-256 output; their first 8 bytes are a
  /// ready-made hash for the flat cross-state containers.
  struct DigestHash {
    size_t operator()(const Sha256Digest& d) const {
      return static_cast<size_t>(d.Prefix64());
    }
  };
  // Requests this node itself admitted to its batcher (primary intake
  // dedup), with the admission time. An intake entry EXPIRES
  // (SeenRecently) with the same window as observation dedup: a
  // transaction stranded in this node's own abandoned proposal (e.g.
  // lost on the wire before preparing) can be recovered by client
  // retransmission to the same primary, instead of only via another node
  // taking over leadership. Expired entries are purged periodically so
  // the map is bounded by the intake rate times the window.
  RequestTable seen_requests_;
  // ...and requests observed in someone else's proposal, promise, fill
  // or a delivered block, with the observation time. Kept separate: a
  // batch is filtered against observations at close, which drops a
  // retransmitted transaction that a previous primary already got
  // ordered — without dropping the batch's own fresh intake. An
  // observation EXPIRES (ObservedRecently) so a transaction whose
  // proposal was abandoned (e.g. no-op-filled by a view change before
  // preparing) can be retried by client retransmission instead of being
  // blacklisted forever; committed_requests_ is the permanent record.
  RequestTable observed_requests_;
  RequestTable committed_requests_;
  /// The one shared expiry predicate both dedup maps use.
  bool RecentlyIn(const RequestTable& m, const RequestId& id) const;
  bool ObservedRecently(const RequestId& id) const;
  /// Committed, recently admitted here, or recently observed in a
  /// proposal — the per-request intake (and watchdog) dedup predicate.
  bool IsDuplicateRequest(const RequestId& id) const;
  /// The shared dedup window: how long an in-flight proposal could still
  /// legitimately commit (internal rounds plus a full re-driven cross
  /// instance).
  SimTime DedupWindowUs() const;
  /// Amortized sweep of expired intake/observation entries (at most once
  /// per window), so both maps stay bounded under sustained load.
  void MaybePurgeDedup();
  // Requests inside a cross block this node is actively driving — held in
  // a deferred queue, a live locally-initiated instance, or a scheduled
  // retry. These do NOT expire with the dedup window: the cross timer
  // re-drives an instance indefinitely, so "presumed abandoned" is never
  // true while the instance is live, and admitting a retransmission past
  // the window would commit the same request twice (once in the stalled
  // block once it finally lands, once in the fresh one). Reference
  // counted because a transaction can sit in two overlapping holders
  // during a hand-off (e.g. an aborted instance and its retry block).
  std::map<RequestId, int> pending_cross_;
  void PinCross(const BlockPtr& block);
  void UnpinCross(const BlockPtr& block);
  SimTime last_dedup_purge_ = 0;
  // Progress check for a relayed request: if neither the request is
  // observed in a proposal nor any slot delivers by the deadline, the
  // primary is suspected. The delivery baseline distinguishes a dead
  // primary from a request parked for a legitimate reason (deferred
  // cross-shard conflict, stalled cross instance). Every check waits the
  // same timeout, so the queue is in deadline order.
  struct ProgressCheck {
    std::pair<NodeId, uint64_t> id;
    int tries = 0;
    uint64_t delivered_at_arm = 0;
    SimTime deadline = kNoDeadline;
  };
  std::deque<ProgressCheck> progress_checks_;
  // Live cross instances (plus, until the handler returns, those it
  // finished), so the deadline and per-commit loser scans touch live
  // ones only, not the whole run's history.
  std::unordered_map<Sha256Digest, XState, DigestHash> xstates_;
  // Every finished instance's outcome record: it answers §4.3.4 commit
  // queries.
  std::unordered_map<Sha256Digest, XOutcome, DigestHash> finished_;
  // Instances finished (or reopened) during the current handler, for
  // RetireFinished.
  std::vector<Sha256Digest> finishing_;
  // Blocks whose client replies this cluster owns (initiator side).
  std::unordered_set<Sha256Digest, DigestHash> reply_owner_;
  // Reply cache for retransmissions: block digest -> cert msg.
  std::unordered_map<Sha256Digest, std::shared_ptr<const ReplyCertMsg>,
                     DigestHash>
      reply_cache_;
  /// Request identities are small sequential integers; mix both halves.
  struct RequestIdHash {
    size_t operator()(const RequestId& r) const {
      return static_cast<size_t>(
          Mix64(Mix64(static_cast<uint64_t>(r.first)) ^ r.second));
    }
  };
  // Which cached certificate answers a retransmitted request: (client,
  // client timestamp) -> block digest. A request carried by several
  // certified blocks maps to the lowest digest, so the answer does not
  // depend on arrival order.
  std::unordered_map<RequestId, Sha256Digest, RequestIdHash> reply_index_;
  // Serialization of conflicting cross-shard blocks (paper §4.3.2: no two
  // concurrent transactions may intersect in >= 2 shards).
  struct DeferredCross {
    BlockPtr block;
  };
  std::vector<DeferredCross> deferred_cross_;
  // Iterated only for an order-independent overlap test, so a flat map
  // is safe.
  std::unordered_map<Sha256Digest, std::vector<ShardId>, DigestHash>
      active_cross_;
  std::map<uint64_t, std::pair<BlockPtr, int>> retry_blocks_;
  uint64_t next_retry_ = 0;

  // State-sync bookkeeping: one pending request at a time, peers picked
  // round-robin so non-primary replicas serve just as often.
  bool state_sync_pending_ = false;
  int state_sync_rr_ = 0;
  // Executor-wedge deadline and the ledger size it was set at (see
  // MaybeWatchExecWedge).
  SimTime exec_wedge_deadline_ = kNoDeadline;
  size_t exec_ledger_at_arm_ = 0;
  // Committed-but-possibly-unforwarded ExecOrder messages (separated
  // execution only). Backups keep each one under an evidence deadline:
  // if no reply certificate for the block comes back down the firewall
  // within a cross-timeout, the primary's push is presumed lost (it may
  // have been crashed at commit time — cross-cluster commits need no
  // live primary) and the backup pushes itself. A view change replays
  // everything immediately. Execution-side dedup absorbs duplicates.
  // Every entry waits the same timeout, so the queue is in deadline
  // order.
  struct PendingExecPush {
    std::shared_ptr<ExecOrderMsg> msg;
    int tries = 0;
    SimTime deadline = kNoDeadline;
  };
  std::deque<PendingExecPush> pending_exec_push_;

  // The host's one watchdog timer, armed for the earliest deadline above.
  Watchdog watchdog_;

  uint64_t committed_blocks_ = 0;
  uint64_t committed_txs_ = 0;
  uint64_t aborted_blocks_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_ORDERING_NODE_H_
