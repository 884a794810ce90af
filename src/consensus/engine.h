#ifndef QANAAT_CONSENSUS_ENGINE_H_
#define QANAAT_CONSENSUS_ENGINE_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consensus/messages.h"
#include "consensus/value.h"
#include "sim/env.h"
#include "sim/message.h"
#include "sim/watchdog.h"

namespace qanaat {

/// Per-slot vote bookkeeping (node -> signature). Vote sets are tiny
/// (bounded by cluster size) and sit on the per-message hot path, so a
/// sorted flat vector replaces the std::map it grew from; iteration stays
/// in ascending NodeId order, byte-identical to the tree it replaced
/// (commit proofs and fill replies serialize votes in that order).
class VoteSet {
 public:
  /// Inserts or overwrites `node`'s vote.
  void Put(NodeId node, const Signature& sig) {
    // One up-front reservation covers any realistic cluster: the grow-
    // from-empty doubling showed up as ~200k vector reallocations per
    // fig7-style run (two vote sets per slot per replica).
    if (votes_.capacity() == 0) votes_.reserve(8);
    auto it = std::lower_bound(
        votes_.begin(), votes_.end(), node,
        [](const std::pair<NodeId, Signature>& v, NodeId n) {
          return v.first < n;
        });
    if (it != votes_.end() && it->first == node) {
      it->second = sig;
      return;
    }
    votes_.insert(it, {node, sig});
  }

  size_t size() const { return votes_.size(); }
  bool empty() const { return votes_.empty(); }
  void clear() { votes_.clear(); }
  /// Entries in ascending NodeId order.
  const std::vector<std::pair<NodeId, Signature>>& entries() const {
    return votes_;
  }

 private:
  std::vector<std::pair<NodeId, Signature>> votes_;
};

/// Sorted small-vector of slot numbers (or node ids): the flat form of
/// the std::set both engines used for pipeline accounting and vote
/// membership. Insertions are near-append in steady state (slots open in
/// ascending order), membership is a binary search, and iteration stays
/// ascending — byte-identical to the tree it replaced wherever emitted
/// message contents depend on the order.
template <typename T>
class SortedVec {
 public:
  /// Inserts `v` if absent; returns true when newly inserted.
  bool Insert(T v) {
    if (vals_.empty() || vals_.back() < v) {  // common append path
      vals_.push_back(v);
      return true;
    }
    auto it = std::lower_bound(vals_.begin(), vals_.end(), v);
    if (it != vals_.end() && *it == v) return false;
    vals_.insert(it, v);
    return true;
  }
  bool Erase(T v) {
    auto it = std::lower_bound(vals_.begin(), vals_.end(), v);
    if (it == vals_.end() || *it != v) return false;
    vals_.erase(it);
    return true;
  }
  /// Drops every element <= bound (GC below a stable checkpoint).
  void EraseUpTo(T bound) {
    auto it = std::upper_bound(vals_.begin(), vals_.end(), bound);
    vals_.erase(vals_.begin(), it);
  }
  bool Contains(T v) const {
    return std::binary_search(vals_.begin(), vals_.end(), v);
  }
  size_t size() const { return vals_.size(); }
  bool empty() const { return vals_.empty(); }
  void clear() { vals_.clear(); }
  typename std::vector<T>::const_iterator begin() const {
    return vals_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return vals_.end(); }

 private:
  std::vector<T> vals_;
};

/// Memoized consensus signable for one slot. Every PBFT sign *and*
/// verify needs ConsensusSignable(view, slot, value_digest); within a
/// slot the (view, digest) pair is stable across the whole
/// pre-prepare/prepare/commit exchange, so one derivation serves the
/// pre-prepare signature, the self-prepare, every vote verification and
/// the commit signature. The cache is keyed by (view, digest): a view
/// change or an equivocating digest misses and recomputes, so a stale
/// view's signable can never be served for a newer view's signature.
class SignableCache {
 public:
  const Sha256Digest& Get(ViewNo view, uint64_t slot,
                          const Sha256Digest& value_digest) {
    if (!valid_ || view_ != view || slot_ != slot ||
        !(for_digest_ == value_digest)) {
      signable_ = ConsensusSignable(view, slot, value_digest);
      view_ = view;
      slot_ = slot;
      for_digest_ = value_digest;
      valid_ = true;
    }
    return signable_;
  }

  /// Installs an externally computed signable (e.g. one derived for a
  /// signature check before the slot state existed), so the immediately
  /// following sign over the same (view, slot, digest) is a hit.
  void Seed(ViewNo view, uint64_t slot, const Sha256Digest& value_digest,
            const Sha256Digest& signable) {
    view_ = view;
    slot_ = slot;
    for_digest_ = value_digest;
    signable_ = signable;
    valid_ = true;
  }

 private:
  bool valid_ = false;
  ViewNo view_ = 0;
  uint64_t slot_ = 0;
  Sha256Digest for_digest_;
  Sha256Digest signable_;
};

/// Callbacks wiring a consensus engine into its hosting actor (an
/// ordering node). The engine itself is transport-agnostic; the host
/// forwards consensus messages into OnMessage and provides send/timer
/// primitives.
struct EngineContext {
  Env* env = nullptr;
  NodeId self = kInvalidNode;
  /// Ordering nodes of this cluster, in fixed index order (primary of
  /// view v = cluster[v % cluster.size()]).
  std::vector<NodeId> cluster;
  int self_index = 0;

  /// Round pipelining: maximum slots the primary may have in flight
  /// (proposed but not yet committed) at once. Further proposals queue
  /// inside the engine and start as earlier slots commit. 0 = unbounded.
  size_t pipeline_depth = 0;

  /// Certified checkpoints: every `checkpoint_interval` delivered slots a
  /// replica broadcasts a signed CHECKPOINT vote over its history digest;
  /// a quorum of matching votes makes the checkpoint stable, garbage-
  /// collecting per-slot consensus state and anchoring state transfer.
  /// 0 disables checkpointing.
  size_t checkpoint_interval = 0;

  /// Host hook: the engine learned — from a stable checkpoint certificate
  /// — that the cluster's certified frontier lies beyond this replica's,
  /// or its per-slot fills stalled below a peer's GC floor. The host
  /// should fetch ledger state from a peer and then feed the certificate
  /// it received back through InstallCheckpoint.
  std::function<void(const CheckpointCertificate&)> request_state_transfer;

  std::function<void(NodeId, MessageRef)> send;
  /// Multicast to every *other* ordering node of the cluster.
  std::function<void(MessageRef)> broadcast;
  /// StartTimer(delay, tag, payload) on the host actor; fires
  /// engine->OnTimer.
  std::function<void(SimTime, uint64_t, uint64_t)> start_timer;
  /// Delivered exactly once per slot, in slot order.
  std::function<void(uint64_t slot, const ConsensusValue&)> deliver;
  /// Invoked when the local node moves to a new view (after NEW-VIEW).
  std::function<void(ViewNo view, NodeId new_primary)> on_view_change;
};

/// Names of an engine's pipeline metrics. Each engine keeps its own
/// (`pbft.*`, `paxos.*`), so counters read the same under either.
struct PipelineMetricNames {
  std::string not_primary;    // Propose called on a non-primary
  std::string queued;         // proposal queued behind the pipeline
  std::string queue_dropped;  // queued proposals dropped on leader change
};

/// Pluggable intra-cluster consensus (paper §4.1): PBFT when the cluster
/// declares the Byzantine failure model, Multi-Paxos when crash-only.
///
/// The two engines differ only in their rounds and their leader change;
/// how a leader queues, pipelines and delivers slots lives here, once.
///
/// Pipelining: the primary keeps up to `ctx.pipeline_depth` slots in
/// flight (proposed but not yet decided), each in its own round
/// exchange; proposals beyond the cap — or arriving while the engine may
/// not start a slot (PBFT mid view change, Paxos before its phase-1
/// completes) — queue here and start as earlier slots decide. Slots
/// still *deliver* strictly in order, so pipelined rounds overlap network
/// latency without reordering execution. Queued proposals are dropped
/// when leadership moves (clients recover them by retransmitting to the
/// new primary). 0 = unbounded.
class InternalConsensus {
 public:
  InternalConsensus(EngineContext ctx, SimTime base_timeout_us,
                    PipelineMetricNames metric_names)
      : ctx_(std::move(ctx)),
        base_timeout_(base_timeout_us),
        watchdog_(&ctx_.env->sim, kTagWatchdog, ctx_.start_timer),
        metric_names_(std::move(metric_names)) {}
  virtual ~InternalConsensus() = default;

  /// Primary-side: order `v`. No-op with a warning metric if called on a
  /// non-primary.
  void Propose(const ConsensusValue& v);

  /// Feed a consensus protocol message from `from`.
  virtual void OnMessage(NodeId from, const MessageRef& msg) = 0;

  /// Timer callback relayed by the host (tags >= kEngineTimerBase).
  void OnTimer(uint64_t tag, uint64_t payload) {
    if (tag == kTagWatchdog && watchdog_.Fire(payload)) {
      watchdog_.ArmBy(OnDeadlines(Now()));
    }
  }

  /// Host recovery notification: the watchdog timer died with the crash
  /// epoch, so re-arm it one timeout out (see Watchdog::Rearm).
  virtual void OnHostRecover() { watchdog_.Rearm(Now() + base_timeout_); }

  /// External suspicion hook: the host observed the primary failing to
  /// make progress on work it is responsible for (e.g. a relayed client
  /// request that never showed up in a proposal). PBFT casts a view-change
  /// vote; Paxos performs a ballot takeover. Default: ignore.
  virtual void SuspectPrimary() {}

  /// Byzantine-ordering fault injection: while enabled, a primary engine
  /// equivocates its proposals (divergent digests to disjoint replica
  /// subsets). Only meaningful for Byzantine-model engines; crash-model
  /// engines ignore it (an equivocating node is outside their fault
  /// model, exactly like the paper's assumption).
  virtual void SetEquivocate(bool /*on*/) {}

  virtual bool IsPrimary() const = 0;
  virtual NodeId PrimaryNode() const = 0;
  virtual ViewNo view() const = 0;

  /// Signatures from the local quorum proving a slot committed; used by
  /// the cross-cluster protocols to build cluster-signed messages
  /// ("signed by local-majority", §4.3).
  virtual std::vector<Signature> CommitProof(uint64_t slot) const = 0;

  /// Number of matching votes that constitutes a local-majority.
  virtual size_t Quorum() const = 0;

  /// Highest slot this node has delivered (consensus progress counter;
  /// hosts use it to distinguish a dead primary from a parked request).
  uint64_t LastDelivered() const { return last_delivered_; }

  /// Slots this node proposed that have not yet decided (primary side;
  /// bounded by ctx_.pipeline_depth when that is non-zero).
  size_t InFlight() const { return my_open_slots_.size(); }
  /// Proposals waiting behind the pipeline-depth cap.
  size_t QueuedProposals() const { return propose_queue_.size(); }

  // ---- certified checkpoints (shared by both engines) -----------------

  /// Latest stable checkpoint (slot 0 = none yet): a quorum attested the
  /// first `slot` slots delivered with history digest `digest`.
  const CheckpointCertificate& stable_checkpoint() const { return stable_; }
  /// Highest slot whose per-slot consensus state was garbage-collected
  /// (always == stable_checkpoint().slot: GC happens only at stability,
  /// never below a merely-proposed checkpoint).
  uint64_t gc_floor() const { return gc_floor_; }
  /// Running history digest over every delivered slot's value digest.
  const Sha256Digest& history_digest() const { return ckpt_history_; }

  /// Test/audit surface: is per-slot state for `slot` still retained?
  virtual bool HasSlotState(uint64_t) const { return false; }

  /// Installs a verified stable checkpoint, called by the host after it
  /// fetched and installed the corresponding ledger state from a peer.
  /// Verifies the certificate (quorum of distinct valid signatures),
  /// advances the delivery frontier past the certified slot when behind,
  /// and garbage-collects. Returns false on an invalid certificate.
  bool InstallCheckpoint(const CheckpointCertificate& cert);

  static constexpr uint64_t kEngineTimerBase = 1u << 20;
  static constexpr uint64_t kTagWatchdog = kEngineTimerBase;

 protected:
  size_t ClusterSize() const { return ctx_.cluster.size(); }
  SimTime Now() const { return ctx_.env->sim.now(); }

  // ---- slot pipeline (shared by both engines) ------------------------

  /// Engine hook: may the primary start a slot now? (PBFT: not in a view
  /// change; Paxos: phase-1 complete.) Otherwise proposals queue.
  virtual bool MayStartSlot() const = 0;
  /// Engine hook: run the first round for `v` in the freshly opened
  /// `slot` (already counted in flight).
  virtual void StartSlot(uint64_t slot, const ConsensusValue& v) = 0;
  /// Engine hook: if `slot` is decided and not yet delivered, mark it
  /// delivered, store its value digest in *digest and return its value
  /// (read before the engine runs again); nullptr otherwise.
  virtual const ConsensusValue* ClaimDecided(uint64_t slot,
                                             Sha256Digest* digest) = 0;
  /// Engine hook, after every delivery pass: arm the gap deadline when a
  /// decided slot sits beyond an undelivered frontier (the frontier
  /// slot's messages were lost, and nothing retransmits them).
  virtual void WatchFrontier() = 0;

  bool AtPipelineCap() const {
    return ctx_.pipeline_depth > 0 &&
           my_open_slots_.size() >= ctx_.pipeline_depth;
  }
  /// Starts queued proposals while the engine may and the cap allows.
  void DrainProposeQueue();
  /// Leadership moved: queued proposals were accepted under a leader that
  /// no longer drives them, and re-proposing them later could duplicate
  /// what an interim leader committed (clients retransmit instead).
  void DropProposeQueue();
  /// `slot` decided: it leaves the open set and raises max_decided_.
  void NoteDecided(uint64_t slot);
  /// Delivers every decided slot at the frontier, in slot order.
  void DeliverReady();

  /// Feeds a CHECKPOINT message: a carried certificate is processed
  /// directly; a vote is verified and tallied toward stability.
  void HandleCheckpoint(NodeId from, const CheckpointMsg& m);

  /// CFT engines authenticate with MACs: checkpoint votes then charge no
  /// signature verification at the receiver.
  virtual bool CheapCheckpointAuth() const { return false; }
  /// Engine hook: drop per-slot consensus state at or below `slot`.
  virtual void GarbageCollectBelow(uint64_t slot) = 0;
  /// Engine hook: an installed checkpoint moved the delivery frontier and
  /// the deliveries it unblocked ran; queued proposals drain next.
  virtual void ResumeAfterInstall() {}
  /// Watchdog firing: acts on every deadline expired by `now` and returns
  /// the earliest one left.
  virtual SimTime OnDeadlines(SimTime now) = 0;

  EngineContext ctx_;
  SimTime base_timeout_;  // consensus timeout before backoff
  /// The engine's one timer: every timeout is a deadline on the state it
  /// guards (a slot, a gap, a view change or takeover in progress).
  Watchdog watchdog_;

  uint64_t next_slot_ = 1;  // primary's next proposal slot
  uint64_t last_delivered_ = 0;
  uint64_t max_decided_ = 0;  // highest slot decided locally
  /// Slots this node proposed (or re-drove) that have not decided yet,
  /// and proposals queued behind the pipeline-depth cap.
  SortedVec<uint64_t> my_open_slots_;
  std::deque<ConsensusValue> propose_queue_;

 private:
  /// Opens the next slot and hands it to StartSlot.
  void OpenSlot(const ConsensusValue& v);
  /// Folds a delivered slot into the history digest; at interval
  /// boundaries broadcasts a CHECKPOINT vote (and self-tallies it).
  void NoteDelivered(uint64_t slot, const Sha256Digest& value_digest);

  /// Single-entry memo for CheckpointSignable(slot, digest): votes for
  /// one boundary arrive in a burst (own sign + one verify per peer), so
  /// the same signable is derived N+1 times per interval without it.
  const Sha256Digest& CkptSignableFor(uint64_t slot,
                                      const Sha256Digest& digest);

  void RecordCheckpointVote(uint64_t slot, const Sha256Digest& digest,
                            const Signature& sig);
  /// A stable certificate appeared (own tally, a peer's carried cert, or
  /// a promise): adopt + GC if at/below our frontier, otherwise ask the
  /// host for state transfer.
  void ProcessStable(const CheckpointCertificate& cert);
  void AdoptStable(const CheckpointCertificate& cert);

  Sha256Digest ckpt_history_;
  /// Our own history digest at each interval boundary we delivered.
  std::map<uint64_t, Sha256Digest> ckpt_own_;
  struct CkptTally {
    Sha256Digest digest;
    VoteSet votes;
  };
  std::map<uint64_t, std::vector<CkptTally>> ckpt_votes_;
  CheckpointCertificate stable_;
  uint64_t gc_floor_ = 0;
  bool ckpt_signable_valid_ = false;
  uint64_t ckpt_signable_slot_ = 0;
  Sha256Digest ckpt_signable_for_;
  Sha256Digest ckpt_signable_;
  PipelineMetricNames metric_names_;
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_ENGINE_H_
