#ifndef QANAAT_CONSENSUS_PBFT_H_
#define QANAAT_CONSENSUS_PBFT_H_

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "consensus/engine.h"
#include "consensus/messages.h"

namespace qanaat {

/// Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI'99) over a
/// cluster of n = 3f+1 ordering nodes, used as Qanaat's internal consensus
/// for Byzantine clusters (paper §4.1).
///
/// Normal case: PRE-PREPARE (primary) → PREPARE (all) → COMMIT (all);
/// a slot is prepared with 2f matching PREPAREs + the PRE-PREPARE, and
/// committed-local with 2f+1 matching COMMITs. Slots deliver in order.
///
/// View change: a replica that suspects the primary (slot deadline passes
/// before commit) broadcasts VIEW-CHANGE carrying its prepared proofs;
/// the new primary collects 2f+1, broadcasts NEW-VIEW re-proposing every
/// prepared slot, and timeouts double on consecutive failures (§4.3.4).
/// Pipelining and in-order delivery are InternalConsensus's.
class PbftEngine : public InternalConsensus {
 public:
  PbftEngine(EngineContext ctx, int f, SimTime base_timeout_us);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void SuspectPrimary() override;
  void OnHostRecover() override;

  bool IsPrimary() const override {
    return ctx_.cluster[view_ % ClusterSize()] == ctx_.self;
  }
  NodeId PrimaryNode() const override {
    return ctx_.cluster[view_ % ClusterSize()];
  }
  ViewNo view() const override { return view_; }
  size_t Quorum() const override { return 2 * static_cast<size_t>(f_) + 1; }
  std::vector<Signature> CommitProof(uint64_t slot) const override;

  uint64_t view_changes() const { return view_change_count_; }

  /// Byzantine-primary fault injection: when set, PRE-PREPAREs are
  /// equivocated (different digests to different replicas), which correct
  /// replicas must resolve via view change.
  void SetEquivocate(bool e) override { equivocate_ = e; }

  bool HasSlotState(uint64_t slot) const override {
    return slots_.count(slot) > 0;
  }

 protected:
  bool MayStartSlot() const override { return !in_view_change_; }
  void StartSlot(uint64_t slot, const ConsensusValue& v) override;
  const ConsensusValue* ClaimDecided(uint64_t slot,
                                     Sha256Digest* digest) override;
  /// PBFT retransmits nothing by itself: without the fill protocol
  /// (FillGap) a stalled node would permanently shrink the live quorum.
  void WatchFrontier() override;
  void GarbageCollectBelow(uint64_t slot) override;
  void ResumeAfterInstall() override { fill_stalls_ = 0; }
  SimTime OnDeadlines(SimTime now) override;

 private:
  struct SlotState {
    ViewNo view = 0;
    ConsensusValue value;
    Sha256Digest digest;
    bool have_preprepare = false;
    VoteSet prepares;  // matching digest only
    VoteSet commits;
    bool prepared = false;
    bool committed = false;
    bool delivered = false;
    SimTime deadline = kNoDeadline;  // suspect the primary if uncommitted
    // Memoized ConsensusSignable for this slot, keyed (view, digest):
    // one derivation serves the pre-prepare signature, the self-prepare,
    // every vote verification and the commit signature; a view change or
    // an equivocating digest misses and recomputes.
    SignableCache signable;
  };

  void HandlePrePrepare(NodeId from, const PrePrepareMsg& m);
  void HandlePrepare(NodeId from, const PrepareMsg& m);
  void HandleCommit(NodeId from, const CommitMsg& m);
  void HandleViewChange(NodeId from, const ViewChangeMsg& m);
  void HandleNewView(NodeId from, const NewViewMsg& m);
  void HandleFillRequest(NodeId from, const FillRequestMsg& m);
  void HandleFillReply(NodeId from, const FillReplyMsg& m);
  /// At the gap deadline: ask a peer for the decided slots.
  void FillGap();
  /// Sets the view-fetch deadline while messages for a future view are
  /// buffering: the NEW-VIEW that would install it never arrived (it was
  /// sent while this replica was crashed or partitioned, and nothing
  /// retransmits it). At the deadline, FetchView asks a peer to re-serve
  /// the latest NEW-VIEW it processed.
  void MaybeFetchView();
  void FetchView();
  /// The next other cluster member in `*rr`'s round-robin order.
  NodeId NextPeer(int* rr);

  /// Verifies `sig` over ConsensusSignable(view, slot, digest) without
  /// creating slot state: uses the slot's memo when the slot exists,
  /// otherwise derives once into *fresh (the caller seeds the memo after
  /// it creates the slot, so the following sign is a hit).
  bool VerifyVote(const Signature& sig, ViewNo view, uint64_t slot,
                  const Sha256Digest& digest, SlotState* st,
                  Sha256Digest* fresh);

  void MaybePrepared(uint64_t slot, SlotState& st);
  void MaybeCommitted(uint64_t slot, SlotState& st);
  void ArmSlotTimer(SlotState& st);
  void StartViewChange(ViewNo target, bool lone_suspicion);
  void SendPrePrepare(uint64_t slot, SlotState& st);

  Sha256Digest SignableDigest(ViewNo v, uint64_t slot,
                              const Sha256Digest& value_digest) const;

  int f_;
  ViewNo view_ = 0;
  // Gap deadline, and the frontier it was set at.
  SimTime gap_deadline_ = kNoDeadline;
  uint64_t gap_mark_ = 0;
  int fill_rr_ = 0;              // round-robin peer cursor for fills
  /// Consecutive gap-fill rounds without frontier progress. Fills that
  /// target slots a peer already garbage-collected can never be served
  /// per slot; after a few dry rounds the engine asks the host for full
  /// state transfer instead of spinning forever.
  int fill_stalls_ = 0;
  uint64_t view_change_count_ = 0;
  bool in_view_change_ = false;
  bool equivocate_ = false;
  // Slot states live in a flat hash map — per-message handlers touch a
  // slot several times, and runs accumulate tens of thousands of slots.
  // The rare paths that need slots in order (view change) gather and
  // sort the keys so emitted message contents keep the exact order the
  // ordered map produced.
  std::unordered_map<uint64_t, SlotState> slots_;
  // View-change bookkeeping: new_view -> sender -> message
  std::map<ViewNo, std::map<NodeId, std::shared_ptr<const ViewChangeMsg>>>
      view_changes_rcvd_;
  // Targets this node voted for -> escalation deadline: if the view has
  // not installed by then, vote for the next one — without it, lost
  // VIEW-CHANGE votes wedge the cluster forever.
  std::map<ViewNo, SimTime> view_change_voted_;
  // New-primary side: targets we already built and broadcast a NEW-VIEW
  // for (one per target — extra votes beyond the quorum must not rebuild
  // it with a different reproposal set).
  std::set<ViewNo> new_view_sent_;
  // Replica side: highest NEW-VIEW actually processed; re-deliveries of
  // the same view (duplicated or rebuilt) are ignored instead of
  // resetting in-flight slots again.
  ViewNo last_new_view_processed_ = 0;
  // Messages for views we have not installed yet (a NEW-VIEW and the new
  // primary's first pre-prepares can arrive reordered); replayed after
  // the view installs.
  std::vector<std::pair<NodeId, MessageRef>> future_msgs_;
  // Latest NEW-VIEW processed (or built, on the primary), retained so
  // any peer can re-serve it to a view-wedged replica: the message is
  // self-certifying (signed by its view's primary).
  std::shared_ptr<const NewViewMsg> last_new_view_msg_;
  SimTime view_fetch_deadline_ = kNoDeadline;
  ViewNo view_fetch_target_ = 0;
  int view_fetch_rr_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_PBFT_H_
