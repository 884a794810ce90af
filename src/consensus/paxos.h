#ifndef QANAAT_CONSENSUS_PAXOS_H_
#define QANAAT_CONSENSUS_PAXOS_H_

#include <unordered_map>

#include "consensus/engine.h"
#include "consensus/messages.h"

namespace qanaat {

/// Multi-Paxos over a cluster of n = 2f+1 crash-only nodes, used as
/// Qanaat's internal consensus for crash clusters (paper §4.1: "a crash
/// fault-tolerant protocol, e.g., (Multi-)Paxos").
///
/// Steady state (leader elected): ACCEPT (leader) → ACCEPTED (followers)
/// → LEARN (leader, after f+1 including itself). Leader failure is
/// handled by ballot takeover with a full phase-1: the usurper broadcasts
/// PREPARE, collects promises from a quorum — each carrying the accepted
/// values above the usurper's delivery frontier — adopts the
/// highest-ballot value per slot, fills never-accepted holes with no-ops,
/// and re-drives. The quorum-intersection argument of single-decree Paxos
/// then guarantees a chosen value is never overwritten; skipping phase-1
/// (as a naive "bump the ballot and re-send" takeover does) lets two
/// replicas learn different values for one slot — a divergence the chaos
/// harness reproduces deterministically. Messages are MAC-authenticated
/// (no signature verification cost). Pipelining and in-order delivery
/// are InternalConsensus's.
class PaxosEngine : public InternalConsensus {
 public:
  PaxosEngine(EngineContext ctx, int f, SimTime base_timeout_us);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void SuspectPrimary() override;

  bool IsPrimary() const override {
    return ctx_.cluster[ballot_ % ClusterSize()] == ctx_.self;
  }
  NodeId PrimaryNode() const override {
    return ctx_.cluster[ballot_ % ClusterSize()];
  }
  ViewNo view() const override { return ballot_; }
  size_t Quorum() const override { return static_cast<size_t>(f_) + 1; }
  /// Crash nodes don't sign; cross-enterprise messages from crash
  /// clusters sign at the sending node instead. Returns an empty proof.
  std::vector<Signature> CommitProof(uint64_t) const override { return {}; }

  /// Phase-1 complete for the current ballot (we may drive slots).
  bool leading() const { return leading_; }

  bool HasSlotState(uint64_t slot) const override {
    return slots_.find(slot) != slots_.end();
  }

 protected:
  /// CFT clusters authenticate with MACs; checkpoint votes are free to
  /// verify like every other Paxos message.
  bool CheapCheckpointAuth() const override { return true; }
  bool MayStartSlot() const override { return leading_; }
  void StartSlot(uint64_t slot, const ConsensusValue& v) override;
  const ConsensusValue* ClaimDecided(uint64_t slot,
                                     Sha256Digest* digest) override;
  /// No slot timer exists for a slot we never heard of, so a gap is
  /// closed by a takeover: phase-1 promises carry every accepted value
  /// above our frontier.
  void WatchFrontier() override;
  void GarbageCollectBelow(uint64_t slot) override;
  /// A takeover parked behind the transfer can finish now.
  void ResumeAfterInstall() override;
  SimTime OnDeadlines(SimTime now) override;

 private:
  struct SlotState {
    uint64_t ballot = 0;
    ConsensusValue value;
    Sha256Digest digest;
    bool have_value = false;
    SortedVec<NodeId> accepted;
    // A LEARN that overtook its ACCEPT (reordered delivery): remembered
    // here and consumed when the value arrives, instead of being lost.
    bool learn_pending = false;
    Sha256Digest learn_digest;
    bool learned = false;
    bool delivered = false;
    SimTime deadline = kNoDeadline;  // take over if still unlearned
  };

  void HandleAccept(NodeId from, const PaxosAcceptMsg& m);
  void HandleAccepted(NodeId from, const PaxosAcceptedMsg& m);
  void HandleLearn(NodeId from, const PaxosLearnMsg& m);
  void HandlePrepare(NodeId from, const PaxosPrepareMsg& m);
  void HandlePromise(NodeId from, const PaxosPromiseMsg& m);
  // Handlers thread the SlotState& they already hold (one hash lookup
  // per message) instead of re-looking the slot up in every helper.
  void ArmSlotTimer(SlotState& st);
  /// At the takeover deadline: re-solicit promises if phase-1 stalled.
  void RetryTakeover();
  void MarkLearned(uint64_t slot, SlotState& st);
  /// Ballot takeover phase-1: claim a ballot we own and solicit promises.
  void TakeOver();
  /// Phase-1 quorum reached: adopt gathered values, fill holes with
  /// no-ops, re-drive everything undelivered.
  void FinishTakeover();
  void MergeGathered(uint64_t slot, uint64_t ballot, const ConsensusValue& v,
                     const Sha256Digest& digest);
  void BroadcastAccept(uint64_t slot, const SlotState& st);
  /// Adopts a higher observed ballot; drops leadership and the propose
  /// queue when that moves leadership away from this node.
  void ObserveBallot(uint64_t b);

  int f_;
  uint64_t ballot_ = 0;
  /// Highest ballot promised: never accept or promise below it.
  uint64_t promised_ = 0;
  /// Phase-1 complete for ballot_ with us as leader. The initial leader
  /// (index 0, ballot 0) starts leading: there is no history to gather.
  bool leading_ = false;
  // Frontier stuck while later slots learned: the missing slot's
  // messages are gone (nothing retransmits them), so at this deadline take
  // over — the phase-1 promises carry every accepted value above our
  // frontier. The mark is the frontier it was set at.
  SimTime gap_deadline_ = kNoDeadline;
  uint64_t gap_mark_ = 0;
  SimTime takeover_deadline_ = kNoDeadline;  // see RetryTakeover
  /// A promise revealed a stable checkpoint beyond our frontier: the
  /// takeover must wait for host state transfer — finishing phase-1 now
  /// would no-op-fill slots the quorum has garbage-collected, and those
  /// fills can never gather acks from delivered replicas.
  uint64_t awaiting_transfer_ = 0;
  // Slot states live in a flat hash map, mirroring PBFT's treatment:
  // every message touches its slot a few times and long runs accumulate
  // tens of thousands of slots, where the ordered map paid a pointer-
  // chasing tree walk per touch. The rare paths that need slots in order
  // (promise assembly, takeover re-drive) gather and sort, so emitted
  // message contents keep the exact order the ordered map produced.
  std::unordered_map<uint64_t, SlotState> slots_;
  // Phase-1 state for ballot_ (valid while !leading_ and we own ballot_).
  SortedVec<NodeId> promises_;
  std::unordered_map<uint64_t, PaxosAcceptedSlot> gathered_;
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_PAXOS_H_
