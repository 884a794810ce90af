#ifndef QANAAT_BASELINES_FABRIC_H_
#define QANAAT_BASELINES_FABRIC_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "baselines/fabric_messages.h"
#include "collections/data_model.h"
#include "consensus/batcher.h"
#include "common/histogram.h"
#include "sim/network.h"
#include "workload/smallbank.h"

namespace qanaat {

/// Which Hyperledger Fabric variant a baseline deployment models (§5).
enum class FabricVariant : uint8_t {
  kFabric = 0,     // v2.2, execute-order-validate, Raft ordering
  kFabricPP = 1,   // Fabric++: intra-block reordering + early abort
  kFastFabric = 2, // FastFabric: hash-to-orderer, separated storage
};

struct FabricConfig {
  int enterprises = 4;
  FabricVariant variant = FabricVariant::kFabric;
  int orderers = 3;  // Raft ordering service
  int batch_size = 100;
  SimTime batch_timeout_us = 2000;
  uint64_t seed = 1;
};

class FabricPeer;
class FabricOrderer;
class FabricClient;

/// A single-channel Hyperledger Fabric deployment model: one committing
/// (and endorsing) peer per enterprise and a Raft ordering service shared
/// by everyone. Models exactly the structural properties the paper's
/// comparison rests on:
///  * every transaction — including the hash of private-collection
///    transactions — passes through one ordering service (the
///    bottleneck, §5.1) and every peer's ledger;
///  * execute-order-validate concurrency: endorsement pins read
///    versions, MVCC validation at commit invalidates stale reads
///    (the contention collapse of §5.7);
///  * Fabric++ reorders transactions within a block to resolve r-w
///    conflicts and early-aborts w-w conflicts;
///  * FastFabric submits only transaction hashes to ordering and
///    pipelines commit on separated storage.
class FabricSystem {
 public:
  explicit FabricSystem(FabricConfig cfg);
  ~FabricSystem();

  Env& env() { return *env_; }
  Network& net() { return *net_; }
  const FabricConfig& config() const { return cfg_; }
  const DataModel& model() const { return model_; }

  FabricClient* AddClient(WorkloadParams wl, double rate_tps);

  FabricPeer* peer(int enterprise) { return peers_[enterprise].get(); }
  FabricOrderer* orderer(int i) { return orderers_[i].get(); }
  NodeId leader_id() const;
  std::vector<NodeId> peer_ids() const;

  uint64_t TotalMeasuredCommits() const;
  /// Committed transactions over the whole run (not just the window).
  uint64_t TotalCommitted() const;
  uint64_t TotalInvalidated() const;
  Histogram MergedLatencies() const;

  const std::vector<std::unique_ptr<FabricPeer>>& peers() const {
    return peers_;
  }
  const std::vector<std::unique_ptr<FabricClient>>& clients() const {
    return clients_;
  }
  int orderer_count() const { return static_cast<int>(orderers_.size()); }

 private:
  FabricConfig cfg_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Network> net_;
  DataModel model_;
  Directory client_dir_;  // single-shard view for the workload generator
  std::vector<std::unique_ptr<FabricPeer>> peers_;
  std::vector<std::unique_ptr<FabricOrderer>> orderers_;
  std::vector<std::unique_ptr<FabricClient>> clients_;
};

/// Committing + endorsing peer of one enterprise.
class FabricPeer : public Actor {
 public:
  FabricPeer(Env* env, FabricSystem* sys, const DataModel* model,
             EnterpriseId enterprise);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;

  uint64_t valid_txs() const { return valid_txs_; }
  uint64_t invalid_txs() const { return invalid_txs_; }
  uint64_t hashed_txs() const { return hashed_txs_; }

  /// Content digest of every block this peer applied, by block number —
  /// the cross-peer agreement surface the chaos auditor checks.
  const std::map<uint64_t, Sha256Digest>& block_log() const {
    return block_log_;
  }
  /// Next block number this peer will apply (applied prefix is gapless).
  uint64_t next_block_to_apply() const { return next_block_; }

 protected:
  SimTime CostOf(const Message& msg) const override;

 private:
  static constexpr uint64_t kTagCatchup = 1;
  /// Block catch-up: the peer polls the ordering service for blocks at
  /// or above its application frontier this often (and immediately on
  /// detecting a gap in the delivered stream), so a block lost on the
  /// wire does not wedge it.
  static constexpr SimTime kCatchupPeriod = 100 * kMillisecond;

  void HandleEndorse(NodeId from, const EndorseReqMsg& m);
  /// Admission: the ordering service's stream is consumed in block-number
  /// order. Duplicates are dropped and out-of-order deliveries (datagram
  /// transport artifacts under fault injection) are buffered until their
  /// predecessors arrive. A buffered successor whose predecessor was
  /// lost (not merely reordered) triggers an immediate catch-up fetch.
  void HandleBlock(const MessageRef& msg);
  /// Asks the ordering service for blocks >= next_block_. Sent on gap
  /// detection and on the periodic poll; the orderer answers only when
  /// it has something newer, so a current peer costs one tiny message
  /// per period.
  void RequestMissingBlocks();
  void ApplyBlock(const OrderedBlockMsg& m);
  /// Fabric++ intra-block reordering: returns the validation order and
  /// flags transactions early-aborted on w-w conflicts.
  std::vector<size_t> ReorderBlock(const std::vector<EndorsedTx>& txs,
                                   std::vector<bool>* early_abort) const;

  FabricSystem* sys_;
  const DataModel* model_;
  EnterpriseId enterprise_;
  // Committed value/version per (collection, key).
  std::map<std::pair<uint16_t, uint64_t>, std::pair<int64_t, uint64_t>>
      state_;
  // In-order admission of ordered blocks (see HandleBlock).
  uint64_t next_block_ = 1;
  std::map<uint64_t, std::shared_ptr<const OrderedBlockMsg>> held_blocks_;
  /// Grace marker for gap-triggered fetches: a predecessor that is
  /// merely reordered arrives within a delivery or two, so only a gap
  /// that persists across consecutive block arrivals triggers an
  /// immediate fetch (the periodic poll is the backstop).
  bool had_gap_ = false;
  std::map<uint64_t, Sha256Digest> block_log_;
  // Valid-committed transaction ids; a second valid commit of the same id
  // is a safety violation surfaced via the fabric.safety.double_commit
  // metric.
  std::set<std::pair<NodeId, uint64_t>> committed_ids_;
  uint64_t valid_txs_ = 0;
  uint64_t invalid_txs_ = 0;
  uint64_t hashed_txs_ = 0;
};

/// One node of the Raft ordering service. Node 0 is the leader; the
/// leader batches endorsed transactions, replicates the batch to a
/// majority of orderers, then delivers the block to every peer.
class FabricOrderer : public Actor {
 public:
  FabricOrderer(Env* env, FabricSystem* sys, int index);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;
  void OnCrash() override { batcher_.Reset(); }

  uint64_t ordered_txs() const { return ordered_txs_; }
  uint64_t early_aborted() const { return early_aborted_; }
  bool IsLeader() const;

 protected:
  SimTime CostOf(const Message& msg) const override;

 private:
  static constexpr uint64_t kTagBatch = 1;
  /// Raft append retransmission: the leader re-sends AppendEntries for a
  /// block that has not reached a majority yet. Without it one lost
  /// append under network-wide loss wedges the ordering service forever
  /// (that block never delivers, and peers hold everything after it).
  static constexpr uint64_t kTagRaftRetry = 2;
  /// Batcher flush sink: cuts the block and replicates it via Raft.
  void CloseBatch(std::vector<EndorsedTx> txs);
  void SendAppend(uint64_t index);

  /// Serves a peer's catch-up fetch from the retained block log.
  void HandleBlockFetch(NodeId from, const BlockFetchReqMsg& m);

  /// Request dedup on the leader: at-most-once ordering per (client, ts)
  /// even when the transport duplicates submissions.
  std::set<std::pair<NodeId, uint64_t>> seen_submits_;
  /// Delivered blocks retained for peer catch-up (the ordering service's
  /// block store; peers fetch missed ranges from here). Each periodic
  /// fetch reports the peer's application frontier, so the store is
  /// trimmed below the slowest peer once every peer has reported —
  /// bounded retention instead of the whole ordered history.
  std::map<uint64_t, std::shared_ptr<const std::vector<EndorsedTx>>>
      block_store_;
  std::map<NodeId, uint64_t> peer_frontier_;
  /// Fabric++ early abort: the orderer tracks the last block that wrote
  /// each key; a submission whose read versions are already stale is
  /// dropped at a fraction of the ordering cost, freeing capacity for
  /// fresh transactions (the mechanism behind §5.7's 58%-vs-91% gap).
  bool IsStale(const EndorsedTx& etx) const;

  FabricSystem* sys_;
  int index_;
  /// Block cutting (size- or timeout-triggered), shared with Qanaat's
  /// ordering layer so batching comparisons stay apples-to-apples. The
  /// single channel is one flow (key 0).
  Batcher<EndorsedTx, int> batcher_;
  std::map<std::pair<uint16_t, uint64_t>, uint64_t> last_write_block_;
  uint64_t early_aborted_ = 0;
  uint64_t next_block_ = 1;
  // Replication bookkeeping: block index -> acks.
  std::map<uint64_t, std::set<NodeId>> acks_;
  std::map<uint64_t, std::shared_ptr<const std::vector<EndorsedTx>>>
      inflight_;
  std::set<uint64_t> delivered_;
  uint64_t ordered_txs_ = 0;
};

/// Open-loop Fabric client machine: endorse -> submit -> await the
/// validation outcome from its enterprise's peer. Invalidated
/// transactions count as failed (they do not contribute throughput).
class FabricClient : public Actor {
 public:
  FabricClient(Env* env, FabricSystem* sys,
               std::unique_ptr<SmallBankWorkload> workload, double rate_tps,
               uint64_t seed);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;

  void Start(SimTime start, SimTime stop, SimTime measure_from,
             SimTime measure_to);

  uint64_t issued() const { return issued_; }
  uint64_t committed() const { return committed_; }
  uint64_t invalidated() const { return invalidated_; }
  uint64_t measured_commits() const { return measured_commits_; }
  const Histogram& latencies() const { return latencies_; }

 private:
  struct PendingTx {
    SimTime sent_at = 0;
    EndorsedTx etx;
    size_t endorsements_needed = 0;
    bool submitted = false;
    bool done = false;
  };
  static constexpr uint64_t kTagIssue = 1;

  void IssueNext();

  FabricSystem* sys_;
  std::unique_ptr<SmallBankWorkload> workload_;
  double rate_tps_;
  Rng rng_;
  SimTime stop_at_ = 0, measure_from_ = 0, measure_to_ = 0;
  uint64_t next_ts_ = 1;
  std::map<uint64_t, PendingTx> pending_;
  uint64_t issued_ = 0, committed_ = 0, invalidated_ = 0;
  uint64_t measured_commits_ = 0;
  Histogram latencies_;

 protected:
  /// Client machines aggregate many hosts; token message cost.
  SimTime CostOf(const Message& /*msg*/) const override { return 2; }
};

}  // namespace qanaat

#endif  // QANAAT_BASELINES_FABRIC_H_
