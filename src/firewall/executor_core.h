#ifndef QANAAT_FIREWALL_EXECUTOR_CORE_H_
#define QANAAT_FIREWALL_EXECUTOR_CORE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "collections/data_model.h"
#include "consensus/messages.h"
#include "ledger/dag_ledger.h"
#include "ledger/transaction.h"
#include "protocols/context.h"
#include "sim/env.h"
#include "store/mvstore.h"

namespace qanaat {

/// Deterministic execution engine for one cluster's data shard:
/// maintains the DAG ledger and the multi-versioned stores of every
/// collection the enterprise is involved in (this cluster's shard of
/// each), executes committed blocks in order, and resolves reads of
/// order-dependent collections at exactly the γ-captured version
/// (paper §4.2).
///
/// Used by execution nodes (Byzantine clusters with separation) and by
/// ordering nodes when ordering and execution are co-located (crash
/// clusters, or Byzantine clusters without the privacy firewall).
class ExecutorCore {
 public:
  struct ExecResult {
    BlockPtr block;
    Sha256Digest result_digest;
    size_t tx_count = 0;
    /// (client machine, client timestamp) per transaction, for replies.
    std::vector<std::pair<NodeId, uint64_t>> clients;
    /// Simulated CPU time consumed executing the block.
    SimTime cpu_cost = 0;
  };
  using ExecCallback = std::function<void(const ExecResult&)>;

  ExecutorCore(Env* env, const DataModel* model, EnterpriseId enterprise,
               ShardId shard);

  /// Submits a committed block for in-order execution. The block runs
  /// once its chain predecessor has run and every γ dependency on a
  /// matching shard is locally committed; otherwise it waits. `on_done`
  /// fires synchronously when the block executes (possibly during a later
  /// Submit that unblocks it).
  Status Submit(BlockPtr block, CommitCertificate cert,
                const LocalPart& alpha_here, std::vector<GammaEntry> gamma,
                ExecCallback on_done);

  const DagLedger& ledger() const { return ledger_; }
  const MvStore& StoreOf(const CollectionId& c) const;
  MvStore* MutableStoreOf(const CollectionId& c);

  /// State-identity surface for the chaos auditor: the fingerprint of
  /// this shard's store of collection `c` (0 when never written).
  uint64_t StateFingerprintOf(const CollectionId& c) const {
    return StoreOf(c).Fingerprint();
  }

  EnterpriseId enterprise() const { return enterprise_; }
  ShardId shard() const { return shard_; }
  uint64_t executed_blocks() const { return executed_blocks_; }
  uint64_t executed_txs() const { return executed_txs_; }
  size_t pending_blocks() const { return waiting_.size(); }

  // ---- ledger state transfer (served and installed the same way by
  // ordering nodes and firewall-side execution nodes)

  /// A StateRequest carrying this ledger's per-chain heads.
  std::shared_ptr<StateRequestMsg> MakeStateRequest(uint64_t frontier,
                                                    NodeId requester) const;
  /// The reply to `req`: every entry above the requester's heads, chunked
  /// to at most kMaxTransferEntries and filled round-robin ACROSS chains —
  /// oldest missing entry of each chain first — so a long chain cannot
  /// starve the chain its γ dependencies point at. Committed blocks still
  /// pending here (the certified-but-wedged tail) travel too: once a
  /// wedge clears, the tail block has no successor to reveal the gap, so
  /// a requester recovering during the wedge would otherwise never learn
  /// them. `ckpt`, when given, rides along (the ordering side's stable
  /// checkpoint). Null when the reply would carry nothing the requester
  /// lacks.
  std::shared_ptr<StateReplyMsg> BuildStateReply(
      const StateRequestMsg& req,
      const CheckpointCertificate* ckpt = nullptr) const;
  static constexpr size_t kMaxTransferEntries = 256;

  struct InstallStats {
    size_t installed = 0;  // entries Submit accepted
    size_t rejected = 0;   // entries that failed verification
  };
  /// Called after each verified entry is submitted, with Submit's status.
  using InstallHook =
      std::function<void(const StateReplyMsg::Entry&, const Status&)>;
  /// Installs the transferred entries this ledger lacks. Entries are
  /// self-certifying: the Merkle root and block digest are recomputed
  /// from the transferred bytes (bypassing every memoized digest) and the
  /// certificate must carry a quorum of valid signatures from ordering
  /// nodes of the collection's member clusters, so a faulty serving node
  /// cannot inject a fake block. Verified entries re-execute through
  /// Submit, which defers those whose predecessors have not landed yet
  /// (transfers interleave chains) and dedups repeated chunks.
  InstallStats InstallTransferred(const Directory& dir,
                                  const std::vector<StateReplyMsg::Entry>& es,
                                  const InstallHook& on_submit,
                                  const ExecCallback& on_done);

  struct Pending {
    BlockPtr block;
    CommitCertificate cert;
    LocalPart alpha;
    std::vector<GammaEntry> gamma;
    ExecCallback on_done;
  };
  /// Committed blocks still waiting on a chain predecessor or γ
  /// dependency (BuildStateReply serves them as the wedged tail).
  const std::vector<Pending>& pending() const { return waiting_; }

 private:
  bool Ready(const Pending& p) const;
  void ExecuteNow(Pending& p);
  void DrainReady();
  /// Executes one transaction; returns a digest contribution.
  uint64_t ExecuteTx(const Transaction& tx,
                     const std::vector<GammaEntry>& gamma, SeqNo version);

  Env* env_;
  const DataModel* model_;
  EnterpriseId enterprise_;
  ShardId shard_;
  DagLedger ledger_;
  std::map<CollectionId, MvStore> stores_;
  std::vector<Pending> waiting_;
  uint64_t executed_blocks_ = 0;
  uint64_t executed_txs_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_FIREWALL_EXECUTOR_CORE_H_
