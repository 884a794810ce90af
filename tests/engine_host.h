#ifndef QANAAT_TESTS_ENGINE_HOST_H_
#define QANAAT_TESTS_ENGINE_HOST_H_

// One consensus engine per simulated actor, wired to a plain Network:
// the unit-test harness of the engine suites (consensus_test.cc,
// recovery_test.cc).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "sim/network.h"

namespace qanaat {

/// Minimal actor hosting a consensus engine for unit testing. Setting
/// `drop_checkpoint_votes` filters incoming CHECKPOINT votes, so a test
/// can starve one replica of the quorum that would make its checkpoint
/// stable.
class EngineHost : public Actor {
 public:
  EngineHost(Env* env, int index) : Actor(env, "host"), index_(index) {}

  void Init(const std::vector<NodeId>& cluster, bool byzantine_engine,
            int f, SimTime timeout, size_t pipeline_depth,
            size_t checkpoint_interval) {
    EngineContext ctx;
    ctx.env = env();
    ctx.self = id();
    ctx.cluster = cluster;
    ctx.self_index = index_;
    ctx.pipeline_depth = pipeline_depth;
    ctx.checkpoint_interval = checkpoint_interval;
    ctx.send = [this](NodeId to, MessageRef m) { Send(to, std::move(m)); };
    ctx.broadcast = [this, cluster](MessageRef m) {
      for (NodeId p : cluster) {
        if (p != id()) Send(p, m);
      }
    };
    ctx.start_timer = [this](SimTime d, uint64_t tag, uint64_t payload) {
      StartTimer(d, tag, payload);
    };
    ctx.deliver = [this](uint64_t slot, const ConsensusValue& v) {
      delivered.emplace_back(slot, v.block_digest);
    };
    if (byzantine_engine) {
      engine = std::make_unique<PbftEngine>(std::move(ctx), f, timeout);
    } else {
      engine = std::make_unique<PaxosEngine>(std::move(ctx), f, timeout);
    }
  }

  void OnMessage(NodeId from, const MessageRef& msg) override {
    if (drop_checkpoint_votes && msg->type == MsgType::kCheckpoint) return;
    engine->OnMessage(from, msg);
  }
  void OnTimer(uint64_t tag, uint64_t payload) override {
    engine->OnTimer(tag, payload);
  }

  std::unique_ptr<InternalConsensus> engine;
  std::vector<std::pair<uint64_t, Sha256Digest>> delivered;
  bool drop_checkpoint_votes = false;

 private:
  int index_;
};

/// A cluster of `n` engine hosts tolerating `f` faults: PBFT when `byz`,
/// Multi-Paxos otherwise. A pipeline depth or checkpoint interval of 0
/// leaves the engine's feature off.
struct EngineFixture {
  EngineFixture(bool byz, int n, int f, SimTime timeout = 20000,
                size_t pipeline_depth = 0, size_t checkpoint_interval = 0,
                uint64_t env_seed = 7)
      : env(env_seed), net(&env) {
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<EngineHost>(&env, i));
    }
    std::vector<NodeId> ids;
    for (auto& h : hosts) ids.push_back(h->id());
    for (auto& h : hosts) {
      h->Init(ids, byz, f, timeout, pipeline_depth, checkpoint_interval);
    }
  }

  /// A sealed block of `txs` transactions whose client timestamps count
  /// up from `client_ts`.
  ConsensusValue MakeValue(uint64_t client_ts, int txs = 1) {
    ConsensusValue v;
    v.kind = ConsensusValue::Kind::kBlock;
    auto b = std::make_shared<Block>();
    b->id.alpha = {CollectionId(EnterpriseSet{0}), 0, ++seq};
    for (int i = 0; i < txs; ++i) {
      b->txs.push_back(Transaction{});
      b->txs.back().client_ts = client_ts + static_cast<uint64_t>(i);
    }
    b->Seal();
    v.block = b;
    v.block_digest = b->Digest();
    return v;
  }
  ConsensusValue MakeValue(const std::string& tag, int txs = 1) {
    return MakeValue(std::hash<std::string>{}(tag), txs);
  }

  /// All non-crashed hosts delivered the same sequence of digests.
  void ExpectAgreement(size_t expect_count) {
    const EngineHost* ref = nullptr;
    for (auto& h : hosts) {
      if (h->crashed()) continue;
      if (!ref) {
        ref = h.get();
        EXPECT_EQ(ref->delivered.size(), expect_count);
        continue;
      }
      ASSERT_EQ(h->delivered.size(), ref->delivered.size())
          << "replica " << h->id();
      for (size_t i = 0; i < ref->delivered.size(); ++i) {
        EXPECT_EQ(h->delivered[i], ref->delivered[i]);
      }
    }
  }

  Env env;
  Network net;
  std::vector<std::unique_ptr<EngineHost>> hosts;
  SeqNo seq = 0;
};

}  // namespace qanaat

#endif  // QANAAT_TESTS_ENGINE_HOST_H_
