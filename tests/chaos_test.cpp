// Resilient sync tests (the chaos soak acceptance suite lives in
// soak_test.cpp, ctest label "soak").
//
// The surgical tests use a FaultInjector drop filter to lose exactly the
// messages under study and assert — through the telemetry registry, so the
// counters the observability layer reports are the thing under test — that
// the retry/backoff/orphan/ban machinery recovers.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/keccak.hpp"
#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "p2p/faults.hpp"
#include "sim/chaos.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::sim {
namespace {

using p2p::LatencyModel;

p2p::NodeId test_id(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("chaos-test"));
  auto be = be_fixed64(n);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

struct Net {
  explicit Net(LatencyModel latency, std::uint64_t seed = 1)
      : network(loop, Rng(seed), latency) {}

  std::unique_ptr<FullNode> make_node(std::uint64_t id, std::uint64_t seed,
                                      NodeOptions options = NodeOptions()) {
    options.genesis_difficulty = U256(100'000);
    return std::make_unique<FullNode>(
        network, test_id(id), core::ChainConfig::mainnet_pre_fork(),
        executor, core::GenesisAlloc{}, Rng(seed), options);
  }

  p2p::EventLoop loop;
  p2p::Network network;
  evm::EvmExecutor executor;
};

// A GetBlocks request whose reply is lost on the wire must be retried
// (visible in the telemetry registry) and sync must still complete.
TEST(ResilientSyncTest, DroppedBlocksReplyIsRetriedAndSyncCompletes) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  auto a = net.make_node(1, 1);
  a->start({});

  Miner miner(*a, Address::left_padded(Bytes{0x01}), 1e5, Rng(3));
  miner.start();
  net.loop.run_until(600.0);
  miner.stop();
  ASSERT_GT(a->chain().height(), 32u);  // deeper than one sync batch

  // lose the first two Blocks replies headed for the late joiner
  p2p::FaultInjector faults(net.loop, Rng(42));
  faults.attach_to(net.network);
  int dropped = 0;
  faults.set_drop_filter([&](const p2p::NodeId&, const p2p::NodeId& to,
                             const Bytes& wire) {
    if (to != test_id(2) || dropped >= 2) return false;
    auto msg = p2p::decode_message(wire);
    if (!msg || !std::holds_alternative<p2p::Blocks>(*msg)) return false;
    ++dropped;
    return true;
  });

  auto b = net.make_node(2, 2);
  obs::Registry reg;
  b->attach_telemetry(reg);
  faults.attach_telemetry(reg);
  b->start({a->id()});
  net.loop.run_until(net.loop.now() + 200.0);

  EXPECT_EQ(dropped, 2);
  // the retry/timeout story as the telemetry registry tells it
  const obs::Snapshot t = reg.snapshot();
  EXPECT_EQ(t.counter_value("faults.dropped_by_filter"), 2u);
  EXPECT_GE(t.counter_value("node.sync_timeouts"), 2u);
  EXPECT_GE(t.counter_value("node.sync_retries"), 1u);
  EXPECT_EQ(t.counter_value("node.sync_timeouts"), b->sync_timeouts());
  EXPECT_EQ(t.counter_value("node.sync_retries"), b->sync_retries());
  EXPECT_GT(t.counter_value("node.blocks_imported"), 32u);
  EXPECT_EQ(b->chain().head().hash(), a->chain().head().hash());
  EXPECT_EQ(b->chain().height(), a->chain().height());
}

// With the reply lost and a second peer available, the retry should be
// able to complete against the alternate peer even if the first peer's
// replies keep vanishing.
TEST(ResilientSyncTest, RetryFailsOverToAlternatePeer) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  auto a = net.make_node(1, 1);
  auto c = net.make_node(3, 3);
  a->start({});
  c->start({a->id()});

  Miner miner(*a, Address::left_padded(Bytes{0x01}), 1e5, Rng(3));
  miner.start();
  net.loop.run_until(400.0);
  miner.stop();
  net.loop.run_until(net.loop.now() + 60.0);
  ASSERT_EQ(c->chain().head().hash(), a->chain().head().hash());

  // node a permanently refuses to answer the late joiner with blocks
  p2p::FaultInjector faults(net.loop, Rng(9));
  faults.attach_to(net.network);
  faults.set_drop_filter([&](const p2p::NodeId& from, const p2p::NodeId& to,
                             const Bytes& wire) {
    if (from != test_id(1) || to != test_id(2)) return false;
    auto msg = p2p::decode_message(wire);
    return msg && std::holds_alternative<p2p::Blocks>(*msg);
  });

  auto b = net.make_node(2, 2);
  obs::Registry reg;
  b->attach_telemetry(reg);
  b->start({a->id(), c->id()});
  net.loop.run_until(net.loop.now() + 300.0);

  EXPECT_GE(reg.counter_value("node.sync_retries"), 1u);
  EXPECT_EQ(reg.counter_value("node.sync_retries"), b->sync_retries());
  EXPECT_EQ(b->chain().head().hash(), a->chain().head().hash());
}

// ------------------------------------------------------- orphan handling

/// A scripted remote endpoint: handshakes with a FullNode and then feeds
/// it arbitrary Blocks messages (to exercise orphan buffering without a
/// cooperating full peer).
struct ScriptedPeer {
  ScriptedPeer(Net& net, p2p::NodeId id, const core::Blockchain& chain)
      : net_(net), id_(id) {
    net_.network.attach(id_, [](const p2p::NodeId&, const Bytes&) {});
    status_.network_id = chain.config().chain_id;
    status_.genesis_hash = chain.genesis().hash();
    status_.head_hash = chain.head().hash();
    status_.head_number = chain.height();
    status_.total_difficulty = chain.head_total_difficulty();
  }

  void handshake(const FullNode& node) {
    send(node, p2p::Message{status_});
    net_.loop.run_until(net_.loop.now() + 1.0);
  }

  void send(const FullNode& node, const p2p::Message& msg) {
    net_.network.send(id_, node.id(), p2p::encode_message(msg));
  }

  Net& net_;
  p2p::NodeId id_;
  p2p::Status status_;
};

// Two sibling blocks orphaned on the same missing parent must BOTH be
// retained and imported once the parent arrives (the old single-value
// orphan map silently discarded one of them).
TEST(OrphanTest, SiblingOrphansBothSurviveAndImport) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  auto node = net.make_node(1, 1);
  node->start({});

  // craft parent + two siblings on a private chain sharing genesis
  core::Blockchain local(core::ChainConfig::mainnet_pre_fork(), net.executor,
                         core::GenesisAlloc{}, 0, U256(100'000));
  const core::Block parent =
      local.produce_block(Address::left_padded(Bytes{0x01}), 10, {});
  ASSERT_EQ(local.import(parent).result, core::ImportResult::kImported);
  const core::Block sib1 =
      local.produce_block(Address::left_padded(Bytes{0x02}), 20, {});
  const core::Block sib2 =
      local.produce_block(Address::left_padded(Bytes{0x03}), 21, {});
  ASSERT_EQ(sib1.header.parent_hash, sib2.header.parent_hash);
  ASSERT_NE(sib1.hash(), sib2.hash());

  ScriptedPeer peer(net, test_id(99), local);
  peer.handshake(*node);

  peer.send(*node, p2p::Message{p2p::Blocks{{sib1, sib2}}});
  net.loop.run_until(net.loop.now() + 1.0);
  EXPECT_EQ(node->orphan_count(), 2u);

  peer.send(*node, p2p::Message{p2p::Blocks{{parent}}});
  net.loop.run_until(net.loop.now() + 1.0);
  EXPECT_TRUE(node->chain().contains(sib1.hash()));
  EXPECT_TRUE(node->chain().contains(sib2.hash()));
  EXPECT_EQ(node->orphan_count(), 0u);
}

// The orphan buffer is bounded: an unsolicited flood cannot grow it past
// NodeOptions::max_orphans.
TEST(OrphanTest, UnsolicitedOrphanFloodIsBounded) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  NodeOptions options;
  options.max_orphans = 8;
  auto node = net.make_node(1, 1, options);
  obs::Registry reg;
  node->attach_telemetry(reg);
  node->start({});

  core::Blockchain local(core::ChainConfig::mainnet_pre_fork(), net.executor,
                         core::GenesisAlloc{}, 0, U256(100'000));
  std::vector<core::Block> deep;
  for (std::uint64_t i = 0; i < 24; ++i) {
    deep.push_back(local.produce_block(Address::left_padded(Bytes{0x01}),
                                       10 * (i + 1), {}));
    ASSERT_EQ(local.import(deep.back()).result, core::ImportResult::kImported);
  }

  ScriptedPeer peer(net, test_id(98), local);
  peer.handshake(*node);

  // push blocks 4..24 individually: every parent is unknown to the node
  for (std::size_t i = 3; i < deep.size(); ++i)
    peer.send(*node, p2p::Message{p2p::Blocks{{deep[i]}}});
  net.loop.run_until(net.loop.now() + 1.0);

  EXPECT_LE(node->orphan_count(), options.max_orphans);
  EXPECT_GT(node->orphan_count(), 0u);

  // eviction pressure is visible in the registry: 21 pushes into an
  // 8-slot buffer must evict, and the occupancy gauge tracks the buffer
  EXPECT_GE(reg.counter_value("node.orphan_evictions"),
            21u - options.max_orphans);
  EXPECT_EQ(reg.counter_value("node.orphan_evictions"),
            node->counters().orphan_evictions);
  EXPECT_LE(reg.gauge_value("node.orphan_occupancy"),
            static_cast<double>(options.max_orphans));
  EXPECT_DOUBLE_EQ(reg.gauge_value("node.orphan_occupancy"),
                   static_cast<double>(node->orphan_count()));
}

// ------------------------------------------------------------ peer bans

// A peer spewing undecodable garbage gets score-banned; the registry's
// peers.bans counter is the canonical witness.
TEST(PeerBanTest, GarbageSpewingPeerIsBannedAndCounted) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  auto node = net.make_node(1, 1);
  obs::Registry reg;
  node->attach_telemetry(reg);
  node->start({});

  core::Blockchain local(core::ChainConfig::mainnet_pre_fork(), net.executor,
                         core::GenesisAlloc{}, 0, U256(100'000));
  ScriptedPeer peer(net, test_id(97), local);
  peer.handshake(*node);
  ASSERT_EQ(node->peers().active_count(), 1u);

  // two garbage frames at -3 each cross the ban score of -5
  for (int i = 0; i < 2; ++i) {
    net.network.send(peer.id_, node->id(), Bytes{0xde, 0xad, 0xbe, 0xef});
    net.loop.run_until(net.loop.now() + 1.0);
  }

  EXPECT_TRUE(node->peers().is_banned(peer.id_));
  EXPECT_EQ(reg.counter_value("peers.bans"), 1u);
  EXPECT_EQ(reg.counter_value("peers.bans"), node->peers_banned());
}

// -------------------------------------------------- durability under chaos

ChaosParams durability_params() {
  ChaosParams cp;
  cp.scenario.nodes_eth = 5;
  cp.scenario.nodes_etc = 3;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 6;
  cp.scenario.seed = 777;
  cp.extra_loss = 0.05;
  cp.cut_start = -1.0;  // keep the tier-1 run cheap
  cp.churn_fraction = 0.4;
  cp.churn_start = 60.0;
  cp.churn_end = 450.0;
  cp.mean_downtime = 60.0;
  cp.restart_prob = 1.0;        // every crash restarts...
  cp.cold_restart_prob = 1.0;   // ...and every restart is a cold one
  cp.storage_faults.torn_write_prob = 0.6;
  cp.storage_faults.tail_truncate_prob = 0.6;
  cp.storage_faults.bit_rot_prob = 0.4;
  cp.mining_duration = 700.0;
  cp.settle_deadline = 700.0;
  return cp;
}

// After the fork, a cold-restarted node must bootstrap toward its OWN
// side's anchor — node 0 for ETH nodes, the first ETC node for ETC nodes —
// not waste its recovery dialing peers that will DAO-challenge it away.
TEST(ChaosDurabilityTest, RejoinBootstrapIsSideAware) {
  ChaosParams cp = durability_params();
  ChaosRunner runner(cp);
  const p2p::NodeId eth_anchor = runner.scenario().node(0).id();
  const p2p::NodeId etc_anchor =
      runner.scenario().node(cp.scenario.nodes_eth).id();
  for (std::size_t i = 0; i < runner.scenario().node_count(); ++i) {
    const std::vector<p2p::NodeId> rejoin = runner.rejoin_bootstrap_for(i);
    ASSERT_EQ(rejoin.size(), 1u) << i;
    EXPECT_EQ(rejoin[0],
              i < cp.scenario.nodes_eth ? eth_anchor : etc_anchor)
        << i;
  }
}

// The durability acceptance scenario at tier-1 scale: every churned node
// cold-restarts through a corrupting disk, and the network still severs
// into two internally-consistent forks — with zero checksummed-but-invalid
// records accepted, and the recovery counters visible in the report, the
// telemetry registry, and the fingerprint.
TEST(ChaosDurabilityTest, ColdRestartsUnderDiskFaultsStillConverge) {
  ChaosRunner runner(durability_params());
  const ChaosReport report = runner.run();

  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.crashes, 0u);
  EXPECT_GT(report.cold_restarts, 0u);
  EXPECT_EQ(report.restarts, report.cold_restarts);  // prob 1.0: all cold

  // the durability layer did real work...
  EXPECT_GT(report.store_appends, 0u);
  EXPECT_GT(report.store_records_scanned, 0u);
  EXPECT_GT(report.disk_torn_writes + report.disk_tail_truncations +
                report.disk_bits_flipped,
            0u);
  // ...detected corruption rather than importing it...
  EXPECT_GT(report.store_corrupt_records, 0u);
  EXPECT_EQ(report.store_replay_rejected, 0u);
  // ...and charged the modeled recovery cost for what it replayed
  EXPECT_GT(report.store_blocks_replayed, 0u);
  EXPECT_GT(report.recovery_seconds, 0.0);

  // the registry agrees with the report's hand-kept aggregates
  const obs::Snapshot& t = report.telemetry;
  EXPECT_EQ(t.counter_value("node.cold_restarts"), report.cold_restarts);
  EXPECT_EQ(t.counter_value("db.recovery.records_scanned"),
            report.store_records_scanned);
  EXPECT_EQ(t.counter_value("db.recovery.corrupt_records"),
            report.store_corrupt_records);
  EXPECT_EQ(t.counter_value("db.recovery.blocks_replayed"),
            report.store_blocks_replayed);
  EXPECT_EQ(t.counter_value("db.appends"), report.store_appends);
}

// Bit-reproducibility with the durability layer ON: same seed, same torn
// bytes, same recovery, same fingerprint.
TEST(ChaosDurabilityTest, SameSeedColdRestartRunsReplayBitIdentically) {
  ChaosParams cp = durability_params();
  cp.mining_duration = 400.0;
  cp.settle_deadline = 400.0;
  ChaosRunner r1(cp);
  const ChaosReport a = r1.run();
  ChaosRunner r2(cp);
  const ChaosReport b = r2.run();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.cold_restarts, b.cold_restarts);
  EXPECT_EQ(a.store_corrupt_records, b.store_corrupt_records);
  EXPECT_EQ(a.store_blocks_replayed, b.store_blocks_replayed);
  EXPECT_EQ(a.disk_bits_flipped, b.disk_bits_flipped);
  EXPECT_EQ(a.telemetry.fingerprint(), b.telemetry.fingerprint());
}

}  // namespace
}  // namespace forksim::sim
