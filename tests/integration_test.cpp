// End-to-end integration tests: full nodes on the simulated network living
// through mining, gossip, sync, and — centrally — the DAO hard fork
// partition emerging from protocol rules alone. Also exercises the echo
// detector against real cross-chain transaction replay.
#include <gtest/gtest.h>

#include <unordered_map>

#include "analysis/echo.hpp"
#include "core/receipt.hpp"
#include "crypto/keccak.hpp"
#include "evm/executor.hpp"
#include "p2p/faults.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"
#include "sim/scenario.hpp"

namespace forksim::sim {
namespace {

using p2p::LatencyModel;

// ------------------------------------------------- two nodes, one network

class TwoNodeTest : public ::testing::Test {
 protected:
  TwoNodeTest()
      : network_(loop_, Rng(99), LatencyModel{0.02, 0.0, 0.0, 0.0}) {
    core::GenesisAlloc alloc = {
        {derive_address(alice_), core::ether(1000)}};
    core::ChainConfig config = core::ChainConfig::mainnet_pre_fork();
    NodeOptions options;
    options.genesis_difficulty = U256(100'000);
    a_ = std::make_unique<FullNode>(network_, keccak256(std::string_view("A")),
                                    config, executor_, alloc, Rng(1), options);
    b_ = std::make_unique<FullNode>(network_, keccak256(std::string_view("B")),
                                    config, executor_, alloc, Rng(2), options);
    a_->start({});
    b_->start({a_->id()});
  }

  PrivateKey alice_ = PrivateKey::from_seed(1);
  p2p::EventLoop loop_;
  p2p::Network network_;
  evm::EvmExecutor executor_;
  std::unique_ptr<FullNode> a_;
  std::unique_ptr<FullNode> b_;
};

TEST_F(TwoNodeTest, NodesPeerViaDiscovery) {
  loop_.run_until(30.0);
  EXPECT_GE(a_->peers().active_count(), 1u);
  EXPECT_GE(b_->peers().active_count(), 1u);
}

TEST_F(TwoNodeTest, MinedBlockPropagates) {
  loop_.run_until(30.0);
  Miner miner(*a_, derive_address(PrivateKey::from_seed(50)), 5e4, Rng(3));
  miner.start();
  loop_.run_until(120.0);
  miner.stop();
  EXPECT_GT(a_->chain().height(), 0u);
  EXPECT_EQ(a_->chain().head().hash(), b_->chain().head().hash());
}

TEST_F(TwoNodeTest, TransactionGossipsAndGetsMined) {
  loop_.run_until(30.0);
  const auto tx = core::make_transaction(
      alice_, 0, derive_address(PrivateKey::from_seed(2)), core::ether(5),
      std::nullopt);
  EXPECT_EQ(a_->submit_transaction(tx), core::PoolAddResult::kAdded);
  loop_.run_until(40.0);
  EXPECT_TRUE(b_->txpool().contains(tx.hash()));

  Miner miner(*b_, derive_address(PrivateKey::from_seed(51)), 5e4, Rng(5));
  miner.start();
  loop_.run_until(200.0);
  miner.stop();
  // the tx landed on both nodes' canonical chains
  EXPECT_EQ(a_->chain()
                .head_state()
                .balance(derive_address(PrivateKey::from_seed(2))),
            core::ether(5));
  EXPECT_EQ(b_->chain()
                .head_state()
                .balance(derive_address(PrivateKey::from_seed(2))),
            core::ether(5));
}

TEST_F(TwoNodeTest, LateJoinerSyncsHistory) {
  loop_.run_until(30.0);
  Miner miner(*a_, derive_address(PrivateKey::from_seed(50)), 5e4, Rng(3));
  miner.start();
  loop_.run_until(300.0);
  miner.stop();
  const auto height = a_->chain().height();
  ASSERT_GT(height, 3u);

  // a brand-new node joins and must catch up from genesis
  core::GenesisAlloc alloc = {{derive_address(alice_), core::ether(1000)}};
  NodeOptions options;
  options.genesis_difficulty = U256(100'000);
  FullNode late(network_, keccak256(std::string_view("C")),
                core::ChainConfig::mainnet_pre_fork(), executor_, alloc,
                Rng(9), options);
  late.start({a_->id()});
  loop_.run_until(loop_.now() + 60.0);
  EXPECT_EQ(late.chain().head().hash(), a_->chain().head().hash());
  late.shutdown();
}

// --------------------------------------------------------- fork scenario

TEST(ForkScenarioTest, ConsensusBeforeFork) {
  ScenarioParams params;
  params.nodes_eth = 6;
  params.nodes_etc = 2;
  params.miners_per_side_eth = 2;
  params.miners_per_side_etc = 1;
  params.fork_block = 1000000;  // effectively never during this test
  params.total_hashrate = 3e4;
  params.seed = 5;
  ForkScenario scenario(params);
  scenario.run_for(600.0);
  // everyone converges on one chain (transient forks aside)
  EXPECT_LE(scenario.distinct_heads(), 2u);
  EXPECT_GT(scenario.best_height_eth(), 5u);
  EXPECT_EQ(scenario.total_wrong_fork_drops(), 0u);
}

TEST(ForkScenarioTest, PartitionEmergesAtForkBlock) {
  ScenarioParams params;
  params.nodes_eth = 6;
  params.nodes_etc = 3;
  params.miners_per_side_eth = 2;
  params.miners_per_side_etc = 2;
  params.fork_block = 12;
  params.total_hashrate = 3e4;
  params.etc_hashpower_fraction = 0.25;
  params.seed = 7;
  ForkScenario scenario(params);

  // run until both sides are clearly past the fork
  for (int i = 0; i < 400 && (scenario.best_height_etc() < 16 ||
                              scenario.best_height_eth() < 16);
       ++i)
    scenario.run_for(60.0);

  ASSERT_GE(scenario.best_height_eth(), 16u);
  ASSERT_GE(scenario.best_height_etc(), 16u);

  // the partition: the two sides' chains diverged at the fork block
  std::optional<Hash256> eth_fork_hash;
  std::optional<Hash256> etc_fork_hash;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    const auto* b = scenario.node(i).chain().block_by_number(params.fork_block);
    if (b == nullptr) continue;
    if (scenario.is_eth_node(i)) eth_fork_hash = b->hash();
    else etc_fork_hash = b->hash();
  }
  ASSERT_TRUE(eth_fork_hash.has_value());
  ASSERT_TRUE(etc_fork_hash.has_value());
  EXPECT_NE(*eth_fork_hash, *etc_fork_hash);

  // pre-fork history is shared
  const auto* eth_pre = scenario.node(0).chain().block_by_number(5);
  const auto* etc_pre =
      scenario.node(params.nodes_eth).chain().block_by_number(5);
  ASSERT_NE(eth_pre, nullptr);
  ASSERT_NE(etc_pre, nullptr);
  EXPECT_EQ(eth_pre->hash(), etc_pre->hash());

  // DAO challenges fired and cross-side links are (nearly) gone
  EXPECT_GT(scenario.total_wrong_fork_drops(), 0u);
  scenario.run_for(300.0);
  EXPECT_EQ(scenario.cross_side_links(), 0u);
}

TEST(ForkScenarioTest, CrossChainReplayEndToEnd) {
  // after the partition, a legacy tx included on ETH is echoed into ETC and
  // executes there too — the paper's §3.3 vulnerability, end to end
  ScenarioParams params;
  params.nodes_eth = 4;
  params.nodes_etc = 2;
  params.miners_per_side_eth = 1;
  params.miners_per_side_etc = 1;
  params.fork_block = 8;
  params.total_hashrate = 2e4;
  params.etc_hashpower_fraction = 0.3;
  params.seed = 11;
  ForkScenario scenario(params);

  for (int i = 0; i < 400 && (scenario.best_height_etc() < 10 ||
                              scenario.best_height_eth() < 10);
       ++i)
    scenario.run_for(60.0);
  ASSERT_GE(scenario.best_height_eth(), 10u);
  ASSERT_GE(scenario.best_height_etc(), 10u);

  // a pre-fork account sends 7 ether on ETH (legacy signature)
  const PrivateKey& sender = scenario.accounts()[0];
  const Address recipient = derive_address(PrivateKey::from_seed(777));
  FullNode& eth_node = scenario.node(0);
  FullNode& etc_node = scenario.node(params.nodes_eth);
  const std::uint64_t nonce =
      eth_node.chain().head_state().nonce(derive_address(sender));
  const auto tx = core::make_transaction(sender, nonce, recipient,
                                         core::ether(7), std::nullopt);
  ASSERT_EQ(eth_node.submit_transaction(tx), core::PoolAddResult::kAdded);

  // ... an attacker watches ETH and rebroadcasts the same bytes into ETC
  ASSERT_EQ(etc_node.submit_transaction(tx), core::PoolAddResult::kAdded);

  // wait until both chains mined it
  analysis::EchoDetector detector;
  for (int i = 0; i < 600; ++i) {
    scenario.run_for(30.0);
    const bool on_eth =
        eth_node.chain().head_state().balance(recipient) == core::ether(7);
    const bool on_etc =
        etc_node.chain().head_state().balance(recipient) == core::ether(7);
    if (on_eth && on_etc) break;
  }
  EXPECT_EQ(eth_node.chain().head_state().balance(recipient),
            core::ether(7));
  EXPECT_EQ(etc_node.chain().head_state().balance(recipient),
            core::ether(7));

  // the analysis pipeline flags it as an echo
  detector.observe(analysis::Chain::kEth, tx.hash(), 1.0);
  auto echo = detector.observe(analysis::Chain::kEtc, tx.hash(), 2.0);
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(echo->first_seen, analysis::Chain::kEth);
  EXPECT_EQ(detector.total_echoes(), 1u);
}

// ------------------------------------------------------------ echo detector

TEST(EchoDetectorTest, CountsDirectionally) {
  analysis::EchoDetector det;
  const Hash256 t1 = keccak256(std::string_view("t1"));
  const Hash256 t2 = keccak256(std::string_view("t2"));
  const Hash256 t3 = keccak256(std::string_view("t3"));

  EXPECT_FALSE(det.observe(analysis::Chain::kEth, t1, 1.0).has_value());
  EXPECT_TRUE(det.observe(analysis::Chain::kEtc, t1, 2.0).has_value());
  EXPECT_FALSE(det.observe(analysis::Chain::kEtc, t2, 1.0).has_value());
  EXPECT_TRUE(det.observe(analysis::Chain::kEth, t2, 3.0).has_value());
  det.observe(analysis::Chain::kEth, t3, 1.0);

  EXPECT_EQ(det.echoes_into(analysis::Chain::kEtc), 1u);
  EXPECT_EQ(det.echoes_into(analysis::Chain::kEth), 1u);
  EXPECT_EQ(det.total_echoes(), 2u);
  EXPECT_EQ(det.observed(analysis::Chain::kEth), 3u);
}

TEST(EchoDetectorTest, DuplicateObservationsNotDoubleCounted) {
  analysis::EchoDetector det;
  const Hash256 t = keccak256(std::string_view("t"));
  det.observe(analysis::Chain::kEth, t, 1.0);
  det.observe(analysis::Chain::kEth, t, 2.0);  // same chain again
  EXPECT_EQ(det.total_echoes(), 0u);
  det.observe(analysis::Chain::kEtc, t, 3.0);
  det.observe(analysis::Chain::kEtc, t, 4.0);  // echo already recorded
  EXPECT_EQ(det.total_echoes(), 1u);
}

// ------------------------------------------------- transaction relay

// A star around one relay node: each leaf peers with the relay only, so a
// batch a leaf hands the relay is received once by the relay and once by
// every other leaf, and goes no further.
class RelayStar {
 public:
  RelayStar() : network_(loop_, Rng(31), LatencyModel{0.01, 0.0, 0.0, 0.0}) {
    NodeOptions options;
    options.genesis_difficulty = U256(100'000);
    relay_ = std::make_unique<FullNode>(
        network_, keccak256(std::string_view("relay")),
        core::ChainConfig::mainnet_pre_fork(), executor_,
        core::GenesisAlloc{}, Rng(1), options);
    relay_->start({});
  }

  FullNode& relay() { return *relay_; }
  FullNode& leaf(std::size_t i) { return *leaves_.at(i); }
  p2p::EventLoop& loop() { return loop_; }
  p2p::Network& network() { return network_; }

  void add_leaves(std::size_t count) {
    NodeOptions options;
    options.genesis_difficulty = U256(100'000);
    options.max_peers = 1;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = "leaf" + std::to_string(leaves_.size());
      leaves_.push_back(std::make_unique<FullNode>(
          network_, keccak256(std::string_view(name)),
          core::ChainConfig::mainnet_pre_fork(), executor_,
          core::GenesisAlloc{}, Rng(100 + leaves_.size()), options));
      leaves_.back()->start({relay_->id()});
    }
  }

  /// `leaf(from)` puts `txs` on the wire to the relay as one Transactions
  /// message, as a peer relaying gossip would.
  void hand_to_relay(std::size_t from, std::vector<core::Transaction> txs) {
    network_.send(leaf(from).id(), relay_->id(),
                  p2p::encode_message(p2p::Message{
                      p2p::Transactions{std::move(txs)}}));
  }

  std::uint64_t txs_received() const {
    std::uint64_t n = relay_->txs_received();
    for (const auto& leaf : leaves_) n += leaf->txs_received();
    return n;
  }

 private:
  p2p::EventLoop loop_;
  p2p::Network network_;
  evm::EvmExecutor executor_;
  std::unique_ptr<FullNode> relay_;
  std::vector<std::unique_ptr<FullNode>> leaves_;
};

std::vector<core::Transaction> transfer_batch(std::size_t count) {
  const PrivateKey key = PrivateKey::from_seed(77);
  std::vector<core::Transaction> txs;
  for (std::uint64_t nonce = 0; nonce < count; ++nonce)
    txs.push_back(core::make_transaction(
        key, nonce, derive_address(PrivateKey::from_seed(78)),
        core::ether(1), std::nullopt));
  return txs;
}

/// A node ticks (and may start discovery lookups) every 5 s from its
/// start. The star's nodes all start at multiples of 5 s and take batches
/// midway between ticks, so a batch crosses the star with no other traffic
/// on the wire.
constexpr double kBetweenTicks = 32.5;

struct RelayCost {
  std::uint64_t permutations = 0;
  std::uint64_t received = 0;
};

/// Keccak-f permutations the whole star spends while a k-transaction batch
/// from leaf 0 crosses a relay with `peers` sessions.
RelayCost relay_cost(std::size_t peers, std::size_t k) {
  RelayStar star;
  star.add_leaves(peers);
  star.loop().run_until(kBetweenTicks);
  EXPECT_EQ(star.relay().peers().active_count(), peers);
  const std::vector<core::Transaction> txs = transfer_batch(k);
  const std::uint64_t permutations = keccak_permutations();
  const std::uint64_t received = star.txs_received();
  star.hand_to_relay(0, txs);
  star.loop().run_until(star.loop().now() + 0.03);
  return {keccak_permutations() - permutations,
          star.txs_received() - received};
}

// Each node hashes a received transaction once, whatever its peer count:
// relaying to more peers costs no more Keccak work per received copy.
TEST(TxRelayTest, KeccakWorkPerReceivedTxIsIndependentOfPeerCount) {
  constexpr std::size_t k = 8;
  const RelayCost two = relay_cost(2, k);
  const RelayCost six = relay_cost(6, k);
  // the relay and every other leaf each received the batch once
  EXPECT_EQ(two.received, 2 * k);
  EXPECT_EQ(six.received, 6 * k);
  ASSERT_GT(two.permutations, 0u);
  EXPECT_EQ(two.permutations * six.received, six.permutations * two.received);
}

// A peer that already knows part of a relayed batch gets only the rest;
// every other peer gets the one encoding of the whole batch, and the
// network counts the same messages and bytes as one encoding per peer.
TEST(TxRelayTest, PartlyInformedPeerGetsTheRestOthersShareOneEncoding) {
  RelayStar star;
  star.add_leaves(2);  // leaf 0 hands over the batch, leaf 1 knows part
  star.loop().run_until(kBetweenTicks);
  ASSERT_EQ(star.relay().peers().active_count(), 2u);

  const std::vector<core::Transaction> batch = transfer_batch(5);
  const std::vector<core::Transaction> known = {batch[1], batch[3]};
  const std::vector<core::Transaction> rest = {batch[0], batch[2], batch[4]};
  // leaf 1 tells the relay two of the transactions; the relay then loses
  // its mempool, so the whole batch is fresh to it again later
  star.hand_to_relay(1, known);
  star.loop().run_until(kBetweenTicks + 2.5);  // back on the 5 s grid
  ASSERT_TRUE(star.relay().txpool().contains(batch[1].hash()));
  star.relay().txpool().clear();
  star.add_leaves(3);  // these know nothing
  star.loop().run_until(kBetweenTicks + 30.0);
  ASSERT_EQ(star.relay().peers().active_count(), 5u);

  // record the transaction gossip the relay puts on the wire
  std::unordered_map<p2p::NodeId, std::vector<Bytes>, p2p::NodeIdHasher> sent;
  p2p::FaultInjector tap(star.loop(), Rng(3));
  tap.set_drop_filter([&](const p2p::NodeId& from, const p2p::NodeId& to,
                          const Bytes& wire) {
    const auto msg = p2p::decode_message(wire);
    if (from == star.relay().id() && msg &&
        std::holds_alternative<p2p::Transactions>(*msg))
      sent[to].push_back(wire);
    return false;
  });
  tap.attach_to(star.network());

  star.hand_to_relay(0, batch);
  const std::uint64_t messages = star.network().messages_sent();
  const std::uint64_t bytes = star.network().bytes_sent();
  // the relay forwards at +0.01 s; the leaves receive at +0.02 s
  star.loop().run_until(star.loop().now() + 0.015);
  p2p::FaultInjector::detach_from(star.network());
  const std::uint64_t relay_messages =
      star.network().messages_sent() - messages;
  const std::uint64_t relay_bytes = star.network().bytes_sent() - bytes;

  const Bytes whole = p2p::encode_message(p2p::Transactions{batch});
  const Bytes remainder = p2p::encode_message(p2p::Transactions{rest});
  EXPECT_FALSE(sent.contains(star.leaf(0).id()));  // the sender is skipped
  ASSERT_EQ(sent[star.leaf(1).id()].size(), 1u);
  EXPECT_EQ(sent[star.leaf(1).id()][0], remainder);
  for (std::size_t i = 2; i < 5; ++i) {
    ASSERT_EQ(sent[star.leaf(i).id()].size(), 1u);
    EXPECT_EQ(sent[star.leaf(i).id()][0], whole);
  }
  EXPECT_EQ(relay_messages, 4u);
  EXPECT_EQ(relay_bytes, remainder.size() + 3 * whole.size());

  star.loop().run_until(star.loop().now() + 1.0);
  EXPECT_EQ(star.leaf(1).txpool().size(), rest.size());
  for (const core::Transaction& tx : known)
    EXPECT_FALSE(star.leaf(1).txpool().contains(tx.hash()));
  for (std::size_t i = 2; i < 5; ++i)
    EXPECT_EQ(star.leaf(i).txpool().size(), batch.size());
}

}  // namespace
}  // namespace forksim::sim
