// Adversarial resilience: Byzantine agents from sim/adversary.* attacking
// hardened honest nodes, plus property tests for the defenses they exercise
// (txpool eviction backpressure, per-peer token buckets, equivocation
// tracking). The convergence tests are the acceptance criterion in miniature:
// with attackers at 20% of the population, every honest node must end on one
// head, no honest node may ban another honest node, and every attacker must
// get itself score-banned by at least one victim.
#include <gtest/gtest.h>

#include <memory>

#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sim/clients.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::sim {
namespace {

using core::PoolAddResult;
using core::Transaction;
using core::TxPool;
using p2p::LatencyModel;
using p2p::TokenBucket;

const PrivateKey kBob = PrivateKey::from_seed(0xb0b);

p2p::NodeId test_id(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("adversary-test"));
  const auto be = be_fixed64(n);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

// ---------------------------------------------------- txpool under spam

class TxPoolSpamTest : public ::testing::Test {
 protected:
  TxPoolSpamTest() : pool_(config_, TxPool::Options{/*capacity=*/8}) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      keys_.push_back(PrivateKey::from_seed(1000 + i));
      state_.add_balance(derive_address(keys_.back()), core::ether(10));
    }
  }

  Transaction tx_from(std::size_t key, std::uint64_t nonce, core::Wei price) {
    return core::make_transaction(keys_[key], nonce, derive_address(kBob),
                                  core::Wei(1), std::nullopt, price);
  }

  core::ChainConfig config_ = core::ChainConfig::mainnet_pre_fork();
  core::State state_;
  TxPool pool_;
  std::vector<PrivateKey> keys_;
};

TEST_F(TxPoolSpamTest, FullPoolEvictsStrictlyCheapestForBetterPayer) {
  // fill to capacity with ascending prices; the gwei(1) tx is the victim
  std::vector<Hash256> hashes;
  for (std::size_t i = 0; i < 8; ++i) {
    Transaction t = tx_from(i, 0, core::gwei(i + 1));
    hashes.push_back(t.hash());
    ASSERT_EQ(pool_.add(t, state_, 1), PoolAddResult::kAdded);
  }
  ASSERT_EQ(pool_.size(), 8u);

  Transaction rich = tx_from(20, 0, core::gwei(50));
  EXPECT_EQ(pool_.add(rich, state_, 1), PoolAddResult::kAdded);
  EXPECT_EQ(pool_.size(), 8u);  // bounded: eviction, not growth
  EXPECT_EQ(pool_.evictions(), 1u);
  EXPECT_FALSE(pool_.contains(hashes[0]));  // cheapest gone
  for (std::size_t i = 1; i < 8; ++i) EXPECT_TRUE(pool_.contains(hashes[i]));
  EXPECT_TRUE(pool_.contains(rich.hash()));
}

TEST_F(TxPoolSpamTest, EqualPricedSpamCannotDisplacePendingTxs) {
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_EQ(pool_.add(tx_from(i, 0, core::gwei(10)), state_, 1),
              PoolAddResult::kAdded);
  // floor-price flood: same price as the incumbents -> refused, no eviction
  for (std::size_t i = 8; i < 16; ++i)
    EXPECT_EQ(pool_.add(tx_from(i, 0, core::gwei(10)), state_, 1),
              PoolAddResult::kPoolFull);
  EXPECT_EQ(pool_.size(), 8u);
  EXPECT_EQ(pool_.evictions(), 0u);
}

TEST_F(TxPoolSpamTest, EvictionVictimIsInsertionOrderIndependent) {
  // same transactions admitted in two different orders must evict the same
  // victim (lowest price, then smallest hash — never map iteration order)
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < 8; ++i)
    txs.push_back(tx_from(i, 0, core::gwei(i < 3 ? 2 : 5 + i)));
  Transaction newcomer = tx_from(21, 0, core::gwei(40));

  TxPool forward(config_, TxPool::Options{/*capacity=*/8});
  for (const auto& t : txs)
    ASSERT_EQ(forward.add(t, state_, 1), PoolAddResult::kAdded);
  ASSERT_EQ(forward.add(newcomer, state_, 1), PoolAddResult::kAdded);

  TxPool backward(config_, TxPool::Options{/*capacity=*/8});
  for (auto it = txs.rbegin(); it != txs.rend(); ++it)
    ASSERT_EQ(backward.add(*it, state_, 1), PoolAddResult::kAdded);
  ASSERT_EQ(backward.add(newcomer, state_, 1), PoolAddResult::kAdded);

  for (const auto& t : txs)
    EXPECT_EQ(forward.contains(t.hash()), backward.contains(t.hash()));
}

TEST_F(TxPoolSpamTest, DuplicateAndNonceGapSpamRejected) {
  Transaction t = tx_from(0, 0, core::gwei(10));
  ASSERT_EQ(pool_.add(t, state_, 1), PoolAddResult::kAdded);
  // duplicate floods never grow the pool
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(pool_.add(t, state_, 1), PoolAddResult::kAlreadyKnown);
  EXPECT_EQ(pool_.size(), 1u);
  // a nonce far beyond the account nonce is refused outright (it could
  // never execute, it would only squat a slot)
  EXPECT_EQ(pool_.add(tx_from(0, 1000, core::gwei(99)), state_, 1),
            PoolAddResult::kPoolFull);
  // and underpriced spam is refused before any bookkeeping
  EXPECT_EQ(pool_.add(tx_from(1, 0, core::Wei(0)), state_, 1),
            PoolAddResult::kUnderpriced);
  EXPECT_EQ(pool_.size(), 1u);
}

TEST_F(TxPoolSpamTest, BoundedSizeInvariantUnderRandomFlood) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const std::size_t k = rng.uniform(keys_.size());
    const auto nonce = static_cast<std::uint64_t>(rng.uniform(4));
    const core::Wei price = core::gwei(1 + rng.uniform(30));
    pool_.add(tx_from(k, nonce, price), state_, 1);
    ASSERT_LE(pool_.size(), 8u);  // the invariant, checked at every step
  }
  EXPECT_GT(pool_.evictions(), 0u);
}

// -------------------------------------------------- defense primitives

TEST(TokenBucketTest, RefillsFromSimTimeAndBoundsBursts) {
  TokenBucket b;
  b.rate = 2.0;
  b.capacity = 4.0;
  b.tokens = 4.0;
  // burst up to capacity, then dry
  EXPECT_TRUE(b.take(0.0, 4.0));
  EXPECT_FALSE(b.take(0.0, 1.0));
  // 1 sim-second at 2/s -> 2 tokens
  EXPECT_TRUE(b.take(1.0, 2.0));
  EXPECT_FALSE(b.take(1.0, 0.5));
  // refill saturates at capacity, not beyond
  EXPECT_TRUE(b.take(100.0, 4.0));
  EXPECT_FALSE(b.take(100.0, 1.0));
}

TEST(TokenBucketTest, DisabledBucketAdmitsEverything) {
  TokenBucket b;  // rate 0 = disabled: the un-hardened configuration
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.take(0.0, 1e9));
}

TEST(PeerSessionTest, NoteChildCountsDistinctSiblingsPerParent) {
  p2p::PeerSession s;
  const Hash256 parent = test_id(1);
  EXPECT_EQ(s.note_child(parent, test_id(10)), 1u);
  EXPECT_EQ(s.note_child(parent, test_id(10)), 1u);  // repeat: no growth
  EXPECT_EQ(s.note_child(parent, test_id(11)), 2u);
  EXPECT_EQ(s.note_child(parent, test_id(12)), 3u);
  // other parents are tracked independently
  EXPECT_EQ(s.note_child(test_id(2), test_id(13)), 1u);
}

// --------------------------------------------- convergence under attack

constexpr std::size_t kHonest = 8;
constexpr std::size_t kAttackers = 2;  // 20% of the population

class AdversaryConvergenceTest : public ::testing::Test {
 protected:
  void run(AdversaryKind kind, std::uint64_t seed) {
    network_ = std::make_unique<p2p::Network>(
        loop_, Rng(seed), LatencyModel{0.02, 0.01, 0.3, 0.0});
    for (std::uint64_t i = 0; i < kHonest + kAttackers; ++i) {
      NodeOptions options;
      options.genesis_difficulty = U256(100'000);
      options.hardening.enabled = true;
      nodes_.push_back(std::make_unique<FullNode>(
          *network_, test_id(i), core::ChainConfig::mainnet_pre_fork(),
          executor_, core::GenesisAlloc{}, Rng(seed * 100 + i), options));
    }
    for (auto& n : nodes_) n->start({nodes_[0]->id()});
    loop_.run_until(40.0);

    for (std::size_t m = 0; m < 2; ++m) {
      miners_.push_back(std::make_unique<Miner>(
          *nodes_[m],
          Address::left_padded(Bytes{static_cast<std::uint8_t>(m + 1)}), 3e4,
          Rng(seed + 500 + m)));
      miners_.back()->start();
    }

    AdversaryOptions opt;
    opt.kind = kind;
    opt.interval = 9.0;
    for (std::size_t a = 0; a < kAttackers; ++a) {
      advs_.push_back(std::make_unique<Adversary>(*nodes_[kHonest + a], opt,
                                                  Rng(seed * 7 + a)));
      advs_.back()->start();
    }

    loop_.run_until(700.0);
    // End the attack while mining continues: fresh honest blocks break any
    // equivocated total-difficulty ties before the settle window.
    for (auto& adv : advs_) adv->stop();
    loop_.run_until(770.0);
    for (auto& m : miners_) m->stop();
    loop_.run_until(loop_.now() + 150.0);
  }

  template <typename F>
  std::uint64_t sum_honest(F f) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kHonest; ++i) total += f(*nodes_[i]);
    return total;
  }

  void expect_attack_contained() const {
    // every honest node on one head, and the chain made real progress
    for (std::size_t i = 1; i < kHonest; ++i)
      EXPECT_EQ(nodes_[i]->chain().head().hash(),
                nodes_[0]->chain().head().hash())
          << "honest node " << i << " diverged";
    EXPECT_GT(nodes_[0]->chain().height(), 10u);
    // defenses never friendly-fire: no honest node banned another
    for (std::size_t i = 0; i < kHonest; ++i)
      for (std::size_t j = 0; j < kHonest; ++j)
        if (i != j) {
          EXPECT_FALSE(nodes_[i]->peers().ever_banned(nodes_[j]->id()))
              << "honest " << i << " banned honest " << j;
        }
    // and every attacker got itself banned by at least one victim
    for (std::size_t a = 0; a < kAttackers; ++a) {
      bool banned = false;
      for (std::size_t i = 0; i < kHonest; ++i)
        banned = banned ||
                 nodes_[i]->peers().ever_banned(nodes_[kHonest + a]->id());
      EXPECT_TRUE(banned) << "attacker " << a << " was never banned";
      EXPECT_GT(advs_[a]->counters().rounds, 0u);
    }
  }

  p2p::EventLoop loop_;
  evm::EvmExecutor executor_;
  std::unique_ptr<p2p::Network> network_;
  std::vector<std::unique_ptr<FullNode>> nodes_;
  std::vector<std::unique_ptr<Miner>> miners_;
  std::vector<std::unique_ptr<Adversary>> advs_;
};

TEST_F(AdversaryConvergenceTest, InvalidBlockForgerIsBannedAndCached) {
  run(AdversaryKind::kInvalidForger, 1201);
  expect_attack_contained();
  // forged bodies executed once before the commitment check caught them...
  EXPECT_GT(sum_honest([](const FullNode& n) {
              return n.counters().wasted_executions;
            }),
            0u);
  // ...and re-pushes were absorbed by the known-invalid cache for free
  EXPECT_GT(sum_honest([](const FullNode& n) {
              return n.counters().invalid_cache_hits;
            }),
            0u);
}

TEST_F(AdversaryConvergenceTest, WithholderBlamedForPhantomAnnouncements) {
  run(AdversaryKind::kWithholder, 1301);
  expect_attack_contained();
  // fetches nobody but the announcer could serve were written off and
  // charged to the announcer, not to innocent peers
  EXPECT_GT(sum_honest([](const FullNode& n) { return n.counters().withheld; }),
            0u);
}

TEST_F(AdversaryConvergenceTest, TxSpammerTripsJunkDetectorPoolStaysBounded) {
  run(AdversaryKind::kTxSpammer, 1401);
  expect_attack_contained();
  // the spam reached the pools (the admitted-filler share)...
  EXPECT_GT(sum_honest([](const FullNode& n) { return n.txs_received(); }),
            0u);
  // ...but no pool outgrew its bound
  for (std::size_t i = 0; i < kHonest; ++i)
    EXPECT_LE(nodes_[i]->txpool().size(), std::size_t{16384});
}

TEST_F(AdversaryConvergenceTest, EquivocatorDetectedBySiblingTracking) {
  run(AdversaryKind::kEquivocator, 1501);
  expect_attack_contained();
  EXPECT_GT(
      sum_honest([](const FullNode& n) { return n.counters().equivocations; }),
      0u);
}

/// A genesis-only victim and attacker host with one active session between
/// them, both configured with `hardening`. The attacker host is the
/// victim's only peer, so every demerit and every ban is its own.
struct IngressPair {
  explicit IngressPair(const HardeningOptions& hardening)
      : network(loop, Rng(5), LatencyModel{0.01, 0.0, 0.0, 0.0}) {
    NodeOptions options;
    options.genesis_difficulty = U256(100'000);
    options.hardening = hardening;
    victim = std::make_unique<FullNode>(
        network, test_id(1), core::ChainConfig::mainnet_pre_fork(), executor,
        core::GenesisAlloc{}, Rng(1), options);
    host = std::make_unique<FullNode>(
        network, test_id(2), core::ChainConfig::mainnet_pre_fork(), executor,
        core::GenesisAlloc{}, Rng(2), options);
    victim->start({});
    host->start({victim->id()});
    loop.run_until(30.0);
  }

  /// Put `msg` on the wire from the attacker host, past its honest paths.
  void send_raw(const p2p::Message& msg) {
    network.send(host->id(), victim->id(), p2p::encode_message(msg));
  }

  bool attacker_banned() const {
    return victim->peers().ever_banned(host->id());
  }

  p2p::EventLoop loop;
  p2p::Network network;
  evm::EvmExecutor executor;
  std::unique_ptr<FullNode> victim;
  std::unique_ptr<FullNode> host;
};

HardeningOptions hardening_on() {
  HardeningOptions h;
  h.enabled = true;
  return h;
}

// With hardening off (the default), the staged-pipeline counters stay zero
// and every re-push is re-validated from scratch — the attacker is still
// banned (garbage imports), but only after repeatedly wasted work. The
// pipeline's value is turning "banned eventually" into "absorbed for free".
TEST(AdversaryBaselineTest, UnhardenedNodeRevalidatesEveryRepush) {
  ASSERT_FALSE(HardeningOptions{}.enabled);  // the default stays off
  IngressPair pair(HardeningOptions{});
  AdversaryOptions opt;
  opt.kind = AdversaryKind::kInvalidForger;
  opt.interval = 5.0;
  Adversary adv(*pair.host, opt, Rng(9));
  adv.start();
  pair.loop.run_until(120.0);
  adv.stop();

  const NodeCounters& v = pair.victim->counters();
  EXPECT_GT(adv.counters().blocks_forged, 0u);
  // un-hardened: no staged-pipeline counters move, every push re-validated
  EXPECT_EQ(v.invalid_cache_hits, 0u);
  EXPECT_EQ(v.precheck_rejections, 0u);
  EXPECT_EQ(v.rate_limited, 0u);
  // but invalid blocks still cost garbage demerits -> the attacker is banned
  EXPECT_TRUE(pair.attacker_banned());
}

// The hardened Transactions rate limit, end to end: a spam batch bigger
// than the per-peer tx burst is dropped whole at the door, before any of
// it is counted or pooled, and each drop is a spam demerit on the sender.
TEST(AdversaryBaselineTest, HardenedTxRateLimitDropsOversizedSpamBatches) {
  HardeningOptions hardening = hardening_on();
  hardening.tx_burst = 16.0;
  IngressPair pair(hardening);
  FullNode& victim = *pair.victim;
  ASSERT_NE(victim.peers().session(pair.host->id()), nullptr);

  AdversaryOptions opt;
  opt.kind = AdversaryKind::kTxSpammer;
  opt.interval = 5.0;
  // every batch is larger than the bucket can ever hold
  ASSERT_GT(static_cast<double>(opt.spam_batch), hardening.tx_burst);
  Adversary adv(*pair.host, opt, Rng(9));
  adv.start();
  pair.loop.run_until(60.0);
  adv.stop();

  EXPECT_GT(adv.counters().txs_spammed, 0u);
  EXPECT_GT(victim.counters().rate_limited, 0u);
  // the attacker is the victim's only peer, so every demerit is its own
  EXPECT_EQ(victim.peers().spam_penalties(), victim.counters().rate_limited);
  // nothing from a dropped batch reached the pool or the receive count
  EXPECT_EQ(victim.counters().txs_received, 0u);
  EXPECT_EQ(victim.txpool().size(), 0u);
}

// Validity disagreement is not misbehavior — the client-diversity layer's
// core guarantee. A peer serving blocks that are valid under its own rules
// but disputed by the receiver's buggy quirk must never feed the ban
// machinery in either direction, even with hardened ingress on; a real
// forger attacking a clean node in the same network must still end banned.
TEST(AdversaryBaselineTest, QuirkDisputeIsNeverBannedButForgerStillIs) {
  p2p::EventLoop loop;
  p2p::Network network(loop, Rng(5), LatencyModel{0.01, 0.0, 0.0, 0.0});
  evm::EvmExecutor executor;
  NodeOptions options;
  options.genesis_difficulty = U256(100'000);
  options.hardening.enabled = true;

  // pair one: an honest producer feeding a buggy-family disputer whose
  // quirk refuses every block the producer mines
  FullNode producer(network, test_id(20), core::ChainConfig::mainnet_pre_fork(),
                    executor, core::GenesisAlloc{}, Rng(1), options);
  FullNode disputer(network, test_id(21), core::ChainConfig::mainnet_pre_fork(),
                    executor, core::GenesisAlloc{}, Rng(2), options);
  ClientMixParams cfg;
  cfg.enabled = true;
  cfg.trigger_modulus = 1;
  QuirkRuleSet rules(cfg, [&loop] { return loop.now(); });
  disputer.set_validation_rules(&rules);

  // pair two, a disjoint component of the same network: a forger
  // attacking a clean victim
  FullNode victim(network, test_id(22), core::ChainConfig::mainnet_pre_fork(),
                  executor, core::GenesisAlloc{}, Rng(3), options);
  FullNode attacker_host(network, test_id(23),
                         core::ChainConfig::mainnet_pre_fork(), executor,
                         core::GenesisAlloc{}, Rng(4), options);

  producer.start({});
  disputer.start({producer.id()});
  victim.start({});
  attacker_host.start({victim.id()});
  loop.run_until(30.0);

  Miner miner(producer, Address::left_padded(Bytes{0x01}), 1e5, Rng(7));
  miner.start();
  AdversaryOptions opt;
  opt.kind = AdversaryKind::kInvalidForger;
  opt.interval = 5.0;
  Adversary adv(attacker_host, opt, Rng(9));
  adv.start();
  loop.run_until(240.0);
  adv.stop();
  miner.stop();
  loop.run_until(260.0);

  // the disputer refused the producer's entire chain...
  EXPECT_GT(producer.chain().height(), 5u);
  EXPECT_EQ(disputer.chain().height(), 0u);
  EXPECT_GT(disputer.counters().disputed_blocks, 0u);
  EXPECT_GT(rules.disputes(), 0u);
  // ...yet neither side of the disagreement ever banned the other
  EXPECT_FALSE(disputer.peers().ever_banned(producer.id()));
  EXPECT_FALSE(producer.peers().ever_banned(disputer.id()));
  // while the forger in the same network is still score-banned
  EXPECT_GT(adv.counters().blocks_forged, 0u);
  EXPECT_TRUE(victim.peers().ever_banned(attacker_host.id()));
}

// ------------------------------------- staged ingress, stage by stage

// Each forge defect is caught at its own stage, and what that costs the
// victim is pinned counter by counter. Hardened: a bad structure dies in
// the precheck with no execution, a bad difficulty in header validation,
// a bad state root only after a full execution; the re-pushes that follow
// are cache hits until the attacker is banned. Unhardened: no staged
// counter moves, and the bad structure is executed like a bad state root.
TEST(AdversaryBaselineTest, ForgeDefectsPinEachIngressStage) {
  struct Case {
    ForgeDefect defect;
    bool hardened;
    std::uint64_t precheck_rejections;
    std::uint64_t wasted_executions;
    std::uint64_t invalid_cache_hits;
  };
  const Case cases[] = {
      {ForgeDefect::kBadStateRoot, false, 0, 2, 0},
      {ForgeDefect::kBadDifficulty, false, 0, 0, 0},
      {ForgeDefect::kBadStructure, false, 0, 2, 0},
      {ForgeDefect::kBadStateRoot, true, 0, 1, 1},
      {ForgeDefect::kBadDifficulty, true, 0, 0, 1},
      {ForgeDefect::kBadStructure, true, 1, 0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "defect " << static_cast<int>(c.defect) << " hardened "
                 << c.hardened);
    IngressPair pair(c.hardened ? hardening_on() : HardeningOptions{});
    AdversaryOptions opt;
    opt.kind = AdversaryKind::kInvalidForger;
    opt.interval = 5.0;
    opt.defect = c.defect;
    Adversary adv(*pair.host, opt, Rng(9));
    adv.start();
    pair.loop.run_until(120.0);
    adv.stop();

    const NodeCounters& v = pair.victim->counters();
    // one forgery and two re-pushes of it; two garbage demerits ban the
    // attacker, so the third message finds no session
    EXPECT_EQ(adv.counters().blocks_forged, 1u);
    EXPECT_EQ(v.precheck_rejections, c.precheck_rejections);
    EXPECT_EQ(v.wasted_executions, c.wasted_executions);
    EXPECT_EQ(v.invalid_cache_hits, c.invalid_cache_hits);
    EXPECT_EQ(v.rate_limited, 0u);
    EXPECT_EQ(v.equivocations, 0u);
    EXPECT_EQ(v.blocks_imported, 0u);
    EXPECT_EQ(pair.victim->peers().bans(), 1u);
    EXPECT_TRUE(pair.attacker_banned());
  }
}

// The block bucket also gates announcements: a withholder whose
// NewBlockHashes batch is larger than the whole block burst is refused at
// the door every round, before any hash is fetched, and the spam demerits
// add up to a ban.
TEST(AdversaryBaselineTest, BlockBucketRefusesOversizedAnnouncements) {
  HardeningOptions hardening = hardening_on();
  hardening.block_burst = 2.0;
  IngressPair pair(hardening);
  AdversaryOptions opt;
  opt.kind = AdversaryKind::kWithholder;
  opt.interval = 5.0;
  ASSERT_GT(static_cast<double>(opt.withhold_batch), hardening.block_burst);
  Adversary adv(*pair.host, opt, Rng(9));
  adv.start();
  pair.loop.run_until(120.0);
  adv.stop();

  const NodeCounters& v = pair.victim->counters();
  // five refusals at -1 each reach the ban score; the sixth round finds
  // no session to announce to
  EXPECT_EQ(adv.counters().phantom_announcements, 20u);
  EXPECT_EQ(v.rate_limited, 5u);
  EXPECT_EQ(pair.victim->peers().spam_penalties(), v.rate_limited);
  // refused whole: nothing was ever asked for, so nothing timed out
  EXPECT_EQ(v.sync_timeouts, 0u);
  EXPECT_EQ(v.withheld, 0u);
  EXPECT_EQ(pair.victim->sync_inflight(), 0u);
  EXPECT_TRUE(pair.attacker_banned());
}

// An unsolicited Blocks batch runs every block through the cache and the
// precheck on its own: the valid block imports, the known-invalid one is
// absorbed without re-execution, the bad-structure one is refused before
// execution, and the batch costs its sender one garbage demerit.
TEST(AdversaryBaselineTest, UnsolicitedBatchSortsBlocksByStage) {
  IngressPair pair(hardening_on());
  core::Blockchain& chain = pair.host->chain();
  const Address coinbase = Address::left_padded(Bytes{0x0c});
  const core::Timestamp ts = chain.head().header.timestamp;
  const core::Block valid = chain.produce_block(coinbase, ts + 13, {}, 1);
  core::Block bad_root = chain.produce_block(coinbase, ts + 14, {}, 2);
  bad_root.header.state_root = test_id(99);
  core::Block bad_structure = chain.produce_block(coinbase, ts + 15, {}, 3);
  bad_structure.header.extra_data.assign(64, 0xad);

  // first push: bad_root is executed once and cached as invalid
  pair.send_raw(p2p::Message{
      p2p::NewBlock{bad_root, chain.total_difficulty_of(chain.head_hash()) +
                                  bad_root.header.difficulty}});
  pair.loop.run_until(31.0);
  const NodeCounters& v = pair.victim->counters();
  EXPECT_EQ(v.wasted_executions, 1u);
  EXPECT_FALSE(pair.attacker_banned());

  pair.send_raw(p2p::Message{p2p::Blocks{{valid, bad_root, bad_structure}}});
  pair.loop.run_until(32.0);
  EXPECT_EQ(v.blocks_imported, 1u);
  EXPECT_EQ(v.invalid_cache_hits, 1u);
  EXPECT_EQ(v.precheck_rejections, 1u);
  EXPECT_EQ(v.wasted_executions, 1u);
  EXPECT_EQ(v.rate_limited, 0u);
  EXPECT_EQ(pair.victim->chain().head_hash(), valid.hash());
  EXPECT_TRUE(pair.attacker_banned());
}

}  // namespace
}  // namespace forksim::sim
