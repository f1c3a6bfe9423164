// Synchronization robustness: late joiners over deep chains, lossy
// networks, competing miners, node churn, and the EIP-150 63/64 call-gas
// rule that shipped in the post-fork protocol upgrades.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/txpool.hpp"
#include "db/blockstore.hpp"
#include "evm/assembler.hpp"
#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::sim {
namespace {

using p2p::LatencyModel;

p2p::NodeId test_id(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("sync-test"));
  const auto be = be_fixed64(n);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

struct Net {
  explicit Net(LatencyModel latency, std::uint64_t seed = 1)
      : network(loop, Rng(seed), latency) {}

  std::unique_ptr<FullNode> make_node(std::uint64_t id, std::uint64_t seed) {
    NodeOptions options;
    options.genesis_difficulty = U256(100'000);
    return std::make_unique<FullNode>(
        network, test_id(id), core::ChainConfig::mainnet_pre_fork(),
        executor, core::GenesisAlloc{}, Rng(seed), options);
  }

  p2p::EventLoop loop;
  p2p::Network network;
  evm::EvmExecutor executor;
};

TEST(SyncTest, DeepChainSyncAcrossMultipleBatches) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  auto a = net.make_node(1, 1);
  a->start({});

  // mine a chain much deeper than one sync batch (32)
  Miner miner(*a, Address::left_padded(Bytes{0x01}), 1e5, Rng(3));
  miner.start();
  net.loop.run_until(1200.0);
  miner.stop();
  ASSERT_GT(a->chain().height(), 80u);

  auto b = net.make_node(2, 2);
  obs::Registry reg;
  b->attach_telemetry(reg);
  b->chain().attach_telemetry(reg);
  b->start({a->id()});
  net.loop.run_until(net.loop.now() + 120.0);
  EXPECT_EQ(b->chain().head().hash(), a->chain().head().hash());
  EXPECT_EQ(b->chain().height(), a->chain().height());

  // telemetry view of the catch-up: the late joiner imported the whole
  // chain (several sync batches), every import accounted for by name
  EXPECT_EQ(reg.counter_value("node.blocks_imported"), b->chain().height());
  EXPECT_EQ(reg.counter_value("chain.import.imported"),
            b->chain().height());
  EXPECT_EQ(reg.counter_value("node.sync_gave_up"), 0u);
}

TEST(SyncTest, SyncSurvivesPacketLoss) {
  Net net(LatencyModel{0.02, 0.01, 0.5, /*loss=*/0.15}, 9);
  obs::Registry reg;
  net.network.attach_telemetry(reg);
  auto a = net.make_node(1, 1);
  auto b = net.make_node(2, 2);
  a->attach_telemetry(reg);
  b->attach_telemetry(reg);
  a->start({});
  b->start({a->id()});
  net.loop.run_until(60.0);

  Miner miner(*a, Address::left_padded(Bytes{0x01}), 5e4, Rng(5));
  miner.start();
  net.loop.run_until(1800.0);
  miner.stop();
  net.loop.run_until(net.loop.now() + 300.0);

  ASSERT_GT(a->chain().height(), 20u);
  // with 15% loss, b may lag a touch but must track within a few blocks
  EXPECT_GE(b->chain().height() + 3, a->chain().height());

  // the lossy wire shows up in the network telemetry, and the retry
  // counters aggregate both nodes' resilient-sync effort
  const obs::Snapshot t = reg.snapshot();
  EXPECT_GT(t.counter_value("net.dropped_loss"), 0u);
  EXPECT_EQ(t.counter_value("net.messages_sent"),
            net.network.messages_sent());
  EXPECT_EQ(t.counter_value("node.sync_timeouts"),
            a->sync_timeouts() + b->sync_timeouts());
  EXPECT_EQ(t.counter_value("node.sync_retries"),
            a->sync_retries() + b->sync_retries());
}

TEST(SyncTest, CompetingMinersConvergeOnOneChain) {
  Net net(LatencyModel{0.05, 0.02, 0.5, 0.0}, 21);
  std::vector<std::unique_ptr<FullNode>> nodes;
  for (std::uint64_t i = 0; i < 5; ++i) nodes.push_back(net.make_node(i, i + 1));
  for (auto& n : nodes) n->start({nodes[0]->id()});
  net.loop.run_until(60.0);

  std::vector<std::unique_ptr<Miner>> miners;
  for (std::uint64_t i = 0; i < 3; ++i) {
    miners.push_back(std::make_unique<Miner>(
        *nodes[i], Address::left_padded(Bytes{static_cast<std::uint8_t>(i)}),
        3e4, Rng(100 + i)));
    miners.back()->start();
  }
  net.loop.run_until(1200.0);
  for (auto& m : miners) m->stop();
  net.loop.run_until(net.loop.now() + 120.0);

  for (std::size_t i = 1; i < nodes.size(); ++i)
    EXPECT_EQ(nodes[i]->chain().head().hash(),
              nodes[0]->chain().head().hash());
  // competing miners produce some stale blocks (transient forks)...
  EXPECT_GT(nodes[0]->chain().height(), 10u);
}

TEST(SyncTest, NodeChurnRejoin) {
  Net net(LatencyModel{0.02, 0.0, 0.0, 0.0}, 31);
  auto a = net.make_node(1, 1);
  auto b = net.make_node(2, 2);
  a->start({});
  b->start({a->id()});
  net.loop.run_until(30.0);

  Miner miner(*a, Address::left_padded(Bytes{0x01}), 5e4, Rng(7));
  miner.start();
  net.loop.run_until(200.0);

  // b crashes, misses a chunk of chain, and rejoins
  b->shutdown();
  net.loop.run_until(600.0);
  const auto height_while_down = a->chain().height();
  b->start({a->id()});
  net.loop.run_until(800.0);
  miner.stop();
  net.loop.run_until(net.loop.now() + 120.0);

  EXPECT_GT(a->chain().height(), height_while_down);
  EXPECT_EQ(b->chain().head().hash(), a->chain().head().hash());
}

// Rapid crash/restart cycles: every shutdown bumps the generation token,
// and while the node is down no timer from a previous life may fire — the
// dial counter must not move while dead, and the final life must still
// sync cleanly.
TEST(SyncTest, RapidCrashRestartCyclesLeaveNoStaleTimers) {
  Net net(LatencyModel{0.02, 0.0, 0.0, 0.0}, 51);
  auto a = net.make_node(1, 1);
  auto b = net.make_node(2, 2);
  a->start({});
  Miner miner(*a, Address::left_padded(Bytes{0x01}), 5e4, Rng(7));
  miner.start();
  net.loop.run_until(100.0);

  std::uint64_t gen = b->generation();
  for (int i = 0; i < 10; ++i) {
    b->start({a->id()});
    // lifetimes from sub-tick to several ticks
    net.loop.run_until(net.loop.now() + 1.0 + 4.0 * i);
    b->shutdown();
    EXPECT_EQ(b->generation(), ++gen);

    // dead air longer than the 5s tick interval: a stale tick (or any
    // other timer from the just-ended life) would dial or gossip here
    const std::uint64_t dials = b->counters().dial_attempts;
    net.loop.run_until(net.loop.now() + 12.0);
    EXPECT_FALSE(b->running());
    EXPECT_EQ(b->counters().dial_attempts, dials)
        << "stale timer dialed while down";
  }

  b->start({a->id()});
  net.loop.run_until(net.loop.now() + 200.0);
  miner.stop();
  net.loop.run_until(net.loop.now() + 60.0);
  EXPECT_EQ(b->chain().head().hash(), a->chain().head().hash());
}

// A cold restart defers start() by the modeled recovery delay. If the node
// is warm-restarted and crashed again before that deferred start fires, the
// generation token must keep the stale start from resurrecting the corpse.
TEST(SyncTest, StaleDeferredStartNeverResurrectsACrashedNode) {
  Net net(LatencyModel{0.02, 0.0, 0.0, 0.0}, 52);
  auto a = net.make_node(1, 1);
  auto b = net.make_node(2, 2);
  db::SimDisk disk{Rng(8)};
  db::BlockStore store(disk, "b");
  b->attach_store(&store);
  a->start({});
  b->start({a->id()});

  Miner miner(*a, Address::left_padded(Bytes{0x01}), 5e4, Rng(9));
  miner.start();
  net.loop.run_until(400.0);
  miner.stop();
  net.loop.run_until(net.loop.now() + 60.0);
  ASSERT_GT(b->chain().height(), 0u);

  // cold restart: start() is now scheduled resume_delay out
  const RecoveryOutcome out = b->cold_restart({a->id()});
  ASSERT_GT(out.blocks_replayed, 0u);
  ASSERT_GT(out.resume_delay, 0.0);
  EXPECT_FALSE(b->running());

  // a warm restart races in ahead of the deferred start, then crashes
  b->start({a->id()});
  ASSERT_TRUE(b->running());
  b->shutdown();

  // past the deferred start's fire time: the stale timer must not act
  net.loop.run_until(net.loop.now() + out.resume_delay + 30.0);
  EXPECT_FALSE(b->running());
}

TEST(SyncTest, TransientForkResolvesAndLoserBecomesOmmer) {
  // two miners on a slow network race; stale blocks become ommers in later
  // blocks, paying their miners partial rewards (the §2.1 mechanism)
  Net net(LatencyModel{0.3, 0.1, 0.5, 0.0}, 41);  // slow WAN: more races
  auto a = net.make_node(1, 1);
  auto b = net.make_node(2, 2);
  a->start({});
  b->start({a->id()});
  net.loop.run_until(60.0);

  Miner m1(*a, Address::left_padded(Bytes{0xaa}), 5e4, Rng(11));
  Miner m2(*b, Address::left_padded(Bytes{0xbb}), 5e4, Rng(12));
  m1.start();
  m2.start();
  net.loop.run_until(3600.0);
  m1.stop();
  m2.stop();
  net.loop.run_until(net.loop.now() + 60.0);

  // both sides converged
  ASSERT_EQ(a->chain().head().hash(), b->chain().head().hash());

  // count ommers included on the canonical chain
  std::size_t ommers = 0;
  for (core::BlockNumber n = 1; n <= a->chain().height(); ++n)
    ommers += a->chain().block_by_number(n)->ommers.size();
  EXPECT_GT(a->chain().stale_block_count(), 0u);
  EXPECT_GT(ommers, 0u);
}

// ---------------------------------------------- peer ban boundary behavior
// A standalone PeerSet driven by a fake clock pins the expiry semantics the
// adversary layer depends on: a ban is active strictly before
// t0 + kBanSeconds (peers.cpp), lifts at exactly t0 + kBanSeconds, reap
// prunes only lapsed bans, and the ban history survives both expiry and
// re-offense.

struct BanRig {
  BanRig() {
    p2p::PeerSet::Callbacks cb;
    cb.send = [this](const p2p::NodeId&, const p2p::Message&) { ++sent; };
    cb.make_status = [] { return p2p::Status{}; };
    cb.now = [this] { return now; };
    set = std::make_unique<p2p::PeerSet>(1, Hash256{}, 8, std::move(cb),
                                         p2p::PeerPolicy{});
  }
  double now = 0.0;
  std::size_t sent = 0;
  std::unique_ptr<p2p::PeerSet> set;
};

TEST(PeerBanTest, BanLiftsAtExactlyBanSeconds) {
  BanRig rig;
  const p2p::NodeId peer = test_id(99);
  rig.now = 10.0;
  ASSERT_TRUE(rig.set->connect(peer));
  rig.set->note_garbage(peer);
  EXPECT_FALSE(rig.set->is_banned(peer));  // -3: below the ban line
  rig.set->note_garbage(peer);             // -6 <= kBanScore: banned to 190
  EXPECT_TRUE(rig.set->is_banned(peer));
  EXPECT_FALSE(rig.set->connected_to(peer));  // the ban drops the session
  EXPECT_EQ(rig.set->bans(), 1u);
  EXPECT_TRUE(rig.set->ever_banned(peer));

  rig.now = 189.5;  // strictly inside the window: still banned, undialable
  EXPECT_TRUE(rig.set->is_banned(peer));
  EXPECT_FALSE(rig.set->connect(peer));

  rig.now = 190.0;  // exactly t0 + kBanSeconds: the ban lifts
  EXPECT_FALSE(rig.set->is_banned(peer));
  EXPECT_TRUE(rig.set->connect(peer));
  EXPECT_TRUE(rig.set->ever_banned(peer));  // history survives expiry
}

TEST(PeerBanTest, RepeatOffenderIsRebannedAndReapPrunesLapsedBans) {
  BanRig rig;
  const p2p::NodeId peer = test_id(98);
  ASSERT_TRUE(rig.set->connect(peer));
  rig.set->note_garbage(peer);
  rig.set->note_garbage(peer);  // ban #1, until 180
  ASSERT_TRUE(rig.set->is_banned(peer));

  rig.now = 179.0;
  rig.set->reap_stalled(1000);  // still active: must not be pruned
  EXPECT_TRUE(rig.set->is_banned(peer));
  EXPECT_FALSE(rig.set->connect(peer));

  rig.now = 180.0;
  rig.set->reap_stalled(1000);  // lapsed: pruned, dialable again
  EXPECT_FALSE(rig.set->is_banned(peer));
  ASSERT_TRUE(rig.set->connect(peer));

  // the fresh session starts at score 0 (one strike is not a re-ban)...
  rig.set->note_garbage(peer);
  EXPECT_FALSE(rig.set->is_banned(peer));
  // ...but a repeat offense bans again, and history counts both
  rig.set->note_garbage(peer);
  EXPECT_TRUE(rig.set->is_banned(peer));
  EXPECT_EQ(rig.set->bans(), 2u);
  EXPECT_TRUE(rig.set->ever_banned(peer));
}

TEST(PeerBanTest, SustainedSpamAccumulatesToBanOneBurstDoesNot) {
  BanRig rig;
  const p2p::NodeId peer = test_id(97);
  ASSERT_TRUE(rig.set->connect(peer));
  // each spam demerit is mild (-1): a single rate-limited burst never bans
  for (int i = 0; i < 4; ++i) rig.set->note_spam(peer);
  EXPECT_FALSE(rig.set->is_banned(peer));
  // but a sustained flood accumulates to the ban line
  rig.set->note_spam(peer);
  EXPECT_TRUE(rig.set->is_banned(peer));
  EXPECT_EQ(rig.set->spam_penalties(), 5u);
}

// ------------------------------------------------------- EIP-150 gas rule

TEST(Eip150Test, CallForwardsAtMostAllButOne64th) {
  // a contract that calls an empty account with a huge gas request, then
  // returns GAS — under EIP-150 the child can only take 63/64 of what's
  // left, so the caller keeps >= 1/64
  using namespace evm;
  core::State state;
  const Address contract = Address::left_padded(Bytes{0xc0});
  const Address target = Address::left_padded(Bytes{0x99});
  state.touch(target);  // exists, no code (avoid new-account surcharge)

  Asm a;
  a.push(std::uint64_t{0});  // out_len
  a.push(std::uint64_t{0});  // out_off
  a.push(std::uint64_t{0});  // in_len
  a.push(std::uint64_t{0});  // in_off
  a.push(std::uint64_t{0});  // value
  a.push(target);
  a.push(U256(1) << 40);     // absurd gas request
  a.op(Op::kCall).op(Op::kPop);
  a.op(Op::kGas);
  a.push(std::uint64_t{0}).op(Op::kMstore);
  a.push(std::uint64_t{32}).push(std::uint64_t{0}).op(Op::kReturn);
  state.set_code(contract, a.build());

  core::BlockContext ctx;
  Vm vm(state, ctx, GasSchedule::eip150(), contract, core::gwei(20));
  CallParams params;
  params.caller = contract;
  params.address = contract;
  params.code_address = contract;
  params.gas = 64'000;
  const CallResult r = vm.call(params);
  ASSERT_TRUE(r.success);  // pre-EIP-150 this would be an out-of-gas fault
  const U256 gas_after = U256::from_be(r.output);
  // the callee (no code) returns everything, so nearly all gas survives;
  // the key property: no fault, and the caller retained gas
  EXPECT_GT(gas_after, U256(50'000));

  // under Homestead rules the same code *faults* (request > remainder)
  Vm vm2(state, ctx, GasSchedule::homestead(), contract, core::gwei(20));
  const CallResult r2 = vm2.call(params);
  EXPECT_FALSE(r2.success);
  EXPECT_EQ(r2.error, VmError::kOutOfGas);
}

// --------------------- revalidation-driven deep reorg (consensus hotfix)

// A ValidationRuleSet overlay refusing a fixed set of block hashes as
// disputed — the test's stand-in for a buggy client family's quirk, with
// the hash set playing the role of the trigger predicate.
struct DisputedSetRules final : core::ValidationRuleSet {
  std::unordered_set<Hash256, Hash256Hasher> disputed;
  bool active = true;
  core::ImportResult review_header(const core::BlockHeader&,
                                   const Hash256& hash,
                                   core::ImportResult builtin) const override {
    if (active && builtin == core::ImportResult::kImported &&
        disputed.contains(hash))
      return core::ImportResult::kDisputed;
    return builtin;
  }
};

// The post-patch recovery contract: a node whose quirk refused the
// majority chain from height 30 and mined 34 blocks of its own must, once
// the rules are fixed, re-import the disputed range through FULL
// revalidation and deep-reorg (>= 32 blocks) back onto the majority
// branch — ending with head, state, receipts, and txpool contents
// identical to a replica that never diverged.
TEST(DeepReorgTest, RevalidationReorgMatchesNeverDivergedReplica) {
  core::TransferExecutor exec;
  const PrivateKey alice = PrivateKey::from_seed(1);
  const PrivateKey bob = PrivateKey::from_seed(2);
  const core::GenesisAlloc alloc = {
      {derive_address(alice), core::ether(1000)},
      {derive_address(bob), core::ether(1000)}};
  const Address miner_m = derive_address(PrivateKey::from_seed(50));
  const Address miner_q = derive_address(PrivateKey::from_seed(51));
  const core::ChainConfig config = core::ChainConfig::mainnet_pre_fork();

  // the majority chain: 70 blocks carrying transfers both before the
  // split point and inside the soon-to-be-disputed range
  core::Blockchain majority(config, exec, alloc);
  std::vector<core::Block> blocks;
  std::vector<core::Transaction> included;
  std::uint64_t nonce = 0;
  for (core::BlockNumber n = 1; n <= 70; ++n) {
    std::vector<core::Transaction> txs;
    if (n <= 20 || (n >= 31 && n <= 40))
      txs.push_back(core::make_transaction(alice, nonce++,
                                           derive_address(bob),
                                           core::Wei(1'000'000),
                                           std::nullopt));
    core::Block b = majority.produce_block(
        miner_m, majority.head().header.timestamp + 14, txs);
    ASSERT_EQ(b.transactions.size(), txs.size());
    ASSERT_EQ(majority.import(b).result, core::ImportResult::kImported);
    blocks.push_back(b);
    included.insert(included.end(), txs.begin(), txs.end());
  }

  // six transfers that never get mined: the txpool differential witness
  std::vector<core::Transaction> pending;
  for (std::uint64_t i = 0; i < 6; ++i)
    pending.push_back(core::make_transaction(bob, i, derive_address(alice),
                                             core::Wei(5), std::nullopt));
  const auto seed_pool = [&](core::TxPool& pool, core::Blockchain& chain) {
    for (const core::Transaction& t : included)
      ASSERT_EQ(pool.add(t, chain.head_state(), chain.height()),
                core::PoolAddResult::kAdded);
    for (const core::Transaction& t : pending)
      ASSERT_EQ(pool.add(t, chain.head_state(), chain.height()),
                core::PoolAddResult::kAdded);
  };
  // mirror FullNode: on every import that moves the head, drop included
  // txs and prune nonces the new head state made stale
  const auto feed = [](core::Blockchain& chain, core::TxPool& pool,
                       const core::Block& b) {
    const auto out = chain.import(b);
    if (out.became_head) pool.remove_included(b.transactions,
                                              chain.head_state());
    return out;
  };

  // the clean replica: imports the majority chain, never diverges
  core::Blockchain clean(config, exec, alloc);
  core::TxPool clean_pool(clean.config());
  seed_pool(clean_pool, clean);
  for (const core::Block& b : blocks)
    ASSERT_EQ(feed(clean, clean_pool, b).result,
              core::ImportResult::kImported);

  // the quirky node: follows the majority to height 29, disputes
  // everything above it, and mines a 34-block branch of its own
  core::Blockchain quirky(config, exec, alloc);
  core::TxPool quirky_pool(quirky.config());
  seed_pool(quirky_pool, quirky);
  DisputedSetRules rules;
  for (std::size_t i = 29; i < blocks.size(); ++i)
    rules.disputed.insert(blocks[i].hash());
  quirky.set_validation_rules(&rules);

  for (std::size_t i = 0; i < 29; ++i)
    ASSERT_EQ(feed(quirky, quirky_pool, blocks[i]).result,
              core::ImportResult::kImported);
  ASSERT_EQ(quirky.import(blocks[29]).result,
            core::ImportResult::kDisputed);
  ASSERT_EQ(quirky.height(), 29u);
  for (int i = 0; i < 34; ++i) {
    core::Block b = quirky.produce_block(
        miner_q, quirky.head().header.timestamp + 14, {});
    ASSERT_EQ(quirky.import(b).result, core::ImportResult::kImported);
  }
  ASSERT_EQ(quirky.height(), 63u);
  ASSERT_NE(quirky.head().hash(), blocks[62].hash());

  // the hotfix ships: the quirk is gone and the disputed range re-imports
  // through full execution; total difficulty flips the node back onto the
  // majority branch in one deep reorg
  rules.active = false;
  std::size_t max_reorg = 0;
  for (std::size_t i = 29; i < blocks.size(); ++i) {
    const auto out = feed(quirky, quirky_pool, blocks[i]);
    ASSERT_EQ(out.result, core::ImportResult::kImported) << "block " << i + 1;
    max_reorg = std::max(max_reorg, out.reorg_depth);
  }
  EXPECT_GE(max_reorg, 32u);

  // differential vs the never-diverged replica: head, state, receipts,
  // and pool contents all restored
  EXPECT_EQ(quirky.head().hash(), clean.head().hash());
  EXPECT_EQ(quirky.height(), clean.height());
  EXPECT_EQ(quirky.head().header.state_root, clean.head().header.state_root);
  for (const Address& a :
       {derive_address(alice), derive_address(bob), miner_m, miner_q})
    EXPECT_EQ(quirky.head_state().balance(a), clean.head_state().balance(a));
  EXPECT_EQ(quirky.head_state().nonce(derive_address(alice)), 30u);
  // the divergent branch's rewards are gone from canonical state
  EXPECT_TRUE(quirky.head_state().balance(miner_q).is_zero());
  for (const core::Block& b : blocks) {
    const auto* rq = quirky.receipts_of(b.hash());
    const auto* rc = clean.receipts_of(b.hash());
    ASSERT_NE(rq, nullptr);
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rq->size(), rc->size());
  }
  EXPECT_EQ(quirky_pool.size(), clean_pool.size());
  for (const core::Transaction& t : pending) {
    EXPECT_TRUE(quirky_pool.contains(t.hash()));
    EXPECT_TRUE(clean_pool.contains(t.hash()));
  }
  for (const core::Transaction& t : included)
    EXPECT_FALSE(quirky_pool.contains(t.hash()));
}

}  // namespace
}  // namespace forksim::sim
