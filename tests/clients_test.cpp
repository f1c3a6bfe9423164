// Client-diversity substrate tests: mix/bug-window validation, the
// seeded family assignment, the QuirkRuleSet consensus-bug fault
// injector, the chain-level ValidationRuleSet hook, node-layer
// divergence detection + graceful degradation + post-patch recovery,
// and the DAO-replay consensus-bug episode end to end under ChaosRunner.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "crypto/keccak.hpp"
#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "sim/chaos.hpp"
#include "sim/clients.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::sim {
namespace {

using p2p::LatencyModel;

p2p::NodeId test_id(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("clients-test"));
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

ClientMixParams enabled_mix() {
  ClientMixParams p;
  p.enabled = true;
  return p;
}

void expect_rejected(const ClientMixParams& p, const std::string& needle) {
  try {
    p.validate();
    FAIL() << "expected std::invalid_argument mentioning \"" << needle
           << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------ ClientMixParams bounds

TEST(ClientMixValidationTest, EnabledDefaultsAreValid) {
  EXPECT_NO_THROW(enabled_mix().validate());
}

TEST(ClientMixValidationTest, DisabledSkipsValidationEntirely) {
  // a latent config may be nonsense until someone switches it on — same
  // convention as the negative cut_start sentinel
  ClientMixParams p;
  p.mix.clear();
  p.trigger_modulus = 0;
  p.patch_time = 10.0;
  p.onset_time = 500.0;
  EXPECT_NO_THROW(p.validate());
  p.enabled = true;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ClientMixValidationTest, RejectsEmptyMix) {
  ClientMixParams p = enabled_mix();
  p.mix.clear();
  expect_rejected(p, "mix is empty");
}

TEST(ClientMixValidationTest, MixFractionBoundsAreInclusive) {
  ClientMixParams p = enabled_mix();
  // 0 and 1 are both legal fractions (a degenerate single-family mix)
  p.mix = {{ClientFamily::kGeth, 1.0}, {ClientFamily::kParity, 0.0}};
  EXPECT_NO_THROW(p.validate());
  p.mix = {{ClientFamily::kGeth, 1.2}, {ClientFamily::kParity, -0.2}};
  expect_rejected(p, "must be in [0, 1]");
}

TEST(ClientMixValidationTest, RejectsMixNotSummingToOne) {
  ClientMixParams p = enabled_mix();
  p.mix = {{ClientFamily::kGeth, 0.75}, {ClientFamily::kParity, 0.2}};
  expect_rejected(p, "sum to 1");
  // ...but only beyond the 1e-9 float tolerance
  p.mix = {{ClientFamily::kGeth, 0.75},
           {ClientFamily::kParity, 0.25 + 5e-10}};
  EXPECT_NO_THROW(p.validate());
}

TEST(ClientMixValidationTest, RejectsUnknownFamily) {
  ClientMixParams p = enabled_mix();
  p.mix = {{static_cast<ClientFamily>(9), 1.0}};
  expect_rejected(p, "unknown family");
  p = enabled_mix();
  p.buggy_family = static_cast<ClientFamily>(200);
  expect_rejected(p, "unknown family");
}

TEST(ClientMixValidationTest, BugWindowBoundariesAreInclusiveExclusive) {
  ClientMixParams p = enabled_mix();
  p.onset_time = 100.0;
  p.patch_time = 100.0;  // zero-width window is legal (patch == onset)
  EXPECT_NO_THROW(p.validate());
  p.patch_time = 99.9;  // inverted: the hotfix precedes the bug
  expect_rejected(p, "precedes onset_time");
  p.patch_time = -1.0;  // documented "never patched" sentinel
  EXPECT_NO_THROW(p.validate());
  p.onset_time = -0.5;
  expect_rejected(p, "onset_time");
}

TEST(ClientMixValidationTest, TriggerBoundsAreInclusive) {
  ClientMixParams p = enabled_mix();
  p.trigger_modulus = 0;
  expect_rejected(p, "trigger_modulus");
  p.trigger_modulus = 16;
  p.trigger_residue = 15;  // modulus - 1 is the last legal residue
  EXPECT_NO_THROW(p.validate());
  p.trigger_residue = 16;
  expect_rejected(p, "trigger_residue");
}

TEST(ClientMixValidationTest, ChaosParamsValidatesTheClientLayer) {
  // the matrix / chaos stack rejects a bad client config up front, not an
  // hour into a sweep
  ChaosParams cp;
  cp.scenario.clients = enabled_mix();
  cp.scenario.clients.mix = {{ClientFamily::kGeth, 0.5}};
  EXPECT_THROW(cp.validate(), std::invalid_argument);
  cp.scenario.clients.mix = {{ClientFamily::kGeth, 1.0}};
  EXPECT_NO_THROW(cp.validate());
}

// ------------------------------------------------------ family assignment

TEST(ClientAssignmentTest, DeterministicAndOneDrawPerNode) {
  const ClientMixParams p = enabled_mix();
  Rng a(7), b(7);
  const auto fam1 = assign_client_families(p, 40, a);
  const auto fam2 = assign_client_families(p, 40, b);
  ASSERT_EQ(fam1.size(), 40u);
  EXPECT_EQ(fam1, fam2);
  // exactly n draws: both generators must be left in the same spot
  EXPECT_EQ(a.next(), b.next());
}

TEST(ClientAssignmentTest, DegenerateMixAssignsEverySlot) {
  ClientMixParams p = enabled_mix();
  p.mix = {{ClientFamily::kBesu, 1.0}};
  Rng rng(3);
  for (ClientFamily f : assign_client_families(p, 25, rng))
    EXPECT_EQ(f, ClientFamily::kBesu);
}

TEST(ClientAssignmentTest, ProportionsRoughlyRespected) {
  const ClientMixParams p = enabled_mix();  // geth .75 / parity .25
  Rng rng(11);
  const auto fams = assign_client_families(p, 400, rng);
  const auto parity = std::count(fams.begin(), fams.end(),
                                 ClientFamily::kParity);
  EXPECT_GT(parity, 60);   // E = 100, generous +/- 40 band
  EXPECT_LT(parity, 140);
}

// ---------------------------------------------- the quirk fault injector

TEST(QuirkRuleSetTest, WindowEdgesAndTriggerPredicate) {
  ClientMixParams cfg = enabled_mix();
  cfg.onset_height = 10;
  cfg.onset_time = 100.0;
  cfg.patch_time = 200.0;
  cfg.trigger_modulus = 1;  // every in-window block trips
  double now = 0.0;
  QuirkRuleSet rules(cfg, [&now] { return now; });

  Hash256 h{};
  EXPECT_FALSE(rules.would_dispute(h, 10));  // before onset_time
  now = 100.0;
  EXPECT_TRUE(rules.would_dispute(h, 10));   // onset is inclusive
  EXPECT_FALSE(rules.would_dispute(h, 9));   // below onset_height
  now = 199.9;
  EXPECT_TRUE(rules.would_dispute(h, 500));
  now = 200.0;
  EXPECT_FALSE(rules.would_dispute(h, 500));  // patch_time is exclusive
}

TEST(QuirkRuleSetTest, TriggerUsesLastEightHashBytes) {
  ClientMixParams cfg = enabled_mix();
  cfg.trigger_modulus = 16;
  cfg.trigger_residue = 5;
  QuirkRuleSet rules(cfg, [] { return 50.0; });

  Hash256 h{};
  h.data()[31] = 5;  // v = 5 -> 5 % 16 == 5: trips
  EXPECT_TRUE(rules.would_dispute(h, 1));
  h.data()[31] = 6;
  EXPECT_FALSE(rules.would_dispute(h, 1));
  h.data()[30] = 1;  // v = 0x0106 = 262 -> 262 % 16 == 6: still clean
  h.data()[31] = 0x06;
  EXPECT_FALSE(rules.would_dispute(h, 1));
  h.data()[30] = 0x01;  // v = 0x0115 = 277 -> 277 % 16 == 5: trips
  h.data()[31] = 0x15;
  EXPECT_TRUE(rules.would_dispute(h, 1));
}

TEST(QuirkRuleSetTest, OnlyFlipsOtherwiseValidVerdicts) {
  ClientMixParams cfg = enabled_mix();
  cfg.trigger_modulus = 1;
  QuirkRuleSet rules(cfg, [] { return 10.0; });
  core::BlockHeader header;
  header.number = 1;
  const Hash256 h{};
  // a block the built-in rules already condemned keeps its real verdict
  EXPECT_EQ(rules.review_header(header, h, core::ImportResult::kInvalidHeader),
            core::ImportResult::kInvalidHeader);
  EXPECT_EQ(rules.review_header(header, h, core::ImportResult::kImported),
            core::ImportResult::kDisputed);
  EXPECT_EQ(rules.disputes(), 1u);
}

TEST(QuirkRuleSetTest, ApplyPatchPermanentlyDisablesTheQuirk) {
  ClientMixParams cfg = enabled_mix();
  cfg.trigger_modulus = 1;
  QuirkRuleSet rules(cfg, [] { return 10.0; });
  const Hash256 h{};
  EXPECT_TRUE(rules.would_dispute(h, 1));
  rules.apply_patch();
  EXPECT_TRUE(rules.patched());
  EXPECT_FALSE(rules.would_dispute(h, 1));
  core::BlockHeader header;
  header.number = 1;
  EXPECT_EQ(rules.review_header(header, h, core::ImportResult::kImported),
            core::ImportResult::kImported);
  EXPECT_EQ(rules.disputes(), 0u);
}

// ------------------------------------- the chain-level validation hook

TEST(QuirkChainTest, OverlayFlipsInWindowImportsToDisputed) {
  core::TransferExecutor exec;
  core::Blockchain chain(core::ChainConfig::mainnet_pre_fork(), exec);
  ClientMixParams cfg = enabled_mix();
  cfg.trigger_modulus = 1;
  cfg.onset_time = 100.0;
  cfg.patch_time = 200.0;
  double now = 0.0;
  QuirkRuleSet rules(cfg, [&now] { return now; });
  chain.set_validation_rules(&rules);

  const Address coinbase = Address::left_padded(Bytes{0x77});
  const auto mine = [&] {
    return chain.produce_block(coinbase, chain.head().header.timestamp + 14,
                               {});
  };

  // before onset: the overlay passes verdicts through untouched
  EXPECT_EQ(chain.import(mine()).result, core::ImportResult::kImported);

  // inside the window: an otherwise-valid block is refused as disputed —
  // nothing is stored, the head does not move, and the verdict is the new
  // eighth result, not any flavor of "invalid"
  now = 100.0;
  const core::Block b2 = mine();
  const auto outcome = chain.import(b2);
  EXPECT_EQ(outcome.result, core::ImportResult::kDisputed);
  EXPECT_FALSE(outcome.became_head);
  EXPECT_FALSE(chain.contains(b2.hash()));
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(rules.disputes(), 1u);

  // at patch_time (exclusive bound) the very same block imports cleanly —
  // disputed is a verdict about the rules, not about the block
  now = 200.0;
  EXPECT_EQ(chain.import(b2).result, core::ImportResult::kImported);
  EXPECT_EQ(chain.height(), 2u);
}

TEST(QuirkChainTest, DisputedCounterRegistersLazily) {
  core::TransferExecutor exec;
  core::Blockchain chain(core::ChainConfig::mainnet_pre_fork(), exec);
  obs::Registry reg;
  chain.attach_telemetry(reg);

  const Address coinbase = Address::left_padded(Bytes{0x42});
  chain.import(
      chain.produce_block(coinbase, chain.head().header.timestamp + 14, {}));

  // no overlay, no disputes: the metric name set must not contain the
  // disputed counter (quirk-free registries keep their golden fingerprints)
  const auto has_disputed = [](const obs::Snapshot& s) {
    for (const auto& [name, _] : s.counters)
      if (name == "chain.import.disputed") return true;
    return false;
  };
  EXPECT_FALSE(has_disputed(reg.snapshot()));

  ClientMixParams cfg = enabled_mix();
  cfg.trigger_modulus = 1;
  QuirkRuleSet rules(cfg, [] { return 10.0; });
  chain.set_validation_rules(&rules);
  chain.import(
      chain.produce_block(coinbase, chain.head().header.timestamp + 14, {}));

  const obs::Snapshot after = reg.snapshot();
  EXPECT_TRUE(has_disputed(after));
  EXPECT_EQ(after.counter_value("chain.import.disputed"), 1u);
}

// ---------------------------- node-layer detection, degradation, recovery

// A buggy node fed a chain its quirk refuses must degrade to header-only
// following: the disputed range is tracked, one divergence event is
// raised, no peer is ever banned in either direction — and after the
// hotfix the node pulls the disputed branch back and fully converges.
TEST(DivergenceNodeTest, QuirkNodeDegradesThenRecoversAfterPatch) {
  Net net(LatencyModel{0.01, 0.0, 0.0, 0.0});
  auto producer = net.make_node(1, 1);
  auto receiver = net.make_node(2, 2);

  ClientMixParams cfg = enabled_mix();
  cfg.trigger_modulus = 1;  // dispute every block: the 2020 stall shape
  QuirkRuleSet rules(cfg, [&net] { return net.loop.now(); });
  receiver->set_validation_rules(&rules);

  obs::Registry reg;
  receiver->attach_telemetry(reg);

  producer->start({});
  receiver->start({producer->id()});

  Miner miner(*producer, Address::left_padded(Bytes{0x01}), 1e5, Rng(3));
  miner.start();
  net.loop.run_until(300.0);
  miner.stop();
  net.loop.run_until(320.0);

  ASSERT_GT(producer->chain().height(), 10u);
  // graceful degradation: the receiver followed headers, imported nothing
  EXPECT_EQ(receiver->chain().height(), 0u);
  EXPECT_GT(receiver->counters().disputed_blocks, 3u);
  EXPECT_EQ(receiver->counters().divergence_events, 1u);
  const auto& range = receiver->disputed_range();
  EXPECT_TRUE(range.divergence_raised);
  EXPECT_GE(range.max_number, range.min_number);
  EXPECT_EQ(range.min_number, 1u);
  // validity disagreement is not misbehavior: neither side ever banned
  EXPECT_FALSE(producer->peers().ever_banned(receiver->id()));
  EXPECT_FALSE(receiver->peers().ever_banned(producer->id()));
  const obs::Snapshot t = reg.snapshot();
  EXPECT_EQ(t.counter_value("node.fork_monitor.disputed_blocks"),
            receiver->counters().disputed_blocks);
  EXPECT_EQ(t.counter_value("node.fork_monitor.divergence_events"), 1u);

  // the hotfix ships: quirk off, fork monitor cleared, disputed branch
  // re-fetched and revalidated in full
  rules.apply_patch();
  receiver->apply_consensus_patch();
  net.loop.run_until(net.loop.now() + 200.0);

  EXPECT_EQ(receiver->counters().consensus_patches, 1u);
  EXPECT_EQ(receiver->disputed_range().count, 0u);
  EXPECT_EQ(receiver->chain().head().hash(), producer->chain().head().hash());
  EXPECT_EQ(receiver->chain().height(), producer->chain().height());
  EXPECT_FALSE(producer->peers().ever_banned(receiver->id()));
  EXPECT_FALSE(receiver->peers().ever_banned(producer->id()));
  EXPECT_EQ(reg.snapshot().counter_value(
                "node.fork_monitor.consensus_patches"),
            1u);
}

// ------------------------------------------- scenario wiring (opt-in-ness)

TEST(ClientScenarioTest, DisabledLayerAssignsNothing) {
  ScenarioParams sp;
  sp.nodes_eth = 3;
  sp.nodes_etc = 1;
  sp.miners_per_side_eth = 1;
  sp.miners_per_side_etc = 1;
  ForkScenario scenario(sp);
  EXPECT_TRUE(scenario.client_families().empty());
  EXPECT_EQ(scenario.quirk_rules(), nullptr);
  EXPECT_EQ(scenario.client_family_of(0), ClientFamily::kGeth);
}

TEST(ClientScenarioTest, EnabledLayerAssignsFamiliesAndInstallsOverlay) {
  ScenarioParams sp;
  sp.nodes_eth = 6;
  sp.nodes_etc = 2;
  sp.miners_per_side_eth = 1;
  sp.miners_per_side_etc = 1;
  sp.seed = 5;
  sp.clients = enabled_mix();
  ForkScenario scenario(sp);

  ASSERT_EQ(scenario.client_families().size(), 8u);
  ASSERT_NE(scenario.quirk_rules(), nullptr);
  for (std::size_t i = 0; i < 8; ++i) {
    const bool buggy =
        scenario.client_family_of(i) == sp.clients.buggy_family;
    // only buggy-family nodes carry the shared overlay
    EXPECT_EQ(scenario.node(i).chain().validation_rules(),
              buggy ? scenario.quirk_rules() : nullptr)
        << "node " << i;
  }
}

// ----------------------------------- the DAO-replay consensus-bug episode

// The acceptance scenario: a 16-node DAO replay with a 25 % parity
// minority whose quirk disputes every block inside [300, 600). Both fork
// sides must degrade below quorum during the window (minority nodes stall
// on both sides), no honest node may ever ban another, and after the
// hotfix the whole network must converge — bit-identically across two
// runs from the same seed.
ChaosParams dao_replay_params() {
  ChaosParams cp;
  cp.scenario.nodes_eth = 12;
  cp.scenario.nodes_etc = 4;
  cp.scenario.miners_per_side_eth = 3;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 6;
  // seed 15 places parity at eth nodes {6, 7, 9} and etc node {14}: a 4/16
  // minority with every miner host and both side anchors on geth, so both
  // sides keep producing while their parity nodes stall
  cp.scenario.seed = 15;
  cp.scenario.clients = ClientMixParams{};
  cp.scenario.clients.enabled = true;
  cp.scenario.clients.buggy_family = ClientFamily::kParity;
  cp.scenario.clients.onset_time = 300.0;
  cp.scenario.clients.patch_time = 600.0;
  cp.scenario.clients.trigger_modulus = 1;  // dispute everything in-window
  cp.extra_loss = 0.05;
  cp.cut_start = -1.0;  // isolate the client layer: no cut, no churn
  cp.churn_fraction = 0.0;
  cp.mining_duration = 900.0;
  cp.settle_deadline = 700.0;
  cp.probe.enabled = true;
  cp.probe.interval = 5.0;
  cp.probe.quorum_fraction = 0.9;
  cp.probe.max_head_lag = 2;
  // probe window left negative: it must derive from the bug window
  return cp;
}

TEST(ClientChaosTest, DaoReplayConsensusBugEpisode) {
  ChaosParams cp = dao_replay_params();
  ChaosRunner runner(cp);

  // the composed probe window derives from the clients bug window
  EXPECT_EQ(runner.effective_probe().failure_start, 300.0);
  EXPECT_EQ(runner.effective_probe().failure_end, 600.0);

  const ChaosReport report = runner.run();

  // the bug bit: blocks were disputed, divergence was raised, and every
  // running parity node took the hotfix
  EXPECT_GT(report.disputed_blocks, 0u);
  EXPECT_GE(report.divergence_events, 1u);
  EXPECT_EQ(report.consensus_patches, 4u);  // seed 15: 4 parity nodes

  // both sides degraded during the window: some sample saw each side
  // below quorum while the quirk was live
  bool eth_degraded = false, etc_degraded = false;
  for (const AvailabilitySample& s : runner.availability_samples()) {
    if (s.t < 300.0 || s.t >= 600.0) continue;
    eth_degraded |= !s.eth_ok;
    etc_degraded |= !s.etc_ok;
  }
  EXPECT_TRUE(eth_degraded);
  EXPECT_TRUE(etc_degraded);
  EXPECT_LT(report.availability.during_failure, 1.0);

  // validity disagreement must never feed the ban machinery
  EXPECT_EQ(report.honest_ban_events, 0u);
  EXPECT_EQ(report.peers_banned, 0u);

  // post-patch: the deep reorg heals the split and the network converges
  EXPECT_TRUE(report.converged);
  EXPECT_GE(report.availability.post, report.availability.during_failure);

  // per-family scoring: one entry per mix slice, nodes partitioned 12/4,
  // and the buggy minority visibly worse off during the window
  ASSERT_EQ(report.client_families.size(), 2u);
  EXPECT_EQ(report.client_families[0].family, ClientFamily::kGeth);
  EXPECT_EQ(report.client_families[1].family, ClientFamily::kParity);
  EXPECT_EQ(report.client_families[0].nodes, 12u);
  EXPECT_EQ(report.client_families[1].nodes, 4u);
  EXPECT_LT(report.client_families[1].availability.during_failure, 1.0);
  EXPECT_LE(report.client_families[1].availability.during_failure,
            report.client_families[0].availability.during_failure);

  // bit-identical replay: the whole episode from the same seed
  ChaosRunner rerun(dao_replay_params());
  const ChaosReport report2 = rerun.run();
  EXPECT_EQ(report.fingerprint, report2.fingerprint);
  EXPECT_EQ(report.disputed_blocks, report2.disputed_blocks);
  EXPECT_EQ(report.divergence_events, report2.divergence_events);
}

}  // namespace
}  // namespace forksim::sim
