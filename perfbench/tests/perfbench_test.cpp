// Tests for the benchmark's own code: the metric catalogue and result
// line, span self-time arithmetic, the timing executor decorator, and the
// seed-to-input derivation.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "evm/assembler.hpp"
#include "evm/contracts.hpp"
#include "evm/executor.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "timing_executor.hpp"
#include "workloads.hpp"

using namespace forksim;
using namespace perfbench;

namespace {

std::string read_benchmark_json() {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1))
    ++n;
  return n;
}

Span span(std::string name, int parent, double start, double end) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

}  // namespace

// ---- metric catalogue ------------------------------------------------------

TEST(MetricCatalogueTest, NamesAreValidUniqueAndWithinLimits) {
  const auto& e2e = end_to_end_metrics();
  const auto& layers = per_layer_metrics();
  EXPECT_GE(e2e.size(), 1u);
  EXPECT_LE(e2e.size(), kMaxEndToEnd);
  EXPECT_GE(layers.size(), 1u);
  EXPECT_LE(layers.size(), kMaxPerLayer);
  std::set<std::string_view> seen;
  for (const auto* list : {&e2e, &layers}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_TRUE(m.better == "lower" || m.better == "higher") << m.name;
      EXPECT_FALSE(m.unit.empty()) << m.name;
      EXPECT_LE(m.unit.size(), 16u) << m.name;
    }
  }
}

TEST(MetricCatalogueTest, SetupTimeIsAnEndToEndMetric) {
  bool found = false;
  for (const MetricSpec& m : end_to_end_metrics())
    if (m.name == "setup_s")
      found = m.unit == "s" && m.better == "lower";
  EXPECT_TRUE(found);
}

TEST(MetricCatalogueTest, NameValidatorRejectsMalformedNames) {
  EXPECT_TRUE(valid_metric_name("p2p.scheduler.pops"));
  EXPECT_TRUE(valid_metric_name("0-ok_name"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("_leading_underscore"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricCatalogueTest, BenchmarkJsonListsExactlyTheCatalogue) {
  const std::string json = read_benchmark_json();
  ASSERT_FALSE(json.empty()) << PERFBENCH_BENCHMARK_JSON;
  std::size_t names = 0;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      const std::string entry = "\"name\": \"" + std::string(m.name) +
                                "\", \"unit\": \"" + std::string(m.unit) +
                                "\", \"better\": \"" + std::string(m.better) +
                                "\"";
      EXPECT_EQ(occurrences(json, entry), 1u) << entry;
      ++names;
    }
  }
  for (const std::string_view w : kWorkloads)
    EXPECT_EQ(occurrences(json, "\"name\": \"" + std::string(w) + "\""), 1u)
        << w;
  EXPECT_EQ(occurrences(json, "\"name\":"), names + kWorkloads.size());
}

TEST(ResultJsonTest, PrintsEveryMetricWithFullPrecision) {
  const std::vector<MetricSpec> specs = {{"wall_s", "s", "lower"},
                                         {"events_per_s", "1/s", "higher"}};
  const std::string line = result_json(
      true, 7, 0, specs, {{"wall_s", 1.0 / 3.0}, {"events_per_s", 2.5e6}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
            "\"metrics\": {\"wall_s\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"s\"}, \"events_per_s\": {\"value\": 2500000, "
            "\"unit\": \"1/s\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, specs, {{"wall_s", 1.0}}),
               std::logic_error);
}

// ---- span self time --------------------------------------------------------

TEST(SelfTimeTest, LeafSpanKeepsItsWholeDuration) {
  const std::vector<Span> spans = {span("root", -1, 1.0, 4.0)};
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 3.0);
}

TEST(SelfTimeTest, NestedChildrenSubtractOnlyFromTheirDirectParent) {
  // root [0,10) > a [1,4) > a1 [2,3); root > b [5,9)
  const std::vector<Span> spans = {
      span("root", -1, 0.0, 10.0), span("a", 0, 1.0, 4.0),
      span("a1", 1, 2.0, 3.0), span("b", 0, 5.0, 9.0)};
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 10.0 - 3.0 - 4.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 1), 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 2), 1.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 3), 4.0);
}

TEST(SelfTimeTest, OverlappingChildrenCountTheirUnionOnce) {
  // children [1,5) and [3,7) and [6,8) cover [1,8) = 7 of root's 10
  const std::vector<Span> spans = {
      span("root", -1, 0.0, 10.0), span("x", 0, 1.0, 5.0),
      span("y", 0, 3.0, 7.0), span("z", 0, 6.0, 8.0)};
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 3.0);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParentInterval) {
  // a child spilling past both ends only covers the parent's own interval
  const std::vector<Span> spans = {span("root", -1, 2.0, 6.0),
                                   span("wide", 0, 1.0, 3.0),
                                   span("late", 0, 5.0, 9.0)};
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 4.0 - 1.0 - 1.0);
  const std::vector<Span> covering = {span("root", -1, 2.0, 6.0),
                                      span("all", 0, 0.0, 8.0)};
  EXPECT_DOUBLE_EQ(self_seconds(covering, 0), 0.0);
}

TEST(SpanRecorderTest, RecordsParentsAndTraceIds) {
  SpanRecorder rec;
  rec.set_trace_id(3);
  {
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner");
  }
  { ScopedSpan next(&rec, "next"); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  for (const Span& s : rec.spans()) {
    EXPECT_EQ(s.trace_id, 3u);
    EXPECT_GE(s.end_s, s.start_s);
  }
  EXPECT_LE(rec.spans()[0].start_s, rec.spans()[1].start_s);
  EXPECT_GE(rec.spans()[0].end_s, rec.spans()[1].end_s);
  EXPECT_NE(rec.to_chrome_json().find("\"name\":\"inner\""), std::string::npos);
  { ScopedSpan off(nullptr, "ignored"); }  // untraced: records nothing
  EXPECT_EQ(rec.spans().size(), 3u);
}

// ---- timing executor -------------------------------------------------------

TEST(TimingExecutorTest, ResultsAreIdenticalToTheBareEvmExecutor) {
  const PrivateKey alice = PrivateKey::from_seed(11);
  const Address alice_addr = derive_address(alice);
  const core::ChainConfig config = core::ChainConfig::mainnet_pre_fork();
  core::BlockContext ctx;
  ctx.coinbase = Address::left_padded(Bytes{0xcb});
  ctx.number = 10;
  ctx.gas_limit = 4'712'388;

  const Address counter = evm::Vm::create_address(alice_addr, 0);
  const Bytes init = evm::wrap_as_init_code(evm::contracts::counter_runtime());
  const std::vector<core::Transaction> txs = {
      // contract creation
      core::make_transaction(alice, 0, std::nullopt, core::Wei(0),
                             std::nullopt, core::gwei(20), 1'000'000, init),
      // call that writes storage
      core::make_transaction(alice, 1, counter, core::Wei(0), std::nullopt,
                             core::gwei(20), 100'000),
      // plain transfer
      core::make_transaction(alice, 2, Address::left_padded(Bytes{0x42}),
                             core::ether(1), std::nullopt),
      // rejected up front: nonce gap
      core::make_transaction(alice, 9, counter, core::Wei(0), std::nullopt),
      // rejected: intrinsic gas too low
      core::make_transaction(alice, 3, counter, core::Wei(0), std::nullopt,
                             core::gwei(20), 100),
  };

  core::State bare_state, timed_state;
  bare_state.add_balance(alice_addr, core::ether(100));
  timed_state.add_balance(alice_addr, core::ether(100));
  evm::EvmExecutor bare;
  evm::EvmExecutor inner;
  TimingExecutor timed(inner);
  core::Gas remaining = ctx.gas_limit;
  for (const core::Transaction& tx : txs) {
    const core::ExecutionResult a =
        bare.execute(bare_state, tx, ctx, config, remaining);
    const core::ExecutionResult b =
        timed.execute(timed_state, tx, ctx, config, remaining);
    ASSERT_EQ(a.accepted(), b.accepted());
    EXPECT_EQ(a.error, b.error);
    if (a.accepted()) {
      EXPECT_EQ(a.receipt->encode(), b.receipt->encode());
      EXPECT_EQ(a.receipt->created_contract, b.receipt->created_contract);
      remaining -= a.receipt->gas_used;
    }
    EXPECT_EQ(bare_state.root(), timed_state.root());
  }
  EXPECT_EQ(timed.calls(), txs.size());
  EXPECT_GT(timed.seconds(), 0.0);
  EXPECT_EQ(bare_state.storage_at(counter, U256(0)), U256(1));
}

// ---- seeds and inputs ------------------------------------------------------

TEST(SeedTest, DerivationIsDeterministicAndSeedSensitive) {
  EXPECT_EQ(derive_seeds(42), derive_seeds(42));
  const InputSeeds a = derive_seeds(1), b = derive_seeds(2);
  for (const auto member :
       {&InputSeeds::engine, &InputSeeds::network, &InputSeeds::identity,
        &InputSeeds::topology, &InputSeeds::geo, &InputSeeds::txgen})
    EXPECT_NE(a.*member, b.*member);
  // the streams of one seed are independent of each other
  const std::set<std::uint64_t> streams = {a.engine,   a.network, a.identity,
                                           a.topology, a.geo,     a.txgen};
  EXPECT_EQ(streams.size(), 6u);
}

TEST(SeedTest, GossipSeedChangesOnlyTheInputs) {
  GossipParams a = gossip_params(1), b = gossip_params(2);
  EXPECT_NE(a.seeds, b.seeds);
  b.seeds = a.seeds;
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.accounts, b.accounts);
  EXPECT_EQ(a.push_exponent, b.push_exponent);
  EXPECT_EQ(a.latency.base, b.latency.base);
  EXPECT_EQ(a.latency.jitter_scale, b.latency.jitter_scale);
  EXPECT_EQ(a.genesis_difficulty, b.genesis_difficulty);
  EXPECT_EQ(a.miner_hashrate, b.miner_hashrate);
  EXPECT_EQ(a.tx_interval, b.tx_interval);
  EXPECT_EQ(a.mesh_seconds, b.mesh_seconds);
  EXPECT_EQ(a.mining_seconds, b.mining_seconds);
  EXPECT_EQ(a.drain_seconds, b.drain_seconds);
}

TEST(SeedTest, ChaosSeedChangesOnlyTheScenarioSeed) {
  const sim::ChaosParams a = chaos_params(1, 0);
  sim::ChaosParams b = chaos_params(2, 0);
  EXPECT_NE(a.scenario.seed, b.scenario.seed);
  EXPECT_EQ(a.scenario.seed, chaos_params(1, 0).scenario.seed);
  EXPECT_NE(a.scenario.seed, chaos_params(1, 1).scenario.seed);
  b.scenario.seed = a.scenario.seed;
  EXPECT_EQ(a.scenario.nodes_eth, b.scenario.nodes_eth);
  EXPECT_EQ(a.scenario.nodes_etc, b.scenario.nodes_etc);
  EXPECT_EQ(a.adversaries.fraction, b.adversaries.fraction);
  EXPECT_EQ(a.churn_fraction, b.churn_fraction);
  EXPECT_EQ(a.partitioned_share, b.partitioned_share);
  EXPECT_EQ(a.cut_start, b.cut_start);
  EXPECT_EQ(a.cut_duration, b.cut_duration);
  EXPECT_EQ(a.cold_restart_prob, b.cold_restart_prob);
  EXPECT_EQ(a.mining_duration, b.mining_duration);
  // the heaviest A9 cell, scaled to 12 + 6 nodes
  EXPECT_EQ(a.scenario.nodes_eth, 12u);
  EXPECT_EQ(a.scenario.nodes_etc, 6u);
  EXPECT_EQ(a.adversaries.fraction, 0.25);
  EXPECT_EQ(a.churn_fraction, 0.4);
  EXPECT_EQ(a.partitioned_share, 0.5);
  EXPECT_EQ(a.cut_duration, 60.0);
}

TEST(SeedTest, ScaleSeedChangesOnlyTheInputs) {
  for (const std::string_view w : {"scale_flat_5k", "scale_geo_5k_k4"}) {
    const sim::ScaleParams a = scale_params(w, 1);
    sim::ScaleParams b = scale_params(w, 2);
    EXPECT_EQ(a.seed, b.seed) << w << ": the mining race is a constant";
    EXPECT_NE(a.topology.seed, b.topology.seed) << w;
    b.topology.seed = a.topology.seed;
    if (a.geo.enabled) {
      EXPECT_NE(a.geo.seed, b.geo.seed) << w;
      b.geo.seed = a.geo.seed;
    }
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.topology.degree, b.topology.degree);
    EXPECT_EQ(a.geo.enabled, b.geo.enabled);
    EXPECT_EQ(a.geo.rtt, b.geo.rtt);
    EXPECT_EQ(a.uniform_base, b.uniform_base);
    EXPECT_EQ(a.miners, b.miners);
    EXPECT_EQ(a.block_interval, b.block_interval);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.num_shards, b.num_shards);
  }
  EXPECT_EQ(scale_params("scale_flat_5k", 1).num_shards, 1u);
  EXPECT_FALSE(scale_params("scale_flat_5k", 1).geo.enabled);
  EXPECT_EQ(scale_params("scale_geo_5k_k4", 1).num_shards, 4u);
  EXPECT_TRUE(scale_params("scale_geo_5k_k4", 1).geo.enabled);
  EXPECT_THROW(scale_params("fullnode_gossip", 1), std::invalid_argument);
}

TEST(SeedTest, SameSeedSameRunDifferentSeedDifferentRun) {
  // the cheapest engine end to end: a small ScaleSim built exactly as the
  // workloads build theirs
  const auto run = [](std::uint64_t seed) {
    sim::ScaleParams p = scale_params("scale_flat_5k", seed);
    p.nodes = 200;
    p.duration = 120.0;
    return sim::ScaleSim(p).run().fingerprint;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}
