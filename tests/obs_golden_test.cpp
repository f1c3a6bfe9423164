// Golden-trace regression: the instrumented DAO-fork scenario replays
// bit-identically from a seed — telemetry snapshot fingerprint AND the
// (truncated) sim-time event trace — while injected faults provably move
// the fingerprints. Also pins the "attaching telemetry never perturbs the
// simulation" guarantee: an uninstrumented same-seed run reaches the
// exact same chain state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/faults.hpp"
#include "sim/matrix.hpp"
#include "sim/scenario.hpp"

namespace forksim::sim {
namespace {

ScenarioParams golden_params() {
  ScenarioParams sp;
  sp.nodes_eth = 4;
  sp.nodes_etc = 2;
  sp.miners_per_side_eth = 2;
  sp.miners_per_side_etc = 1;
  sp.total_hashrate = 3e4;
  sp.etc_hashpower_fraction = 0.25;
  sp.fork_block = 6;
  sp.funded_accounts = 4;
  sp.seed = 20160720;
  return sp;
}

constexpr double kRunSeconds = 400.0;
constexpr std::size_t kTracePrefix = 256;

struct GoldenRun {
  Hash256 telemetry_fp;
  Hash256 trace_fp;       // first kTracePrefix events
  std::string chrome_json;
  Hash256 head_eth;       // node 0's canonical head
  Hash256 head_etc;       // last node's canonical head
  std::uint64_t blocks_imported = 0;
};

GoldenRun run_instrumented(bool with_faults) {
  // The tracer is declared first so it outlives the scenario, whose
  // destructor stops every node and each stop records a trace instant.
  ForkScenario* clock = nullptr;
  obs::EventTracer tracer([&clock] { return clock->loop().now(); });
  ForkScenario scenario(golden_params());
  clock = &scenario;
  obs::Registry reg;
  scenario.attach_telemetry(reg, &tracer);

  std::unique_ptr<p2p::FaultInjector> faults;
  if (with_faults) {
    faults = std::make_unique<p2p::FaultInjector>(scenario.loop(), Rng(99));
    faults->attach_to(scenario.network());
    faults->set_extra_loss(0.15);
    faults->attach_telemetry(reg);
  }

  scenario.run_for(kRunSeconds);

  GoldenRun out;
  out.telemetry_fp = reg.fingerprint();
  out.trace_fp = tracer.fingerprint(kTracePrefix);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  out.chrome_json = os.str();
  out.head_eth = scenario.node(0).chain().head().hash();
  out.head_etc =
      scenario.node(scenario.node_count() - 1).chain().head().hash();
  out.blocks_imported = reg.counter_value("node.blocks_imported");
  return out;
}

TEST(GoldenTraceTest, SameSeedRunsFingerprintIdentically) {
  const GoldenRun first = run_instrumented(/*with_faults=*/false);
  const GoldenRun second = run_instrumented(/*with_faults=*/false);

  // the run did real work: blocks flowed and both fork sides diverged
  EXPECT_GT(first.blocks_imported, 0u);
  EXPECT_NE(first.head_eth, first.head_etc);

  // bit-identical telemetry and (truncated) trace, byte-identical export
  EXPECT_EQ(first.telemetry_fp, second.telemetry_fp);
  EXPECT_EQ(first.trace_fp, second.trace_fp);
  EXPECT_EQ(first.chrome_json, second.chrome_json);
  EXPECT_EQ(first.head_eth, second.head_eth);
  EXPECT_EQ(first.head_etc, second.head_etc);
}

// The engine-upgrade guard: these constants are the fingerprints the
// golden scenario produced on the pre-journal state engine (whole-map
// snapshots, from-scratch root builds, no header hash cache). The
// journaled engine, the incremental root commit, the memoizing trie, and
// the header LRU are all pure optimizations — same seed must still
// produce these exact bytes. If this test fails, the new engine changed
// observable behavior, not just speed.
TEST(GoldenTraceTest, FingerprintsMatchPreJournalEngine) {
  const auto expect = [](std::string_view hex) {
    const auto h = Hash256::from_hex(hex);
    EXPECT_TRUE(h.has_value());
    return *h;
  };

  const GoldenRun run = run_instrumented(/*with_faults=*/false);
  EXPECT_EQ(run.telemetry_fp,
            expect("b7a61852560c75a69036569a82d23d2a"
                   "096d9ef0051966dd9b60d6b4a6795aae"));
  EXPECT_EQ(run.trace_fp,
            expect("8f2d9d88c203f779e81e4abbea5a4c8e"
                   "8e3710fed23df40a200bed8ad9b47224"));
  EXPECT_EQ(run.head_eth,
            expect("cce771fb9b78cc0ac8fedc1bb5edf5c4"
                   "3e54aed149c57671d705539e9d799295"));
  EXPECT_EQ(run.head_etc,
            expect("b7ce2fba706c902ffbfc430d21a5520a"
                   "6210e92921b20e8086f2cac4ed4c0724"));
}

TEST(GoldenTraceTest, InjectedFaultsChangeTheFingerprints) {
  const GoldenRun clean = run_instrumented(/*with_faults=*/false);
  const GoldenRun faulty = run_instrumented(/*with_faults=*/true);

  EXPECT_NE(clean.telemetry_fp, faulty.telemetry_fp);
  EXPECT_NE(clean.trace_fp, faulty.trace_fp);
}

// Attaching a registry and tracer must not perturb the simulation: a
// bare same-seed run reaches the exact same chain state draw for draw.
TEST(GoldenTraceTest, AttachingTelemetryDoesNotPerturbTheRun) {
  const GoldenRun instrumented = run_instrumented(/*with_faults=*/false);

  ForkScenario bare(golden_params());
  bare.run_for(kRunSeconds);
  EXPECT_EQ(bare.node(0).chain().head().hash(), instrumented.head_eth);
  EXPECT_EQ(bare.node(bare.node_count() - 1).chain().head().hash(),
            instrumented.head_etc);
}

// The scenario-matrix golden: a same-seed sweep — two composed cells,
// each a full chaos run with the availability probe sampling — must
// reproduce the matrix fingerprint bit for bit, down to every cell's run
// fingerprint and every availability number the probe folded in.
TEST(GoldenTraceTest, SameSeedMatrixSweepsFingerprintIdentically) {
  MatrixParams mp;
  ChaosParams& cp = mp.base;
  cp.scenario.nodes_eth = 4;
  cp.scenario.nodes_etc = 2;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 6;
  cp.scenario.funded_accounts = 4;
  cp.scenario.seed = 20160720;
  cp.extra_loss = 0.05;
  cp.restart_prob = 1.0;
  cp.mining_duration = 350.0;
  cp.settle_deadline = 350.0;
  mp.failure_start = 120.0;
  mp.axes.offline_share = {0.0, 0.3};
  mp.axes.partitioned_share = {0.5};
  mp.axes.partition_duration = {40.0};

  const MatrixReport first = MatrixRunner(mp).run();
  const MatrixReport second = MatrixRunner(mp).run();

  ASSERT_EQ(first.cells.size(), 2u);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    const ChaosReport& a = first.cells[i].report;
    const ChaosReport& b = second.cells[i].report;
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "cell " << i;
    EXPECT_EQ(a.telemetry.fingerprint(), b.telemetry.fingerprint())
        << "cell " << i;
    EXPECT_DOUBLE_EQ(a.availability.pre, b.availability.pre) << "cell " << i;
    EXPECT_DOUBLE_EQ(a.availability.during_failure,
                     b.availability.during_failure)
        << "cell " << i;
    EXPECT_DOUBLE_EQ(a.availability.post, b.availability.post)
        << "cell " << i;
    EXPECT_DOUBLE_EQ(a.availability.time_to_heal, b.availability.time_to_heal)
        << "cell " << i;
    EXPECT_EQ(a.availability.samples, b.availability.samples) << "cell " << i;
  }
  // the probe did real work: samples were taken and the probed
  // fingerprints differ across cells (the second cell adds churn)
  EXPECT_GT(first.cells[0].report.availability.samples, 0u);
  EXPECT_NE(first.cells[0].report.fingerprint,
            first.cells[1].report.fingerprint);
}

// Every opt-in chaos layer at once: Byzantine adversaries, an eclipse
// swarm, cold restarts over faulty disks, and a consensus-bug client mix.
// Their defense, fork-monitor, eclipse and durability metrics appear in a
// registry only once they count something, so the clean golden above never
// sees them; this one pins them.
ChaosParams all_layers_params() {
  ChaosParams cp;
  cp.scenario.nodes_eth = 8;
  cp.scenario.nodes_etc = 3;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 6;
  cp.scenario.funded_accounts = 4;
  cp.scenario.seed = 20160720;
  cp.scenario.clients.enabled = true;
  cp.scenario.clients.onset_time = 80.0;
  cp.scenario.clients.patch_time = 160.0;
  cp.scenario.clients.trigger_modulus = 1;
  cp.cut_start = -1.0;
  cp.churn_fraction = 0.3;
  cp.churn_start = 40.0;
  cp.churn_end = 200.0;
  cp.mean_downtime = 30.0;
  cp.restart_prob = 1.0;
  cp.cold_restart_prob = 1.0;
  cp.storage_faults.torn_write_prob = 0.5;
  cp.storage_faults.tail_truncate_prob = 0.5;
  cp.storage_faults.bit_rot_prob = 0.5;
  cp.adversaries.fraction = 0.3;
  cp.adversaries.start = 30.0;
  cp.adversaries.interval = 3.0;
  cp.eclipse.budget = 32;
  cp.eclipse.start = 30.0;
  cp.mining_duration = 400.0;
  cp.settle_deadline = 120.0;
  return cp;
}

TEST(GoldenTraceTest, AllLayersPinLazilyRegisteredMetrics) {
  const ChaosReport report = ChaosRunner(all_layers_params()).run();

  std::vector<std::string> names;
  for (const auto& [name, value] : report.telemetry.counters)
    names.push_back(name);
  for (const auto& [name, value] : report.telemetry.gauges)
    names.push_back(name);
  for (const auto& h : report.telemetry.histograms) names.push_back(h.name);
  std::sort(names.begin(), names.end());
  // This run never rate-limits, prechecks, evicts from a pool or suspects
  // an eclipse, so those lazily registered names must stay absent too.
  const std::vector<std::string> expected_names = {
      "adversary.blocks_forged", "adversary.eclipse.lookups_answered",
      "adversary.eclipse.rounds", "adversary.eclipse.status_floods",
      "adversary.eclipse.table_floods", "adversary.eclipse.withheld_requests",
      "adversary.equivocations", "adversary.phantom_announcements",
      "adversary.rounds", "adversary.txs_spammed", "chain.blocks_produced",
      "chain.import.already_known", "chain.import.disputed",
      "chain.import.imported", "chain.import.invalid_body",
      "chain.import.invalid_header", "chain.import.invalid_ommers",
      "chain.import.unknown_parent", "chain.import.wrong_fork",
      "chain.reorg_depth", "db.appends", "db.bytes_appended",
      "db.recovery.blocks_replayed", "db.recovery.corrupt_records",
      "db.recovery.records_scanned", "db.recovery.seconds", "evm.gas_used",
      "evm.ops", "evm.txs_executed", "evm.txs_failed", "evm.txs_rejected",
      "faults.dropped_by_cut", "faults.dropped_by_filter",
      "faults.dropped_by_loss", "faults.duplicated", "faults.link_overrides",
      "faults.reordered", "net.bytes_sent", "net.delay_seconds",
      "net.dropped_detached", "net.dropped_loss", "net.messages_delivered",
      "net.messages_sent", "node.blocks_imported", "node.cold_restarts",
      "node.dial_attempts", "node.duplicate_block_pushes",
      "node.fork_monitor.consensus_patches",
      "node.fork_monitor.disputed_blocks",
      "node.fork_monitor.divergence_events", "node.ingress.equivocations",
      "node.ingress.invalid_cache_hits", "node.ingress.withheld",
      "node.orphan_evictions", "node.orphan_occupancy", "node.sync_gave_up",
      "node.sync_retries", "node.sync_timeouts", "node.txs_received",
      "node.wasted_executions", "peers.bans", "peers.inbound_rejections",
      "peers.liveness_drops", "peers.wrong_fork_drops",
      "trie.hash_recomputations", "trie.node_visits", "trie.reads",
      "trie.writes", "txpool.added", "txpool.already_known",
      "txpool.invalid_signature", "txpool.nonce_too_low", "txpool.pool_full",
      "txpool.replaced_existing", "txpool.size", "txpool.underpriced",
      "txpool.wrong_chain_id"};
  EXPECT_EQ(names, expected_names);

  EXPECT_EQ(report.telemetry.fingerprint(),
            *Hash256::from_hex("b2c6c1eaf845f4787ea81709672fd2be"
                               "d8109b01fa73d9b292c59bd67705bf5a"));
}

// The exported Chrome trace is Perfetto-loadable: non-empty, and the
// "ts" sequence (sim microseconds) is monotone non-decreasing.
TEST(GoldenTraceTest, ChromeTraceTimestampsAreMonotone) {
  const GoldenRun run = run_instrumented(/*with_faults=*/false);
  const std::string& json = run.chrome_json;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');

  std::vector<double> ts;
  for (std::size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 1))
    ts.push_back(std::strtod(json.c_str() + pos + 5, nullptr));
  ASSERT_GT(ts.size(), 10u);
  for (std::size_t i = 1; i < ts.size(); ++i)
    ASSERT_GE(ts[i], ts[i - 1]) << "event " << i << " out of order";
  // everything happened inside the simulated window
  EXPECT_LE(ts.back(), kRunSeconds * 1e6);
}

}  // namespace
}  // namespace forksim::sim
