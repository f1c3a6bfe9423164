#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/chain.hpp"
#include "core/state.hpp"
#include "crypto/keccak.hpp"
#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "p2p/topology.hpp"
#include "sim/matrix.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"
#include "sim/txgen.hpp"
#include "support/stats.hpp"
#include "timing_executor.hpp"
#include "trie/trie.hpp"

namespace perfbench {

using namespace forksim;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t stream(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(splitmix64(seed) ^ splitmix64(0x5eed0000ull + index));
}

/// The mining race (who finds each block, and when) is a constant of the
/// full-node gossip and ScaleSim workloads, not an input drawn from --seed:
/// with it fixed, every seed mines about the same number of blocks, so the
/// seed-to-seed spread of a timing reflects the engines rather than
/// Poisson noise in how much work a seed happened to generate.
constexpr std::uint64_t kMiningRaceSeed = 1916;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Engine-global counters are process-wide; a run reports its own deltas.
struct GlobalCounters {
  core::EngineCounters engine = core::engine_counters();
  trie::TrieCounters trie = trie::counters();
};

/// Accumulates a run's exact work counts (summed over the engines a run
/// drives) and derives the ratios once every engine has reported.
class Recorder {
 public:
  explicit Recorder(RunResult& out) : out_(out) {}

  void add(const std::string& name, std::uint64_t v) {
    out_.counts[name] += static_cast<double>(v);
  }
  void check(const std::string& name, bool passed) {
    out_.checks.push_back({name, passed});
  }

  void scheduler(const p2p::TimedQueueProfile& p) {
    add("p2p.scheduler.pushes", p.pushes);
    add("p2p.scheduler.pops", p.pops);
    add("p2p.scheduler.cancels", p.cancels);
    add("p2p.scheduler.sift_steps", p.sift_steps);
    double& max_size = out_.counts["p2p.scheduler.max_size"];
    max_size = std::max(max_size, static_cast<double>(p.max_size));
  }

  void network(const p2p::Network& net) {
    add("p2p.simnet.messages_sent", net.messages_sent());
    add("p2p.simnet.messages_delivered", net.messages_delivered());
    add("p2p.simnet.bytes_sent", net.bytes_sent());
  }

  void node(sim::FullNode& n) {  // txpool() has no const overload
    add("sim.node.dup_block_pushes", n.duplicate_block_pushes());
    add("sim.node.txs_received", n.txs_received());
    add("sim.node.sync_timeouts", n.sync_timeouts());
    add("sim.node.sync_retries", n.sync_retries());
    add("core.txpool.evicted", n.txpool().evictions());
  }

  void engine_deltas(const GlobalCounters& base) {
    const core::EngineCounters& e = core::engine_counters();
    const trie::TrieCounters& t = trie::counters();
    add("core.state.root_commits_full",
        e.root_commits_full - base.engine.root_commits_full);
    add("core.state.root_commits_incremental",
        e.root_commits_incremental - base.engine.root_commits_incremental);
    add("core.state.journal_entries",
        e.journal_entries - base.engine.journal_entries);
    add("core.chain.header_cache_hits",
        e.header_cache_hits - base.engine.header_cache_hits);
    add("core.chain.header_cache_misses",
        e.header_cache_misses - base.engine.header_cache_misses);
    add("trie.hash_recomputations",
        t.hash_recomputations - base.trie.hash_recomputations);
    add("trie.node_visits", t.node_visits - base.trie.node_visits);
    add("trie.writes", t.writes - base.trie.writes);
  }

  /// Chain, txpool and EVM counts that exist only in a telemetry registry.
  void registry(const obs::Snapshot& snap) {
    for (const char* r :
         {"imported", "already_known", "unknown_parent", "invalid_header",
          "invalid_body", "invalid_ommers", "wrong_fork", "disputed"})
      add("core.chain.import_attempts",
          snap.counter_value(std::string("chain.import.") + r));
    add("core.chain.imported", snap.counter_value("chain.import.imported"));
    for (const auto& h : snap.histograms)
      if (h.name == "chain.reorg_depth") {
        add("core.chain.reorgs", h.count);
        add("core.chain.reorg_depth_sum", static_cast<std::uint64_t>(h.sum));
      }
    add("core.txpool.added", snap.counter_value("txpool.added"));
    for (const char* r : {"invalid_signature", "wrong_chain_id",
                          "nonce_too_low", "underpriced", "pool_full"})
      add("core.txpool.rejected", snap.counter_value(std::string("txpool.") + r));
    add("evm.txs", snap.counter_value("evm.txs_executed"));
    add("evm.ops", snap.counter_value("evm.ops"));
  }

  /// Ratios of the summed counts, including the work per import that later
  /// import-path changes cite. A ratio exists only when its numerator was
  /// counted, so an untraced run lacks exactly the registry-derived ones.
  void finish() {
    auto& c = out_.counts;
    const double imports = static_cast<double>(out_.imports);
    const double events = static_cast<double>(out_.events);
    c["sim.run.events"] = events;
    c["sim.run.imports"] = imports;
    const auto get = [&c](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? 0.0 : it->second;
    };
    const auto derive = [&c](const char* name, const char* num, double den) {
      if (const auto it = c.find(num); it != c.end())
        c[name] = ratio(it->second, den);
    };
    derive("p2p.scheduler.sift_per_pop", "p2p.scheduler.sift_steps",
           get("p2p.scheduler.pops"));
    derive("p2p.scheduler.pops_per_import", "p2p.scheduler.pops", imports);
    derive("p2p.simnet.bytes_per_import", "p2p.simnet.bytes_sent", imports);
    derive("trie.hashes_per_import", "trie.hash_recomputations", imports);
    derive("core.chain.useful_import_ratio", "core.chain.imported",
           get("core.chain.import_attempts"));
    derive("core.chain.header_cache_hit_ratio", "core.chain.header_cache_hits",
           get("core.chain.header_cache_hits") +
               get("core.chain.header_cache_misses"));
    derive("sim.scalesim.useful_ratio", "sim.scalesim.deliveries", events);
    derive("sim.pdes.cross_shard_share", "sim.pdes.cross_shard_msgs", events);
    if (c.contains("sim.pdes.epochs"))
      c["sim.pdes.events_per_epoch"] = ratio(events, c["sim.pdes.epochs"]);
  }

 private:
  RunResult& out_;
};

// ---------------------------------------------------------------- gossip --

p2p::NodeId gossip_node_id(std::uint64_t identity, std::size_t i) {
  Keccak256 h;
  h.update(std::string_view("perfbench/gossip-node"));
  const auto a = be_fixed64(identity);
  const auto b = be_fixed64(i);
  h.update(BytesView(a.data(), a.size()));
  h.update(BytesView(b.data(), b.size()));
  return h.digest();
}

RunResult run_gossip(std::uint64_t seed, const RunOptions& options) {
  const GossipParams p = gossip_params(seed);
  const bool traced = options.traced;
  RunResult out;
  Recorder rec(out);
  const GlobalCounters base;
  obs::Registry registry;

  std::vector<PrivateKey> accounts;
  core::GenesisAlloc alloc;
  for (std::size_t i = 0; i < p.accounts; ++i) {
    accounts.push_back(PrivateKey::from_seed(stream(p.seeds.identity, i)));
    alloc.emplace_back(derive_address(accounts.back()), core::ether(100000));
  }
  sim::NodeOptions node_options;
  node_options.gossip.push_exponent = p.push_exponent;
  node_options.genesis_difficulty = U256(p.genesis_difficulty);

  // Declared outside the setup span: the loop, network and executors must
  // outlive the nodes that reference them.
  const auto setup_start = Clock::now();
  p2p::EventLoop loop;
  p2p::Network network(loop, Rng(p.seeds.network), p.latency);
  evm::EvmExecutor evm;
  TimingExecutor timing(evm);
  core::Executor& executor = traced ? static_cast<core::Executor&>(timing) : evm;
  std::vector<std::unique_ptr<sim::FullNode>> nodes;
  {
    ScopedSpan span(options.spans, "setup.engine");
    for (std::size_t i = 0; i < p.nodes; ++i)
      nodes.push_back(std::make_unique<sim::FullNode>(
          network, gossip_node_id(p.seeds.identity, i),
          core::ChainConfig::mainnet_pre_fork(), executor, alloc,
          Rng(stream(p.seeds.engine, i)), node_options));
    for (auto& node : nodes) node->start({nodes[0]->id()});
    if (traced) {
      network.attach_telemetry(registry);
      evm.attach_telemetry(registry);
      for (auto& node : nodes) {
        node->attach_telemetry(registry);
        node->chain().attach_telemetry(registry);
        node->txpool().attach_telemetry(registry);
      }
    }
  }
  out.setup_s = since(setup_start);

  const auto wall_start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  {
    ScopedSpan span(options.spans, "run.mesh");
    loop.run_until(p.mesh_seconds);
  }
  std::vector<sim::FullNode*> entry_points;
  for (auto& node : nodes) entry_points.push_back(node.get());
  sim::TxGenerator::Options tx_options;
  tx_options.mean_interval = p.tx_interval;
  sim::TxGenerator txgen(entry_points, accounts, Rng(p.seeds.txgen), tx_options);
  sim::Miner m1(*nodes[1], Address::left_padded(Bytes{0x01}), p.miner_hashrate,
                Rng(stream(kMiningRaceSeed, 1)));
  sim::Miner m2(*nodes[2], Address::left_padded(Bytes{0x02}), p.miner_hashrate,
                Rng(stream(kMiningRaceSeed, 2)));
  {
    ScopedSpan span(options.spans, "run.mining");
    txgen.start();
    m1.start();
    m2.start();
    loop.run_until(loop.now() + p.mining_seconds);
    m1.stop();
    m2.stop();
    txgen.stop();
  }
  {
    ScopedSpan span(options.spans, "run.drain");
    loop.run_until(loop.now() + p.drain_seconds);
  }
  out.wall_s = since(wall_start);
  out.cell_wall_s = {out.wall_s};
  out.cpu_s = process_cpu_seconds() - cpu_start;

  // Fingerprint: every node's head and height plus the network counters.
  out.events = loop.scheduler_profile().pops;
  std::uint64_t bans = 0;
  std::unordered_set<Hash256, Hash256Hasher> heads;
  Keccak256 fp;
  fp.update(std::string_view("perfbench/gossip-fingerprint"));
  const auto fold = [&fp](std::uint64_t v) {
    const auto be = be_fixed64(v);
    fp.update(BytesView(be.data(), be.size()));
  };
  for (const auto& node : nodes) {
    const Hash256 head = node->chain().head().hash();
    fp.update(head.view());
    fold(node->chain().height());
    heads.insert(head);
    out.imports += node->blocks_imported();
    bans += node->peers_banned();
    rec.node(*node);
  }
  rec.add("sim.node.honest_bans", bans);
  fold(network.messages_sent());
  fold(network.messages_delivered());
  fold(network.bytes_sent());
  out.fingerprint = fp.digest();

  rec.check("gossip.converged_single_head", heads.size() == 1);
  rec.check("gossip.zero_honest_bans", bans == 0);
  rec.check("gossip.blocks_mined", m1.blocks_mined() + m2.blocks_mined() > 0 &&
                                       nodes[0]->chain().height() > 0);

  rec.scheduler(loop.scheduler_profile());
  rec.network(network);
  rec.engine_deltas(base);
  if (traced) {
    rec.registry(registry.snapshot());
    out.timings["evm.execute_s"] = timing.seconds();
    out.timings["evm.execute_us_per_tx"] =
        ratio(timing.seconds() * 1e6, static_cast<double>(timing.calls()));
  }
  rec.finish();

  if (traced) {
    // Import self time: node 0's canonical chain re-imported into a fresh
    // chain through the timing decorator, chain time minus EVM time. Runs
    // after the counts are taken, so its work is not in them.
    ScopedSpan span(options.spans, "replay.import");
    evm::EvmExecutor replay_evm;
    TimingExecutor replay_timing(replay_evm);
    core::Blockchain fresh(core::ChainConfig::mainnet_pre_fork(), replay_timing,
                           alloc, node_options.genesis_gas_limit,
                           node_options.genesis_difficulty);
    const core::Blockchain& source = nodes[0]->chain();
    std::vector<double> self_us;
    bool all_imported = true;
    double self_total = 0.0;
    for (core::BlockNumber n = 1; n <= source.height(); ++n) {
      const double evm_before = replay_timing.seconds();
      const auto start = Clock::now();
      const core::ImportOutcome outcome =
          fresh.import(*source.block_by_number(n));
      const double chain_s = since(start);
      const double self_s =
          std::max(0.0, chain_s - (replay_timing.seconds() - evm_before));
      self_total += self_s;
      self_us.push_back(self_s * 1e6);
      all_imported =
          all_imported && outcome.result == core::ImportResult::kImported;
    }
    rec.check("gossip.replay_reproduces_head",
              all_imported && fresh.head().hash() == source.head().hash());
    out.timings["core.chain.import_self_s"] = self_total;
    out.timings["core.chain.import_us_p50"] = percentile(self_us, 50.0);
    out.timings["core.chain.import_us_p99"] = percentile(self_us, 99.0);
  }
  return out;
}

// ----------------------------------------------------------------- chaos --

RunResult run_chaos(std::uint64_t seed, const RunOptions& options) {
  RunResult out;
  Recorder rec(out);
  const GlobalCounters base;
  Keccak256 fp;
  fp.update(std::string_view("perfbench/chaos-fingerprint"));
  for (std::size_t cell = 0; cell < kChaosCells; ++cell) {
    const std::string tag = "chaos.cell" + std::to_string(cell) + ".";
    const auto setup_start = Clock::now();
    std::optional<sim::ChaosRunner> runner;
    {
      ScopedSpan span(options.spans, "setup.engine");
      runner.emplace(chaos_params(seed, cell));
    }
    out.setup_s += since(setup_start);

    const auto wall_start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    sim::ChaosReport report;
    {
      ScopedSpan span(options.spans, "run.chaos");
      report = runner->run();
    }
    out.cell_wall_s.push_back(since(wall_start));
    out.wall_s += out.cell_wall_s.back();
    out.cpu_s += process_cpu_seconds() - cpu_start;

    sim::ForkScenario& scenario = runner->scenario();
    out.events += scenario.loop().scheduler_profile().pops;
    for (std::size_t i = 0; i < scenario.node_count(); ++i) {
      out.imports += scenario.node(i).blocks_imported();
      rec.node(scenario.node(i));
    }
    fp.update(report.fingerprint.view());

    rec.check(tag + "converged", report.converged);
    rec.check(tag + "db_replay_rejected_zero", report.store_replay_rejected == 0);
    // Not gated: with cold restarts off corrupting disks, honest nodes of
    // this cell ban each other in about half of all seeds. Counted instead.
    rec.add("sim.node.honest_bans", report.honest_ban_events);

    rec.scheduler(scenario.loop().scheduler_profile());
    rec.network(scenario.network());
    // The runner's registry is part of the engine, so these exist untraced.
    rec.registry(report.telemetry);
    rec.add("db.appends", report.store_appends);
    rec.add("db.records_scanned", report.store_records_scanned);
    rec.add("db.blocks_replayed", report.store_blocks_replayed);
    rec.add("db.corrupt_records", report.store_corrupt_records);
    rec.add("db.replay_rejected", report.store_replay_rejected);
  }
  out.fingerprint = fp.digest();
  rec.engine_deltas(base);
  rec.finish();
  return out;
}

// ----------------------------------------------------------------- scale --

RunResult run_scale(std::string_view workload, std::uint64_t seed,
                    const RunOptions& options) {
  RunResult out;
  Recorder rec(out);
  const sim::ScaleParams params = scale_params(workload, seed);
  out.shards = params.num_shards;

  std::optional<Hash256> standalone_digest;
  if (options.traced) {
    ScopedSpan span(options.spans, "p2p.topology.generate");
    standalone_digest =
        p2p::generate_topology(params.topology, params.nodes).digest();
  }

  const auto setup_start = Clock::now();
  std::optional<sim::ScaleSim> engine;
  {
    ScopedSpan span(options.spans, "setup.engine");
    engine.emplace(params);
  }
  out.setup_s = since(setup_start);

  const auto wall_start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  sim::ScaleReport report;
  {
    ScopedSpan span(options.spans, "sim.scalesim.run");
    report = engine->run();
  }
  out.wall_s = since(wall_start);
  out.cell_wall_s = {out.wall_s};
  out.cpu_s = process_cpu_seconds() - cpu_start;

  out.events = report.events;
  out.imports = report.deliveries;
  out.fingerprint = report.fingerprint;
  rec.check("scale.converged", report.converged && report.distinct_heads == 1);
  rec.check("scale.blocks_mined", report.blocks_mined > 0);
  if (options.traced) {
    rec.check("scale.standalone_topology_matches",
              *standalone_digest == report.topology_digest);
    // the merged per-shard telemetry must agree with the report
    obs::Registry registry;
    engine->export_telemetry(registry);
    rec.check("scale.telemetry_matches_report",
              registry.counter_value("scalesim.deliveries") == report.deliveries &&
                  registry.counter_value("scalesim.events") == report.events);
  }

  rec.scheduler(report.scheduler);
  rec.add("sim.scalesim.deliveries", report.deliveries);
  rec.add("sim.scalesim.dup_suppressed", report.dup_suppressed);
  rec.add("sim.pdes.epochs", report.epochs);
  rec.add("sim.pdes.cross_shard_msgs", report.cross_shard_messages);
  out.counts["sim.pdes.lookahead_s"] = report.shards > 1 ? report.lookahead : 0.0;
  rec.finish();
  return out;
}

}  // namespace

bool is_workload(std::string_view name) {
  return std::find(kWorkloads.begin(), kWorkloads.end(), name) !=
         kWorkloads.end();
}

InputSeeds derive_seeds(std::uint64_t seed) {
  InputSeeds s;
  s.engine = stream(seed, 0);
  s.network = stream(seed, 1);
  s.identity = stream(seed, 2);
  s.topology = stream(seed, 3);
  s.geo = stream(seed, 4);
  s.txgen = stream(seed, 5);
  return s;
}

GossipParams gossip_params(std::uint64_t seed) {
  GossipParams p;
  p.seeds = derive_seeds(seed);
  return p;
}

sim::ChaosParams chaos_params(std::uint64_t seed, std::size_t cell) {
  sim::MatrixParams mp;
  sim::ChaosParams& cp = mp.base;
  cp.scenario.nodes_eth = 12;
  cp.scenario.nodes_etc = 6;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 8;
  cp.scenario.seed = stream(derive_seeds(seed).engine, cell);
  cp.extra_loss = 0.0;
  cp.duplicate_prob = 0.0;
  cp.reorder_prob = 0.0;
  cp.restart_prob = 1.0;
  cp.mean_downtime = 60.0;
  cp.cold_restart_prob = 1.0;
  cp.storage_faults.torn_write_prob = 0.3;
  cp.storage_faults.tail_truncate_prob = 0.3;
  cp.storage_faults.bit_rot_prob = 0.2;
  cp.mining_duration = 1000.0;
  cp.settle_deadline = 800.0;
  cp.probe.interval = 5.0;
  cp.probe.quorum_fraction = 0.6;
  cp.probe.max_head_lag = 2;
  cp.probe.heal_sustain = 30.0;
  mp.failure_start = 300.0;

  sim::MatrixCellSpec heaviest;
  heaviest.byzantine_share = 0.25;
  heaviest.offline_share = 0.4;
  heaviest.partitioned_share = 0.5;
  heaviest.partition_duration = 60.0;
  return sim::compose_cell(mp, heaviest);
}

sim::ScaleParams scale_params(std::string_view workload, std::uint64_t seed) {
  const InputSeeds seeds = derive_seeds(seed);
  sim::ScaleParams p;
  p.nodes = 5000;
  p.topology.degree = 16;
  p.topology.seed = seeds.topology;
  p.uniform_base = 0.05;
  p.miners = 24;
  p.block_interval = 13.0;
  p.duration = 450.0;
  p.seed = kMiningRaceSeed;  // ScaleSim pre-draws the race from it
  if (workload == "scale_flat_5k") return p;
  if (workload == "scale_geo_5k_k4") {
    p.geo = p2p::GeoParams::internet();
    p.geo.enabled = true;
    p.geo.seed = seeds.geo;
    p.num_shards = 4;
    return p;
  }
  throw std::invalid_argument("scale_params: not a ScaleSim workload: " +
                              std::string(workload));
}

RunResult run_workload(std::string_view workload, std::uint64_t seed,
                       const RunOptions& options) {
  if (workload == "fullnode_gossip") return run_gossip(seed, options);
  if (workload == "fullnode_chaos") return run_chaos(seed, options);
  return run_scale(workload, seed, options);
}

std::optional<Hash256> single_shard_fingerprint(std::string_view workload,
                                                std::uint64_t seed) {
  if (workload != "scale_geo_5k_k4") return std::nullopt;
  sim::ScaleParams params = scale_params(workload, seed);
  params.num_shards = 1;
  return sim::ScaleSim(params).run().fingerprint;
}

std::optional<std::string_view> pinned_fingerprint(std::string_view workload,
                                                   std::uint64_t seed) {
  struct Pin {
    std::string_view workload;
    std::uint64_t seed;
    std::string_view fingerprint;
  };
  // Seed 42, recorded when the benchmark was defined. An engine change
  // that alters any of these is a behaviour change, not a speed-up.
  static constexpr Pin kPins[] = {
      {"fullnode_gossip", 42,
       "f37b95d54756e935f0fec05fa6206fb8c95b861c2f0fcdd51b281f1a61a5a62d"},
      {"fullnode_chaos", 42,
       "43f27a25ca1094471742f7850c815bec346a98eca6ea661dc3f59cdebfe0ae15"},
      {"scale_flat_5k", 42,
       "2fb05428076f675a4e4910d5a5168a10cdc20318bf7c77242e560a5a2e48e43e"},
      // ScaleReport's fingerprint folds heads and delivery counts, not
      // latencies: the geo run settles on the same outcome as the flat one.
      {"scale_geo_5k_k4", 42,
       "2fb05428076f675a4e4910d5a5168a10cdc20318bf7c77242e560a5a2e48e43e"},
  };
  for (const Pin& pin : kPins)
    if (pin.workload == workload && pin.seed == seed) return pin.fingerprint;
  return std::nullopt;
}

}  // namespace perfbench
