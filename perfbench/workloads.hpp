// The benchmark's four workloads: how each is built from --seed, and one
// deterministic run of it through the engines' public API.
//
// The seed reaches the engines only through InputSeeds: every other
// parameter of a workload is a constant of the benchmark, so two seeds
// differ only in the generated inputs (keys, ids, graph, placement, the
// mining race, the transaction stream).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "p2p/simnet.hpp"
#include "sim/chaos.hpp"
#include "sim/scalesim.hpp"
#include "spans.hpp"

namespace perfbench {

inline constexpr std::array<std::string_view, 4> kWorkloads = {
    "fullnode_gossip", "fullnode_chaos", "scale_flat_5k", "scale_geo_5k_k4"};

bool is_workload(std::string_view name);

/// Independent streams derived from --seed (splitmix64 over (seed, stream)).
struct InputSeeds {
  std::uint64_t engine = 0;    // node rngs / chaos scenario seeds
  std::uint64_t network = 0;   // latency jitter stream
  std::uint64_t identity = 0;  // node ids and account keys
  std::uint64_t topology = 0;  // gossip graph
  std::uint64_t geo = 0;       // region placement
  std::uint64_t txgen = 0;     // transaction stream

  friend bool operator==(const InputSeeds&, const InputSeeds&) = default;
};

InputSeeds derive_seeds(std::uint64_t seed);

/// A3's sqrt-push WAN configuration, rescaled in mining time only.
struct GossipParams {
  std::size_t nodes = 16;
  std::size_t accounts = 24;
  double push_exponent = 0.5;
  forksim::p2p::LatencyModel latency = forksim::p2p::LatencyModel::wan();
  std::uint64_t genesis_difficulty = 400'000;
  double miner_hashrate = 2e4;  // each of the two competing miners
  double tx_interval = 2.0;     // mean seconds between submitted transfers
  double mesh_seconds = 60.0;
  double mining_seconds = 300.0;
  double drain_seconds = 30.0;
  InputSeeds seeds;
};

GossipParams gossip_params(std::uint64_t seed);
/// One fullnode_chaos repetition runs this many cells, each with its own
/// scenario seed drawn from --seed: the chaos scenario draws everything
/// (mining race included) from one seed, and summing cells evens out how
/// much work a single draw happens to generate (at three cells, events and
/// imports per repetition spread by about 11% across eight seeds).
inline constexpr std::size_t kChaosCells = 3;

/// A9's base composed with its heaviest cell, scaled to 12 ETH + 6 ETC;
/// `cell` < kChaosCells picks the scenario seed.
forksim::sim::ChaosParams chaos_params(std::uint64_t seed, std::size_t cell);
/// ScaleSim u16_5000: flat for scale_flat_5k, internet geo and 4 shards
/// for scale_geo_5k_k4. Throws std::invalid_argument for other names.
forksim::sim::ScaleParams scale_params(std::string_view workload,
                                       std::uint64_t seed);

struct Check {
  std::string name;
  bool passed = false;
};

struct RunResult {
  double setup_s = 0.0;  // engine construction up to the first event
  double wall_s = 0.0;   // first event to the drained report
  /// wall_s split per simulation: one entry per chaos cell, one otherwise.
  std::vector<double> cell_wall_s;
  double cpu_s = 0.0;    // process CPU time over wall_s (all threads)
  std::uint64_t events = 0;
  std::uint64_t imports = 0;
  std::size_t shards = 1;
  forksim::Hash256 fingerprint;
  std::vector<Check> checks;
  /// Exact per-layer work counts and ratios of them: a pure function of
  /// (workload, seed, traced), compared across runs for equality.
  std::map<std::string, double> counts;
  /// Per-layer wall-clock figures of a traced run (never compared).
  std::map<std::string, double> timings;
};

struct RunOptions {
  /// Attach the telemetry registry and the timing executor, run the
  /// standalone topology generation and the import replay.
  bool traced = false;
  /// Span sink (traced runs); null records nothing.
  SpanRecorder* spans = nullptr;
};

RunResult run_workload(std::string_view workload, std::uint64_t seed,
                       const RunOptions& options);

/// For scale_geo_5k_k4: the fingerprint of the same parameters on one
/// shard, which the sharded run must reproduce bit for bit. Nullopt for
/// the other workloads.
std::optional<forksim::Hash256> single_shard_fingerprint(
    std::string_view workload, std::uint64_t seed);

/// Golden fingerprint pinned for (workload, seed), if one is recorded.
std::optional<std::string_view> pinned_fingerprint(std::string_view workload,
                                                   std::uint64_t seed);

}  // namespace perfbench
