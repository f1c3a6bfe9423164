// Full-node fork scenario: a complete simulated network of protocol-
// faithful nodes living through the DAO hard fork. Used by the partition
// examples, the gossip ablation, and the integration tests — everywhere the
// paper's phenomena should *emerge* from the protocol rather than be
// parameterized.
//
// Timeline: all nodes share genesis and history. `fork_block` is scheduled
// in both configs; `dao_support` decides each node's side. When the chain
// reaches the fork height the populations diverge: fork blocks are mutually
// rejected (core::Blockchain), DAO challenges sever peer sessions
// (p2p::PeerSet), and two disjoint gossip components form — the partition.
#pragma once

#include <memory>
#include <optional>

#include "core/receipt.hpp"
#include "evm/executor.hpp"
#include "p2p/geo.hpp"
#include "p2p/topology.hpp"
#include "sim/clients.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::sim {

struct ScenarioParams {
  std::size_t nodes_eth = 18;       // nodes that adopt the fork
  std::size_t nodes_etc = 2;        // nodes that reject it (~10 %, paper §1)
  std::size_t miners_per_side_eth = 6;
  std::size_t miners_per_side_etc = 1;
  double total_hashrate = 50e3;     // hashes/second across all miners
  /// Fraction of hashpower staying on ETC after the fork (paper: ~10 %).
  double etc_hashpower_fraction = 0.10;
  core::BlockNumber fork_block = 30;
  U256 genesis_difficulty = U256(500'000);
  std::size_t funded_accounts = 32;
  p2p::LatencyModel latency = p2p::LatencyModel::wan();
  /// Explicit gossip topology (p2p/topology.hpp). Disabled (the default)
  /// keeps the historical wiring: everyone dials node 0 plus one random
  /// earlier node and the mesh emerges from discovery. Enabled, each
  /// node's bootstrap list is its generated-graph neighborhood, so degree
  /// distribution becomes a controlled variable. Chaos and matrix
  /// scenarios inherit this through ChaosParams::scenario unchanged.
  p2p::TopologyParams topology;
  /// Region-based latency (p2p/geo.hpp). Disabled by default; enabled,
  /// every link's base delay comes from the seeded region placement's
  /// RTT-class pair instead of the uniform `latency` model.
  p2p::GeoParams geo;
  /// Client-diversity + consensus-bug layer (sim/clients.hpp). Disabled by
  /// default; enabled, each node draws a client family from the seeded mix
  /// (fanout/tick multipliers applied), buggy-family nodes share a
  /// QuirkRuleSet overlay, and — when clients.patch_time >= 0 — the hotfix
  /// is scheduled at that sim time (the quirk disables, patched nodes pull
  /// the disputed branch back for full revalidation). Strictly opt-in:
  /// zero extra Rng draws while disabled.
  ClientMixParams clients;
  NodeOptions node_options;
  std::uint64_t seed = 1;
};

class ForkScenario {
 public:
  explicit ForkScenario(ScenarioParams params);
  ~ForkScenario();

  p2p::EventLoop& loop() noexcept { return loop_; }
  p2p::Network& network() noexcept { return network_; }
  const ScenarioParams& params() const noexcept { return params_; }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  FullNode& node(std::size_t i) { return *nodes_[i]; }
  Miner& miner(std::size_t i) { return *miners_[i]; }
  std::size_t miner_count() const noexcept { return miners_.size(); }

  /// Is node i on the fork-supporting (ETH) side?
  bool is_eth_node(std::size_t i) const { return i < params_.nodes_eth; }

  /// The generated gossip topology (null when params.topology is
  /// disabled) and region placement (null when params.geo is disabled).
  const p2p::Topology* topology() const noexcept {
    return params_.topology.enabled ? &topology_ : nullptr;
  }
  const p2p::GeoModel* geo_model() const noexcept {
    return geo_ ? &*geo_ : nullptr;
  }

  /// Funded account keys (same on every node — pre-fork state).
  const std::vector<PrivateKey>& accounts() const noexcept {
    return accounts_;
  }

  /// Node i's client family (kGeth for every node when the clients layer
  /// is disabled), the full seeded assignment (empty while disabled), and
  /// the shared quirk rule set (null while disabled).
  ClientFamily client_family_of(std::size_t i) const {
    return client_families_.empty() ? ClientFamily::kGeth
                                    : client_families_[i];
  }
  const std::vector<ClientFamily>& client_families() const noexcept {
    return client_families_;
  }
  const QuirkRuleSet* quirk_rules() const noexcept {
    return quirk_rules_.get();
  }

  /// Advance the simulation by `seconds` of simulated time.
  void run_for(double seconds);

  // ---- measurements ------------------------------------------------------
  /// Number of distinct canonical head hashes across running nodes; 1 =
  /// consensus, 2 = the partition (plus transient forks).
  std::size_t distinct_heads() const;
  /// Height of each side's best chain.
  core::BlockNumber best_height_eth() const;
  core::BlockNumber best_height_etc() const;
  /// Active peer links crossing the ETH/ETC divide.
  std::size_t cross_side_links() const;
  /// Total wrong-fork disconnects observed (the DAO challenge firing).
  std::uint64_t total_wrong_fork_drops() const;

  /// Wire every layer into `reg`: the network substrate, the shared EVM
  /// executor (per-opcode tallies), the trie counters, and each node's
  /// chain, txpool, sync, and peer metrics. With `tracer` non-null, nodes
  /// also emit sim-time trace events on lane = node index. Attaching never
  /// consumes Rng draws — a seeded run is unchanged draw for draw.
  void attach_telemetry(obs::Registry& reg,
                        obs::EventTracer* tracer = nullptr);

 private:
  ScenarioParams params_;
  Rng rng_;
  p2p::EventLoop loop_;
  p2p::Network network_;
  evm::EvmExecutor executor_;
  p2p::Topology topology_;            // empty unless params.topology.enabled
  std::optional<p2p::GeoModel> geo_;  // engaged iff params.geo.enabled
  std::vector<PrivateKey> accounts_;
  std::vector<ClientFamily> client_families_;   // empty unless clients on
  std::unique_ptr<QuirkRuleSet> quirk_rules_;   // null unless clients on
  std::vector<std::unique_ptr<FullNode>> nodes_;
  std::vector<std::unique_ptr<Miner>> miners_;
};

}  // namespace forksim::sim
