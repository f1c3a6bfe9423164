#include "sim/scenario.hpp"

#include <algorithm>
#include <unordered_set>

#include "trie/trie.hpp"

namespace forksim::sim {

namespace {

p2p::NodeId node_id_for(std::uint64_t index) {
  Keccak256 h;
  h.update(std::string_view("forksim/node"));
  const auto be = be_fixed64(index);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

}  // namespace

ForkScenario::ForkScenario(ScenarioParams params)
    : params_(params),
      rng_(params.seed),
      network_(loop_, Rng(params.seed ^ 0x9e3779b97f4a7c15ull),
               params.latency) {
  // pre-fork accounts, funded in genesis on every node
  core::GenesisAlloc alloc;
  for (std::size_t i = 0; i < params_.funded_accounts; ++i) {
    accounts_.push_back(PrivateKey::from_seed(1000 + i));
    alloc.emplace_back(derive_address(accounts_.back()), core::ether(10000));
  }

  const std::size_t total_nodes = params_.nodes_eth + params_.nodes_etc;
  const core::ChainConfig eth_config = core::ChainConfig::eth(
      params_.fork_block);
  const core::ChainConfig etc_config =
      core::ChainConfig::etc(params_.fork_block, std::nullopt);

  // Internet-scale wiring (both strictly opt-in: with the flags off, no
  // extra rng draws happen and runs stay draw-for-draw identical to
  // builds without this layer).
  if (params_.topology.enabled)
    topology_ = p2p::generate_topology(params_.topology, total_nodes);
  if (params_.geo.enabled) geo_.emplace(params_.geo, total_nodes);

  // Client-diversity layer (also strictly opt-in): seeded per-node family
  // assignment plus one shared quirk rule set for the buggy family.
  if (params_.clients.enabled) {
    params_.clients.validate();
    client_families_ =
        assign_client_families(params_.clients, total_nodes, rng_);
    quirk_rules_ = std::make_unique<QuirkRuleSet>(
        params_.clients, [this] { return loop_.now(); });
  }

  for (std::size_t i = 0; i < total_nodes; ++i) {
    // Both sides share network id 1 pre-fork (they are the same network —
    // only the fork rule separates them), so use the pre-fork id for the
    // handshake and let the DAO challenge do the separating, as on mainnet.
    core::ChainConfig config = is_eth_node(i) ? eth_config : etc_config;
    config.chain_id = 1;  // devp2p network id stayed 1 for both ETH and ETC
    NodeOptions options = params_.node_options;
    options.genesis_difficulty = params_.genesis_difficulty;
    if (params_.clients.enabled) {
      const ClientProfile profile = profile_for(client_families_[i]);
      options.tick_interval *= profile.tick_multiplier;
      options.gossip.push_exponent *= profile.fanout_multiplier;
    }
    auto node = std::make_unique<FullNode>(
        network_, node_id_for(i), std::move(config), executor_, alloc,
        rng_.fork(), options);
    if (quirk_rules_ != nullptr &&
        client_families_[i] == params_.clients.buggy_family)
      node->set_validation_rules(quirk_rules_.get());
    nodes_.push_back(std::move(node));
  }

  if (geo_) {
    std::unordered_map<p2p::NodeId, std::uint32_t, p2p::NodeIdHasher>
        placement;
    for (std::size_t i = 0; i < total_nodes; ++i)
      placement.emplace(nodes_[i]->id(), static_cast<std::uint32_t>(i));
    network_.set_geo(&*geo_, std::move(placement));
  }

  if (params_.topology.enabled) {
    // bootstrap along the generated graph: each node dials its
    // neighborhood, so the session mesh takes the configured degree shape
    for (std::size_t i = 0; i < total_nodes; ++i) {
      std::vector<p2p::NodeId> boot;
      for (const std::uint32_t nb :
           topology_.neighbors_of(static_cast<std::uint32_t>(i)))
        boot.push_back(nodes_[nb]->id());
      nodes_[i]->start(boot);
    }
  } else {
    // historical wiring: everyone knows the first node (plus one random
    // other) and the mesh emerges from discovery
    std::vector<p2p::NodeId> seeds = {nodes_[0]->id()};
    for (std::size_t i = 0; i < total_nodes; ++i) {
      std::vector<p2p::NodeId> boot = seeds;
      if (i != 0)
        boot.push_back(nodes_[rng_.uniform(i)]->id());  // someone earlier
      nodes_[i]->start(boot);
    }
  }

  // miners: hashrate split per side; ETH-side miners sit on ETH nodes etc.
  const double etc_power =
      params_.total_hashrate * params_.etc_hashpower_fraction;
  const double eth_power = params_.total_hashrate - etc_power;
  std::size_t miner_index = 0;
  for (std::size_t m = 0; m < params_.miners_per_side_eth; ++m) {
    FullNode& host = *nodes_[m % params_.nodes_eth];
    const Address coinbase =
        derive_address(PrivateKey::from_seed(5000 + miner_index++));
    miners_.push_back(std::make_unique<Miner>(
        host, coinbase,
        eth_power / static_cast<double>(params_.miners_per_side_eth),
        rng_.fork()));
  }
  for (std::size_t m = 0; m < params_.miners_per_side_etc; ++m) {
    FullNode& host = *nodes_[params_.nodes_eth + (m % params_.nodes_etc)];
    const Address coinbase =
        derive_address(PrivateKey::from_seed(5000 + miner_index++));
    miners_.push_back(std::make_unique<Miner>(
        host, coinbase,
        etc_power / static_cast<double>(params_.miners_per_side_etc),
        rng_.fork()));
  }
  for (auto& miner : miners_) miner->start();

  // The hotfix: at patch_time the buggy family's quirk disables and every
  // buggy-family node clears its fork monitor and pulls the formerly-
  // disputed branch back for full revalidation (the deep reorg). Scheduled
  // at construction (now == 0), so the delay is the absolute sim time.
  if (quirk_rules_ != nullptr && params_.clients.patch_time >= 0.0) {
    loop_.schedule(params_.clients.patch_time, [this] {
      quirk_rules_->apply_patch();
      for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (client_families_[i] == params_.clients.buggy_family &&
            nodes_[i]->running())
          nodes_[i]->apply_consensus_patch();
    });
  }
}

ForkScenario::~ForkScenario() {
  for (auto& miner : miners_) miner->stop();
  for (auto& node : nodes_) node->shutdown();
}

void ForkScenario::run_for(double seconds) {
  loop_.run_until(loop_.now() + seconds);
}

std::size_t ForkScenario::distinct_heads() const {
  std::unordered_set<Hash256, Hash256Hasher> heads;
  for (const auto& node : nodes_)
    if (node->running()) heads.insert(node->chain().head().hash());
  return heads.size();
}

core::BlockNumber ForkScenario::best_height_eth() const {
  core::BlockNumber best = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (is_eth_node(i) && nodes_[i]->running())
      best = std::max(best, nodes_[i]->chain().height());
  return best;
}

core::BlockNumber ForkScenario::best_height_etc() const {
  core::BlockNumber best = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!is_eth_node(i) && nodes_[i]->running())
      best = std::max(best, nodes_[i]->chain().height());
  return best;
}

std::size_t ForkScenario::cross_side_links() const {
  std::size_t links = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->running()) continue;
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (is_eth_node(i) == is_eth_node(j)) continue;
      const auto* session = nodes_[i]->peers().session(nodes_[j]->id());
      if (session != nullptr && session->state == p2p::PeerState::kActive)
        ++links;
    }
  }
  return links;
}

std::uint64_t ForkScenario::total_wrong_fork_drops() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->wrong_fork_drops();
  return total;
}

void ForkScenario::attach_telemetry(obs::Registry& reg,
                                    obs::EventTracer* tracer) {
  network_.attach_telemetry(reg);
  executor_.attach_telemetry(reg);
  trie::attach_telemetry(reg);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    FullNode& node = *nodes_[i];
    node.attach_telemetry(reg, tracer, static_cast<std::uint32_t>(i));
    node.chain().attach_telemetry(reg);
    node.txpool().attach_telemetry(reg);
  }
}

}  // namespace forksim::sim
