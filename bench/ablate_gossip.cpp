// Ablation A3 — gossip fanout and network latency vs propagation,
// redundancy, and transient-fork (uncle) rate.
//
// Runs the full protocol stack (real nodes, discovery, sessions, block and
// transaction gossip) on the simulated network with a live transaction
// workload, so blocks carry real payloads. The push exponent controls how
// many peers receive the full block unsolicited (geth pushes to sqrt(n) and
// announces hashes to the rest):
//   * flooding minimizes propagation delay but maximizes redundant
//     full-block transmissions (bytes, duplicate pushes);
//   * announce-mostly minimizes redundancy but adds a request round-trip,
//     which at WAN latency raises the transient-fork window (paper §2.1).
#include <iostream>
#include <memory>

#include "experiment.hpp"
#include "core/receipt.hpp"
#include "evm/executor.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"
#include "sim/txgen.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct Result {
  double avg_height_lag = 0;   // how far nodes trail the best chain at end
  double stale_rate = 0;       // non-canonical / total blocks
  double bytes_per_block = 0;  // network bytes per mined block
  double dup_pushes_per_block = 0;
};

Result run(double push_exponent, p2p::LatencyModel latency,
           std::uint64_t seed) {
  p2p::EventLoop loop;
  p2p::Network network(loop, Rng(seed), latency);
  evm::EvmExecutor executor;

  // funded accounts provide the transaction workload
  std::vector<PrivateKey> accounts;
  core::GenesisAlloc alloc;
  for (std::size_t i = 0; i < 24; ++i) {
    accounts.push_back(PrivateKey::from_seed(9000 + i));
    alloc.emplace_back(derive_address(accounts.back()), core::ether(100000));
  }

  const std::size_t kNodes = 16;
  NodeOptions options;
  options.gossip.push_exponent = push_exponent;
  options.genesis_difficulty = U256(400'000);

  std::vector<std::unique_ptr<FullNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    Keccak256 h;
    h.update(std::string_view("gossip-node"));
    const auto be = be_fixed64(i);
    h.update(BytesView(be.data(), be.size()));
    nodes.push_back(std::make_unique<FullNode>(
        network, h.digest(), core::ChainConfig::mainnet_pre_fork(), executor,
        alloc, Rng(seed + i), options));
  }
  for (std::size_t i = 0; i < kNodes; ++i)
    nodes[i]->start({nodes[0]->id()});
  loop.run_until(60.0);  // let the mesh form

  // transaction workload: ~one transfer submitted somewhere every 2 s
  std::vector<FullNode*> entry_points;
  for (auto& node : nodes) entry_points.push_back(node.get());
  TxGenerator txgen(entry_points, accounts, Rng(seed ^ 0xabcdefull));
  txgen.start();

  // two miners on different nodes so transient forks can happen
  Miner m1(*nodes[1], Address::left_padded(Bytes{0x01}), 2e4, Rng(seed + 100));
  Miner m2(*nodes[2], Address::left_padded(Bytes{0x02}), 2e4, Rng(seed + 200));
  m1.start();
  m2.start();
  const std::uint64_t bytes_before = network.bytes_sent();
  loop.run_until(loop.now() + 1800.0);  // 30 simulated minutes
  m1.stop();
  m2.stop();
  txgen.stop();
  loop.run_until(loop.now() + 30.0);  // drain in-flight traffic

  Result out;
  core::BlockNumber best = 0;
  for (const auto& node : nodes) best = std::max(best, node->chain().height());
  double lag = 0;
  std::uint64_t dups = 0;
  for (const auto& node : nodes) {
    lag += static_cast<double>(best - node->chain().height());
    dups += node->duplicate_block_pushes();
  }
  out.avg_height_lag = lag / static_cast<double>(kNodes);

  const auto& chain = nodes[1]->chain();
  const double total = static_cast<double>(chain.block_count() - 1);
  const double canonical = static_cast<double>(chain.height());
  out.stale_rate = total <= 0 ? 0 : (total - canonical) / total;

  const std::uint64_t mined = m1.blocks_mined() + m2.blocks_mined();
  if (mined > 0) {
    out.bytes_per_block =
        static_cast<double>(network.bytes_sent() - bytes_before) /
        static_cast<double>(mined);
    out.dup_pushes_per_block =
        static_cast<double>(dups) / static_cast<double>(mined);
  }
  return out;
}

}  // namespace

bench::Report bench::ablate_gossip(std::uint64_t seed, bool,
                                   obs::BenchRecord&) {
  std::cout << "== Ablation A3: gossip fanout & latency ==\n";
  std::cout << "(16 full nodes, 2 competing miners, live tx workload, "
               "30 simulated minutes)\n\n";

  Table table({"push policy", "latency", "height lag", "stale rate",
               "KB/block", "dup pushes/block"});

  struct Config {
    const char* name;
    double exponent;
    const char* lat_name;
    p2p::LatencyModel latency;
  };
  const Config configs[] = {
      {"announce-mostly (n^0)", 0.0, "wan", p2p::LatencyModel::wan()},
      {"sqrt push (geth)", 0.5, "wan", p2p::LatencyModel::wan()},
      {"flood (n^1)", 1.0, "wan", p2p::LatencyModel::wan()},
      {"sqrt push (geth)", 0.5, "lan", p2p::LatencyModel::lan()},
      {"sqrt push (geth)", 0.5, "lossy wan 10%",
       p2p::LatencyModel::lossy_wan(0.10)},
  };

  Result sqrt_wan{};
  Result flood_wan{};
  Result announce_wan{};
  for (const auto& config : configs) {
    const Result r = run(config.exponent, config.latency, seed);
    table.add_row({config.name, config.lat_name, fmt(r.avg_height_lag, 2),
                   fmt(r.stale_rate * 100, 1) + "%",
                   fmt(r.bytes_per_block / 1024.0, 1),
                   fmt(r.dup_pushes_per_block, 1)});
    if (config.exponent == 0.5 && std::string(config.lat_name) == "wan")
      sqrt_wan = r;
    if (config.exponent == 1.0) flood_wan = r;
    if (config.exponent == 0.0) announce_wan = r;
  }
  table.print(std::cout);

  analysis::PaperCheck check("A3 — gossip ablation");
  check.expect("flooding causes more redundant full-block pushes than sqrt",
               flood_wan.dup_pushes_per_block >
                   sqrt_wan.dup_pushes_per_block,
               fmt(flood_wan.dup_pushes_per_block, 1) + " vs " +
                   fmt(sqrt_wan.dup_pushes_per_block, 1));
  check.expect("all policies keep the network near the best height",
               sqrt_wan.avg_height_lag < 3.0 &&
                   flood_wan.avg_height_lag < 3.0 &&
                   announce_wan.avg_height_lag < 4.0,
               "lags " + fmt(announce_wan.avg_height_lag, 2) + "/" +
                   fmt(sqrt_wan.avg_height_lag, 2) + "/" +
                   fmt(flood_wan.avg_height_lag, 2));
  check.expect("transient forks occur but stay rare (paper §2.1)",
               sqrt_wan.stale_rate < 0.2,
               fmt(sqrt_wan.stale_rate * 100, 1) + "% stale");
  return {std::move(check)};
}
