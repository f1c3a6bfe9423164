// Ablation A5 — the DAO fork-header challenge.
//
// After the fork, geth added a handshake step: ask every peer for its
// header at the fork height and drop peers on the other side. This bench
// runs the full-node fork scenario with the challenge enabled vs disabled
// and measures how the network separates either way:
//
//   * with the challenge, sessions are severed proactively the moment a
//     node crosses the fork height;
//   * without it, cross-side links linger and only die when a peer happens
//     to push a wrong-fork block — meanwhile both sides keep gossiping
//     transactions and hashes at each other (wasted bandwidth, and the
//     channel through which replay attacks propagate for free).
#include <algorithm>
#include <iostream>

#include "experiment.hpp"
#include "sim/scenario.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct Outcome {
  double minutes_to_partition = -1;  // from the first fork crossing
  /// Integral of cross-side links over the 20 min after the first crossing
  /// (link-seconds): the "useless peering" the challenge eliminates.
  double link_seconds = 0;
  std::uint64_t wrong_fork_drops = 0;
  std::uint64_t messages_total = 0;
};

Outcome run(bool challenge, bool ban_wrong_fork, std::uint64_t seed) {
  ScenarioParams params;
  params.nodes_eth = 6;
  params.nodes_etc = 3;
  params.miners_per_side_eth = 2;
  params.miners_per_side_etc = 2;
  params.fork_block = 12;
  params.total_hashrate = 3e4;
  params.etc_hashpower_fraction = 0.25;
  params.seed = seed;
  params.node_options.enable_dao_challenge = challenge;
  params.node_options.drop_wrong_fork_peers = ban_wrong_fork;
  ForkScenario scenario(params);

  // run in fine steps until the FIRST side crosses the fork height
  double fork_reached_at = -1;
  for (int i = 0; i < 3000; ++i) {
    scenario.run_for(5.0);
    if (scenario.best_height_eth() >= params.fork_block ||
        scenario.best_height_etc() >= params.fork_block) {
      fork_reached_at = scenario.loop().now();
      break;
    }
  }

  Outcome out;
  if (fork_reached_at < 0) return out;

  // integrate the cross-side link count over the next 20 minutes
  for (int i = 0; i < 240; ++i) {
    const std::size_t links = scenario.cross_side_links();
    out.link_seconds += static_cast<double>(links) * 5.0;
    if (out.minutes_to_partition < 0 && links == 0 &&
        scenario.best_height_eth() >= params.fork_block &&
        scenario.best_height_etc() >= params.fork_block)
      out.minutes_to_partition =
          (scenario.loop().now() - fork_reached_at) / 60.0;
    scenario.run_for(5.0);
  }
  out.wrong_fork_drops = scenario.total_wrong_fork_drops();
  out.messages_total = scenario.network().messages_sent();
  return out;
}

}  // namespace

bench::Report bench::ablate_partition(std::uint64_t seed, bool,
                                      obs::BenchRecord&) {
  std::cout << "== Ablation A5: the DAO fork-header challenge ==\n";
  std::cout << "(9 full nodes through the fork, challenge on vs off)\n\n";

  const Outcome geth = run(true, true, seed);       // challenge + block ban
  const Outcome ban_only = run(false, true, seed);  // organic severing only
  const Outcome none = run(false, false, seed);     // no severing mechanism

  Table table({"configuration", "min to full partition", "cross link-seconds",
               "wrong-fork drops", "total messages"});
  auto row = [&](const char* name, const Outcome& o) {
    table.add_row({name,
                   o.minutes_to_partition < 0
                       ? ">20"
                       : fmt(o.minutes_to_partition, 1),
                   fmt(o.link_seconds, 0),
                   std::to_string(o.wrong_fork_drops),
                   std::to_string(o.messages_total)});
  };
  row("challenge + block ban (geth)", geth);
  row("block ban only", ban_only);
  row("no severing mechanism", none);
  table.print(std::cout);

  std::cout << "\nNote: in a fully-synced, actively-mining mesh the block\n"
               "ban alone already severs links within one gossip round;\n"
               "the challenge's value on mainnet was covering peers that\n"
               "never push blocks (light, syncing, or idle nodes).\n";

  analysis::PaperCheck check("A5 — DAO challenge ablation");
  check.expect("geth's combination completes the partition",
               geth.minutes_to_partition >= 0,
               fmt(geth.minutes_to_partition, 1) + " min");
  check.expect("the challenge fires (wrong-fork drops observed)",
               geth.wrong_fork_drops > 0,
               std::to_string(geth.wrong_fork_drops) + " drops");
  check.expect("with no severing mechanism the partition NEVER completes "
               "at the session layer",
               none.minutes_to_partition < 0,
               "links persist: " + fmt(none.link_seconds, 0) + " link-s");
  check.expect(
      "unsevered cross-side peering wastes bandwidth vs geth",
      none.link_seconds > 10.0 * std::max(1.0, geth.link_seconds),
      "none: " + fmt(none.link_seconds, 0) + " vs geth: " +
          fmt(geth.link_seconds, 0) + " link-s");
  return {std::move(check)};
}
