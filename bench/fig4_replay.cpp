// Figure 4 — "The number of rebroadcast transactions ('echos') in ETH and
// ETC (bottom), and the percentage of all transactions that these
// rebroadcasts represent (top). We see a high level of rebroadcasting
// initially after the fork, and it persists even to today. Most of the
// rebroadcasts were originally broadcast in ETH and then rebroadcast into
// ETC."
//
// Reproduction: the workload model supplies per-day transaction volumes;
// ReplaySim pushes every shared-account transaction through the real replay
// rules (nonce matching, backlog catch-up, EIP-155 binding — see
// sim/replay.hpp). Echo counts are measured, not assumed.
#include <iostream>

#include "experiment.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

bench::Report bench::fig4_replay(std::uint64_t seed, bool, obs::BenchRecord&) {
  std::cout << "== Figure 4: rebroadcast (echo) transactions (270 days) ==\n";

  Rng rng(seed);
  WorkloadModel workload(WorkloadParams{}, rng.fork());
  ReplaySim replay(ReplayParams{}, rng.fork());

  std::vector<double> day_axis;
  std::vector<double> echoes_per_day;
  std::vector<double> echo_pct_eth;   // echoes into ETH as % of ETH txs
  std::vector<double> echo_pct_etc;   // echoes into ETC as % of ETC txs
  std::uint64_t total_into_etc = 0;
  std::uint64_t total_into_eth = 0;

  Table table({"day", "ETH tx", "ETC tx", "echoes->ETC", "echoes->ETH",
               "%ETC tx echoed-in", "stale", "protected"});

  for (double day = 0; day < 270.0; ++day) {
    const auto load = workload.step(day);
    const auto stats = replay.step(day, load.eth_txs, load.etc_txs);

    day_axis.push_back(day);
    echoes_per_day.push_back(static_cast<double>(stats.total_echoes()));
    echo_pct_eth.push_back(stats.eth_txs == 0
                               ? 0.0
                               : 100.0 * static_cast<double>(stats.echoes_into_eth) /
                                     static_cast<double>(stats.eth_txs));
    echo_pct_etc.push_back(stats.etc_txs == 0
                               ? 0.0
                               : 100.0 * static_cast<double>(stats.echoes_into_etc) /
                                     static_cast<double>(stats.etc_txs));
    total_into_etc += stats.echoes_into_etc;
    total_into_eth += stats.echoes_into_eth;

    if (static_cast<int>(day) % 15 == 0) {
      table.add_row({fmt(day, 0), fmt(static_cast<double>(stats.eth_txs), 0),
                     fmt(static_cast<double>(stats.etc_txs), 0),
                     fmt(static_cast<double>(stats.echoes_into_etc), 0),
                     fmt(static_cast<double>(stats.echoes_into_eth), 0),
                     fmt(echo_pct_etc.back(), 1),
                     fmt(static_cast<double>(stats.stale_nonce), 0),
                     fmt(static_cast<double>(stats.protected_txs), 0)});
    }
  }

  analysis::PaperCheck check("Fig 4 — rebroadcast transactions");

  const auto avg = analysis::window_mean;

  // (5) "a high level of rebroadcasting initially after the fork": tens of
  // percent of ETC's transactions in the first days
  check.expect_ge("initial echo spike: >=20% of early ETC txs are echoes",
                  avg(echo_pct_etc, 0, 5), 20.0);

  // "the overall number of rebroadcasts has fallen off"
  check.expect_le("echo volume decays by >=10x from the early spike",
                  avg(echoes_per_day, 250, 270),
                  avg(echoes_per_day, 0, 10) / 10.0);

  // "...and yet there are still hundreds of daily rebroadcast transactions
  // even today"
  check.expect_ge("echoes persist: still >=100/day at the end of the window",
                  avg(echoes_per_day, 250, 270), 100.0);

  // "Most of the rebroadcasts were originally broadcast in ETH and then
  // rebroadcast into ETC"
  check.expect(
      "most echoes flow ETH -> ETC",
      total_into_etc > 2 * total_into_eth,
      "into ETC " + std::to_string(total_into_etc) + " vs into ETH " +
          std::to_string(total_into_eth));

  // EIP-155 bends the curve: the month after ETC's activation (~day 177)
  // has fewer echoes than the month before it
  check.expect_le("EIP-155 adoption bends the echo curve down",
                  avg(echoes_per_day, 185, 215),
                  avg(echoes_per_day, 140, 170) * 0.8);

  return {std::move(check), std::move(table)};
}
