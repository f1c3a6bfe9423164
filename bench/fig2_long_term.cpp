// Figure 2 — "The overall difficulty per block (top), the number of
// transactions per day (middle), and fraction of transactions involving
// contracts (bottom) in the nine months since the fork."
//
// Reproduction: 270 simulated days. ETH's hashpower grows tremendously
// (paper observation 3) while ETC's stays roughly constant, so the
// difficulty ratio approaches an order of magnitude; the transaction
// workload model carries the 2.5:1 -> 5:1 volume ratio and the similar
// contract-call fractions (sim/workload.hpp).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "experiment.hpp"
#include "sim/fastsim.hpp"
#include "sim/workload.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

bench::Report bench::fig2_long_term(std::uint64_t seed, bool,
                                    obs::BenchRecord& rec) {
  const obs::WallTimer timer;
  std::cout << "== Figure 2: long-term fork dynamics (270 days) ==\n";

  Rng rng(seed);
  const double total_hashrate = 4.45e12;
  const U256 fork_difficulty(62'000'000'000'000ull);

  ChainProcess eth(core::ChainConfig::eth(1'920'000), fork_difficulty,
                   total_hashrate * 0.9);
  ChainProcess etc(core::ChainConfig::etc(1'920'000, std::nullopt),
                   fork_difficulty, total_hashrate * 0.17);

  WorkloadModel workload(WorkloadParams{}, rng.fork());

  // ETH's mining base grows ~4.5x over the window (new capacity + returning
  // Zcash explorers); ETC holds near its post-return-wave level with mild
  // growth, keeping the difficulty gap around an order of magnitude.
  auto eth_hashrate = [&](double day) {
    return total_hashrate * 0.9 * (1.0 + 3.5 * day / 270.0);
  };
  auto etc_hashrate = [&](double day) {
    return total_hashrate * (0.17 + 0.13 * day / 270.0);
  };

  std::uint64_t blocks_mined = 0;
  std::vector<double> days;
  std::vector<double> eth_diff;
  std::vector<double> etc_diff;
  std::vector<double> eth_txs;
  std::vector<double> etc_txs;
  std::vector<double> eth_contract;
  std::vector<double> etc_contract;

  for (double day = 0; day < 270.0; ++day) {
    eth.set_hashrate(eth_hashrate(day));
    etc.set_hashrate(etc_hashrate(day));
    RunningStats eth_day_diff;
    RunningStats etc_day_diff;
    eth.mine_until((day + 1) * kSecondsPerDay, rng,
                   [&](const BlockEvent& ev) {
                     eth_day_diff.add(ev.difficulty);
                     ++blocks_mined;
                   });
    etc.mine_until((day + 1) * kSecondsPerDay, rng,
                   [&](const BlockEvent& ev) {
                     etc_day_diff.add(ev.difficulty);
                     ++blocks_mined;
                   });

    const auto load = workload.step(day);
    days.push_back(day);
    eth_diff.push_back(eth_day_diff.mean());
    etc_diff.push_back(etc_day_diff.mean());
    eth_txs.push_back(static_cast<double>(load.eth_txs));
    etc_txs.push_back(static_cast<double>(load.etc_txs));
    eth_contract.push_back(load.eth_contract_fraction * 100.0);
    etc_contract.push_back(load.etc_contract_fraction * 100.0);
  }

  Table table({"day", "ETH difficulty", "ETC difficulty", "ETH tx/day",
               "ETC tx/day", "ETH %contract", "ETC %contract"});
  for (std::size_t d = 0; d < days.size(); d += 15) {
    table.add_row({fmt(days[d], 0), fmt_sci(eth_diff[d]), fmt_sci(etc_diff[d]),
                   fmt(eth_txs[d], 0), fmt(etc_txs[d], 0),
                   fmt(eth_contract[d], 1), fmt(etc_contract[d], 1)});
  }

  analysis::PaperCheck check("Fig 2 — long-term dynamics");

  // ETH difficulty roughly an order of magnitude above ETC at steady state
  const double end_ratio = eth_diff.back() / etc_diff.back();
  check.expect("ETH difficulty ~an order of magnitude above ETC's",
               end_ratio >= 6.0 && end_ratio <= 20.0,
               "final ratio " + fmt(end_ratio, 1));

  // ETH's difficulty "has increased tremendously" since the fork; ETC's
  // mining power held roughly constant
  check.expect_ge("ETH difficulty grows strongly over the window",
                  eth_diff.back() / eth_diff.front(), 3.0);
  check.expect_le("ETC difficulty stays roughly flat",
                  etc_diff.back() / etc_diff.front(), 2.0);

  // tx ratio 2.5:1 early, toward 5:1 late
  auto window_ratio = [&](std::size_t lo, std::size_t hi) {
    double e = 0;
    double c = 0;
    for (std::size_t i = lo; i < hi && i < days.size(); ++i) {
      e += eth_txs[i];
      c += etc_txs[i];
    }
    return c == 0 ? 0.0 : e / c;
  };
  const double early_ratio = window_ratio(10, 100);
  const double late_ratio = window_ratio(255, 270);
  check.expect("ETH:ETC tx ratio ~2.5:1 for most of the window",
               early_ratio > 2.0 && early_ratio < 3.2,
               "early ratio " + fmt(early_ratio, 2));
  check.expect("tx ratio rises toward ~5:1 in the final month",
               late_ratio > 4.0 && late_ratio < 6.5,
               "late ratio " + fmt(late_ratio, 2));

  // contract fractions similar between the chains until late in the window
  double max_gap = 0;
  for (std::size_t i = 0; i < 200; ++i)
    max_gap = std::max(max_gap,
                       std::abs(eth_contract[i] - etc_contract[i]));
  check.expect_le(
      "contract-call fractions similar across chains (first ~200 days, pp)",
      max_gap, 12.0);

  rec.param("days", std::uint64_t{270});
  rec.metric("blocks_mined", blocks_mined);
  const double wall = timer.seconds();
  rec.metric("blocks_per_second",
             wall > 0 ? static_cast<double>(blocks_mined) / wall : 0.0);
  return {std::move(check), std::move(table)};
}
