// Figure 3 — "The expected 'payoff' for mining in ETH and ETC, as
// calculated by the expected number of hashes a miner would need to
// calculate to earn 1 USD. We observe a strong correlation."
//
// Reproduction: a closed loop between three models, stepped daily —
//   market   : per-chain USD price (GBM + the Zcash-launch and March-rally
//              shocks the paper points at),
//   migration: mobile hashpower chases expected USD-per-hash
//              (price * reward / difficulty), with loyal floors,
//   chains   : block production + difficulty under the real retarget rule.
// The paper's efficiency claim — the two hashes/USD curves are nearly
// identical — is an *emergent equilibrium* here: migration keeps arbitrage
// away, exactly the mechanism the authors infer.
#include <cmath>
#include <iostream>

#include "experiment.hpp"
#include "sim/fastsim.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

bench::Report bench::fig3_efficiency(std::uint64_t seed, bool,
                                     obs::BenchRecord&) {
  std::cout << "== Figure 3: mining-market efficiency (270 days) ==\n";

  Rng rng(seed);
  const double total_hashrate = 4.45e12;
  const U256 fork_difficulty(62'000'000'000'000ull);

  ChainProcess eth(core::ChainConfig::eth(1'920'000), fork_difficulty,
                   total_hashrate * 0.9);
  ChainProcess etc(core::ChainConfig::etc(1'920'000, std::nullopt),
                   fork_difficulty, total_hashrate * 0.1);

  // ETH ~ $12 at the fork, ETC ~ $1.7 shortly after listing
  MarketModel eth_market(12.0, 0.002, 0.035);
  MarketModel etc_market(1.7, 0.001, 0.05);
  // the March 2017 speculation rally (paper: "the external value of ether
  // increased much faster" than difficulty)
  eth_market.add_shock(235, 1.6);
  eth_market.add_shock(245, 1.5);
  etc_market.add_shock(240, 1.3);

  MigrationModel::Params mig_params;
  mig_params.mobility = 0.3;
  mig_params.loyal_a = total_hashrate * 0.25;  // dedicated ETH miners
  mig_params.loyal_b = total_hashrate * 0.02;  // ideological ETC miners
  // the Zcash launch (late Oct 2016 ≈ day 100) borrows mobile hashpower
  mig_params.sink_start_day = 100;
  mig_params.sink_end_day = 112;
  mig_params.sink_fraction = 0.25;
  MigrationModel migration(total_hashrate * 0.9, total_hashrate * 0.1,
                           mig_params);

  std::vector<double> eth_hpu;  // hashes per USD
  std::vector<double> etc_hpu;
  std::vector<double> eth_price_series;

  Table table({"day", "ETH $", "ETC $", "ETH difficulty", "ETC difficulty",
               "ETH hashes/USD", "ETC hashes/USD"});

  for (double day = 0; day < 270.0; ++day) {
    eth_market.step(day, rng);
    etc_market.step(day, rng);

    const double profit_eth =
        eth_market.price() * 5.0 / eth.difficulty().to_double();
    const double profit_etc =
        etc_market.price() * 5.0 / etc.difficulty().to_double();
    migration.step(day, profit_eth, profit_etc, rng);

    eth.set_hashrate(migration.hashrate_a());
    etc.set_hashrate(migration.hashrate_b());
    eth.mine_until((day + 1) * kSecondsPerDay, rng, [](const BlockEvent&) {});
    etc.mine_until((day + 1) * kSecondsPerDay, rng, [](const BlockEvent&) {});

    const double eth_metric = hashes_per_usd(eth.difficulty().to_double(),
                                             5.0, eth_market.price());
    const double etc_metric = hashes_per_usd(etc.difficulty().to_double(),
                                             5.0, etc_market.price());
    eth_hpu.push_back(eth_metric);
    etc_hpu.push_back(etc_metric);
    eth_price_series.push_back(eth_market.price());

    if (static_cast<int>(day) % 15 == 0) {
      table.add_row({fmt(day, 0), fmt(eth_market.price(), 2),
                     fmt(etc_market.price(), 2),
                     fmt_sci(eth.difficulty().to_double()),
                     fmt_sci(etc.difficulty().to_double()),
                     fmt_sci(eth_metric), fmt_sci(etc_metric)});
    }
  }

  analysis::PaperCheck check("Fig 3 — market efficiency");

  // drop the first two weeks (the difficulty is still finding its level)
  const std::vector<double> eth_tail(eth_hpu.begin() + 14, eth_hpu.end());
  const std::vector<double> etc_tail(etc_hpu.begin() + 14, etc_hpu.end());

  // (4) "the curves are almost identical": strong correlation + close levels
  check.expect_ge("ETH and ETC hashes/USD strongly correlated (Pearson)",
                  pearson(eth_tail, etc_tail), 0.9);
  std::vector<double> rel_gap;
  for (std::size_t i = 0; i < eth_tail.size(); ++i)
    rel_gap.push_back(std::abs(eth_tail[i] - etc_tail[i]) /
                      std::max(eth_tail[i], etc_tail[i]));
  // "the curves are almost identical": the typical daily gap is small; even
  // transiently (price shocks) migration closes it within days
  check.expect_le("median daily relative gap is small (market efficiency)",
                  median(rel_gap), 0.25);
  check.expect_le("90th-percentile daily gap bounded (shocks close quickly)",
                  percentile(rel_gap, 90), 0.55);

  // the Zcash dip: hashes/USD lower during the sink window than just before
  const auto avg = analysis::window_mean;
  const double before_zcash = avg(eth_hpu, 85, 99);
  const double during_zcash = avg(eth_hpu, 104, 114);
  check.expect("hashes/USD dips around the Zcash launch (miners left)",
               during_zcash < before_zcash,
               fmt_sci(before_zcash) + " -> " + fmt_sci(during_zcash));

  // the March rally: price rises much faster than difficulty, so
  // hashes/USD drops at the end of the window
  const double before_rally = avg(eth_hpu, 215, 230);
  const double after_rally = avg(eth_hpu, 250, 268);
  check.expect_le("hashes/USD falls through the March price rally",
                  after_rally, before_rally * 0.8);

  return {std::move(check), std::move(table)};
}
