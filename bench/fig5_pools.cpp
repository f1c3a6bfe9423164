// Figure 5 — "The percent of all mined blocks won by the top 1, 3, and 5
// mining pools in ETH and ETC. Though mining pools in each network are
// distinct, the aggregate mining power distribution is remarkably similar."
//
// Reproduction: ETH inherits the stable pre-fork pool landscape; ETC's
// pools start fragmented (the big pre-fork pools all moved to ETH, paper
// §3) and coalesce through daily preferential-attachment churn
// (sim/poolmodel.hpp). Like the paper, top-N shares are computed from each
// day's actual block winners (coinbase addresses), not the latent weights.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "experiment.hpp"
#include "sim/poolmodel.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

/// Top-N share of a day's block-winner histogram.
double top_share_of_wins(const std::vector<std::uint64_t>& wins,
                         std::size_t n) {
  std::vector<double> w(wins.begin(), wins.end());
  return top_n_share(w, n) * 100.0;
}

}  // namespace

bench::Report bench::fig5_pools(std::uint64_t seed, bool, obs::BenchRecord&) {
  std::cout << "== Figure 5: mining-pool concentration (240 days) ==\n";

  Rng rng(seed);

  PoolDynamicsParams eth_params;
  eth_params.churn = 0.02;
  eth_params.alpha = 1.05;  // mature, stable ecosystem
  eth_params.entry_prob = 0.01;
  PoolPopulation eth_pools = PoolPopulation::eth_like(eth_params);
  const double eth_top3_prefork = eth_pools.top_share(3) * 100.0;

  // ETC starts as a young, volatile ecosystem (strong preferential
  // attachment, high churn) and matures toward ETH-like dynamics over
  // roughly five months — pool software stabilizes, miners settle. The
  // concentration process therefore decelerates as the distribution
  // approaches the mature shape instead of collapsing to a monopoly.
  PoolDynamicsParams etc_young;
  etc_young.churn = 0.09;
  etc_young.alpha = 1.22;
  etc_young.entry_prob = 0.02;
  PoolPopulation etc_pools =
      PoolPopulation::fragmented(28, etc_young, rng);
  // young dynamics until ~day 140, maturing over the following ~40 days
  auto etc_params_at = [&](double day) {
    const double t = std::clamp((day - 140.0) / 40.0, 0.0, 1.0);
    PoolDynamicsParams p = etc_young;
    p.churn = etc_young.churn + t * (eth_params.churn - etc_young.churn);
    p.alpha = etc_young.alpha + t * (eth_params.alpha - etc_young.alpha);
    p.entry_prob =
        etc_young.entry_prob + t * (eth_params.entry_prob - etc_young.entry_prob);
    return p;
  };

  // block counts per day: ~6170 on each chain at the 14 s target
  const std::size_t blocks_per_day = 86400 / 14;

  std::vector<double> eth_top1;
  std::vector<double> eth_top3;
  std::vector<double> eth_top5;
  std::vector<double> etc_top1;
  std::vector<double> etc_top3;
  std::vector<double> etc_top5;

  Table table({"day", "ETH top1%", "ETH top3%", "ETH top5%", "ETC top1%",
               "ETC top3%", "ETC top5%", "ETC pools"});

  for (int day = 0; day < 240; ++day) {
    eth_pools.step_day(rng);
    etc_pools.set_params(etc_params_at(day));
    etc_pools.step_day(rng);

    // sample each day's block winners (the paper computes top pools per day)
    std::vector<std::uint64_t> eth_wins(eth_pools.pool_count(), 0);
    std::vector<std::uint64_t> etc_wins(etc_pools.pool_count(), 0);
    for (std::size_t b = 0; b < blocks_per_day; ++b) {
      ++eth_wins[eth_pools.sample_winner(rng)];
      ++etc_wins[etc_pools.sample_winner(rng)];
    }

    eth_top1.push_back(top_share_of_wins(eth_wins, 1));
    eth_top3.push_back(top_share_of_wins(eth_wins, 3));
    eth_top5.push_back(top_share_of_wins(eth_wins, 5));
    etc_top1.push_back(top_share_of_wins(etc_wins, 1));
    etc_top3.push_back(top_share_of_wins(etc_wins, 3));
    etc_top5.push_back(top_share_of_wins(etc_wins, 5));

    if (day % 15 == 0) {
      table.add_row({fmt(day, 0), fmt(eth_top1.back(), 1),
                     fmt(eth_top3.back(), 1), fmt(eth_top5.back(), 1),
                     fmt(etc_top1.back(), 1), fmt(etc_top3.back(), 1),
                     fmt(etc_top5.back(), 1),
                     fmt(static_cast<double>(etc_pools.pool_count()), 0)});
    }
  }

  analysis::PaperCheck check("Fig 5 — pool concentration");

  const auto avg = analysis::window_mean;

  // (6a) ETH's shares stay consistent over time and match the pre-fork
  // distribution (the big pools moved over immediately and pervasively)
  check.expect("ETH top-3 share steady and equal to the pre-fork level",
               std::abs(avg(eth_top3, 0, 30) - eth_top3_prefork) < 10.0 &&
                   std::abs(avg(eth_top3, 210, 240) - eth_top3_prefork) < 10.0,
               "pre-fork " + fmt(eth_top3_prefork, 1) + "%, early " +
                   fmt(avg(eth_top3, 0, 30), 1) + "%, late " +
                   fmt(avg(eth_top3, 210, 240), 1) + "%");
  check.expect_le("ETH top-5 share drift over the window (pp)",
                  std::abs(avg(eth_top5, 0, 30) - avg(eth_top5, 210, 240)),
                  10.0);

  // (6b) ETC's top pools initially mine a considerably smaller fraction
  check.expect_ge("ETC starts much less concentrated than ETH (top-5 gap, pp)",
                  avg(eth_top5, 0, 20) - avg(etc_top5, 0, 20), 15.0);

  // (6c) ...and slowly converge to the same relative ratios
  check.expect_le("ETC top-5 converges to ETH's level (final gap, pp)",
                  std::abs(avg(eth_top5, 210, 240) - avg(etc_top5, 210, 240)),
                  10.0);
  check.expect_le("ETC top-1 converges toward ETH's level (final gap, pp)",
                  std::abs(avg(eth_top1, 210, 240) - avg(etc_top1, 210, 240)),
                  12.0);
  check.expect("the coalescing is slow (not done within the first month)",
               avg(eth_top5, 20, 40) - avg(etc_top5, 20, 40) > 8.0,
               "gap at day 20-40: " +
                   fmt(avg(eth_top5, 20, 40) - avg(etc_top5, 20, 40), 1) +
                   " pp");

  return {std::move(check), std::move(table)};
}
