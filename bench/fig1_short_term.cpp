// Figure 1 — "Blocks per hour (top), block difficulty (middle), and time
// delta between blocks (bottom) the month following the hard fork."
//
// Reproduction: both chains share one pre-fork difficulty equilibrium.
// At t=0 the DAO fork activates; ~90 % of the hashpower leaves ETC for ETH
// instantly (paper observation 1). Over the following two weeks a wave of
// miners changes its mind and returns to ETC, mirrored as a difficulty
// decrease in ETH (paper §3.2's "mirror image"). Block arrivals and the
// difficulty retarget run through the real Homestead rules (see
// sim/fastsim.hpp).
//
// Paper-shape checks (DESIGN.md §6): the immediate ETC block-rate collapse,
// the >60x inter-block delta spike, the multi-day recovery, and the
// mirrored difficulty wave.
#include <algorithm>
#include <iostream>

#include "experiment.hpp"
#include "sim/fastsim.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timeseries.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct ChainTelemetry {
  TimeSeries blocks_per_hour{kSecondsPerHour};
  TimeSeries difficulty_hourly{kSecondsPerHour};  // avg per hour
  TimeSeries delta_hourly{kSecondsPerHour};       // avg per hour
  double max_delta = 0;

  void record(const BlockEvent& ev) {
    blocks_per_hour.record(ev.time);
    difficulty_hourly.record(ev.time, ev.difficulty);
    delta_hourly.record(ev.time, ev.interval);
    max_delta = std::max(max_delta, ev.interval);
  }
};

/// ETC's share of total hashpower over the month (days since fork).
/// Calibrated to the paper's Fig 1: the hour-0 exodus leaves ~1 % of the
/// hashpower (inter-block deltas spike to ~85x the target, blocks/hour
/// "falls close to 0 for almost a day"), miners trickle back over the first
/// days to ~8.5 %, and the two-week return wave lifts ETC toward ~17 %
/// while ETH's difficulty dips in mirror image.
double etc_share(double day) {
  if (day < 1.0) return 0.012;
  if (day < 4.0) return 0.012 + (day - 1.0) / 3.0 * (0.085 - 0.012);
  if (day < 12.0) return 0.085;
  if (day > 26.0) return 0.17;
  return 0.085 + (day - 12.0) / 14.0 * (0.17 - 0.085);
}

}  // namespace

bench::Report bench::fig1_short_term(std::uint64_t seed, bool,
                                     obs::BenchRecord&) {
  std::cout << "== Figure 1: short-term fork dynamics (30 days) ==\n";
  std::cout << "Simulating the month after the DAO fork block...\n";

  Rng rng(seed);

  // pre-fork equilibrium: total hashpower H, difficulty ~ H * 14 s. The
  // paper's pre-fork difficulty is ~6e13; we use H = 4.45e12 H/s.
  const double total_hashrate = 4.45e12;
  core::ChainConfig eth_cfg = core::ChainConfig::eth(1'920'000);
  core::ChainConfig etc_cfg = core::ChainConfig::etc(1'920'000, std::nullopt);

  const U256 fork_difficulty(62'000'000'000'000ull);  // ~6.2e13, paper scale

  ChainProcess eth(eth_cfg, fork_difficulty, total_hashrate * 0.905);
  ChainProcess etc(etc_cfg, fork_difficulty, total_hashrate * 0.095);

  ChainTelemetry eth_t;
  ChainTelemetry etc_t;

  const double horizon = 30.0 * kSecondsPerDay;
  // pre-fork baseline hour (hour index -1): both chains were one network
  // producing ~3600/14 = 257 blocks/hour at the fork difficulty
  const double prefork_rate = 3600.0 / 14.0;

  for (double day = 0; day < 30.0; day += 0.25) {
    const double until = std::min((day + 0.25) * kSecondsPerDay, horizon);
    const double share = etc_share(day);
    etc.set_hashrate(total_hashrate * share);
    eth.set_hashrate(total_hashrate * (0.995 - share));  // 0.5 % quit mining
    eth.mine_until(until, rng, [&](const BlockEvent& ev) { eth_t.record(ev); });
    etc.mine_until(until, rng, [&](const BlockEvent& ev) { etc_t.record(ev); });
  }

  // ---- the three panels, sampled every 12 hours ------------------------
  const auto eth_rate = eth_t.blocks_per_hour.counts();
  const auto etc_rate = etc_t.blocks_per_hour.counts();
  const auto eth_diff = eth_t.difficulty_hourly.averages();
  const auto etc_diff = etc_t.difficulty_hourly.averages();
  const auto eth_delta = eth_t.delta_hourly.averages();
  const auto etc_delta = etc_t.delta_hourly.averages();

  Table table({"day", "ETH blk/hr", "ETC blk/hr", "ETH difficulty",
               "ETC difficulty", "ETH delta(s)", "ETC delta(s)"});
  const std::size_t hours = std::min(eth_rate.size(), etc_rate.size());
  for (std::size_t h = 0; h < hours; h += 12) {
    table.add_row({fmt(h / 24.0, 1), fmt(eth_rate[h], 0),
                   h < etc_rate.size() ? fmt(etc_rate[h], 0) : "0",
                   fmt_sci(eth_diff[h]), fmt_sci(h < etc_diff.size() ? etc_diff[h] : 0),
                   fmt(eth_delta[h], 1),
                   h < etc_delta.size() ? fmt(etc_delta[h], 1) : "-"});
  }

  // ---- PAPER-CHECK ------------------------------------------------------
  analysis::PaperCheck check("Fig 1 — short-term fork dynamics");

  // (1) drastic, rapid partition: ETC block rate collapses ~90 % at once
  const double etc_first_hours = etc_rate.empty()
      ? 0
      : mean(std::vector<double>(
            etc_rate.begin(),
            etc_rate.begin() + static_cast<std::ptrdiff_t>(
                                   std::min<std::size_t>(6, etc_rate.size()))));
  check.expect_le("ETC blocks/hour drops >=90% immediately after the fork",
                  etc_first_hours, prefork_rate * 0.12);

  // ETH keeps producing at roughly the target rate throughout
  check.expect_ge("ETH stays near the pre-fork block rate",
                  mean(eth_rate), prefork_rate * 0.85);

  // (2) inter-block delta spike: paper saw >1200 s vs a 14 s target (86x);
  // require >= 60x
  check.expect_ge("ETC max inter-block delta spikes >= 60x target",
                  etc_t.max_delta, 60.0 * 14.0);

  // (2) stabilization takes days: find when ETC's hourly rate is back
  // within 20 % of target for 12 consecutive hours
  const double target_rate = 3600.0 / 14.0;
  const auto recovery_hour = analysis::first_stable_index(
      analysis::smooth(etc_rate, 3), target_rate, target_rate * 0.25, 12);
  check.expect(
      "ETC takes days (not minutes) to resume target block production",
      recovery_hour >= 20 && recovery_hour <= 5 * 24,
      "recovered at hour " + std::to_string(recovery_hour) +
          " (expected 20..120)");

  // (3) the two-week return wave: ETH difficulty decreases while ETC's
  // increases between day 12 and day 28
  const auto avg_window = analysis::window_mean;
  const double eth_diff_before = avg_window(eth_diff, 10 * 24, 12 * 24);
  const double eth_diff_after = avg_window(eth_diff, 27 * 24, 29 * 24);
  const double etc_diff_before = avg_window(etc_diff, 10 * 24, 12 * 24);
  const double etc_diff_after = avg_window(etc_diff, 27 * 24, 29 * 24);
  check.expect("ETH difficulty dips during the miner-return wave",
               eth_diff_after < eth_diff_before,
               "day 10-12 avg " + fmt_sci(eth_diff_before) + " -> day 27-29 avg " +
                   fmt_sci(eth_diff_after));
  check.expect("ETC difficulty rises during the miner-return wave (mirror)",
               etc_diff_after > etc_diff_before * 1.3,
               "day 10-12 avg " + fmt_sci(etc_diff_before) + " -> day 27-29 avg " +
                   fmt_sci(etc_diff_after));

  return {std::move(check), std::move(table)};
}
