// Ablation A1 — the difficulty-adjustment cap.
//
// The paper's Fig-1 stall (two days of near-zero block production on ETC)
// is caused by the Homestead rule's bounded per-block adjustment: "there is
// a cap in the absolute difference in difficulty between two blocks"
// (§3.2). This bench asks the design question the paper raises implicitly:
// how would the post-fork recovery have looked under different retarget
// rules?
//
//   homestead  — the real rule: max(1 - delta/10, -99) notches of D/2048
//   uncapped   — an exponential controller with no downward bound
//   epoch-avg  — Bitcoin-style: rescale by target/actual every 128 blocks
//
// For each rule and each severity of hashpower loss we report the recovery
// time (back within 25 % of the 14 s target), the worst inter-block delta,
// and the blocks produced in the first post-collapse day.
#include <iostream>
#include <vector>

#include "experiment.hpp"
#include "sim/fastsim.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct Outcome {
  double recovery_hours = -1;
  double max_delta = 0;
  std::size_t first_day_blocks = 0;
};

Outcome run(core::RetargetRule rule, double loss_fraction,
            std::uint64_t seed) {
  core::ChainConfig config = core::ChainConfig::mainnet_pre_fork();
  ChainProcess chain(config, U256(62'000'000'000'000ull), 4.45e12);
  chain.set_retarget_rule(rule);
  Rng rng(seed);

  // settle at equilibrium first
  chain.mine_until(2.0 * kSecondsPerDay, rng, [](const BlockEvent&) {});

  chain.set_hashrate(4.45e12 * (1.0 - loss_fraction));
  const double collapse = chain.time();

  Outcome out;
  std::vector<double> window;
  chain.mine_until(collapse + 20.0 * kSecondsPerDay, rng,
                   [&](const BlockEvent& ev) {
                     out.max_delta = std::max(out.max_delta, ev.interval);
                     if (ev.time < collapse + kSecondsPerDay)
                       ++out.first_day_blocks;
                     window.push_back(ev.interval);
                     if (window.size() > 60) window.erase(window.begin());
                     if (out.recovery_hours < 0 && window.size() == 60 &&
                         mean(window) < 14.0 * 1.25)
                       out.recovery_hours = (ev.time - collapse) / 3600.0;
                   });
  return out;
}

std::string rule_name(core::RetargetRule rule) {
  switch (rule) {
    case core::RetargetRule::kHomestead: return "homestead (capped)";
    case core::RetargetRule::kUncapped: return "uncapped exp ctrl";
    case core::RetargetRule::kEpochAverage: return "epoch average";
  }
  return "?";
}

}  // namespace

bench::Report bench::ablate_difficulty(std::uint64_t seed, bool,
                                       obs::BenchRecord&) {
  std::cout << "== Ablation A1: difficulty retarget rule vs fork recovery ==\n";
  std::cout << "(recovery = 60-block mean interval back within 25% of 14 s)\n\n";

  const core::RetargetRule rules[] = {core::RetargetRule::kHomestead,
                                      core::RetargetRule::kUncapped,
                                      core::RetargetRule::kEpochAverage};
  const double losses[] = {0.5, 0.9, 0.99};

  Table table({"rule", "hashpower loss", "recovery (hours)", "max delta (s)",
               "blocks in first day"});
  double homestead_99 = 0;
  double uncapped_99 = 0;
  double epoch_99 = 0;

  for (const auto rule : rules) {
    for (const double loss : losses) {
      const Outcome out = run(rule, loss, seed);
      table.add_row({std::string(rule_name(rule)), fmt(loss * 100, 0) + "%",
                     out.recovery_hours < 0 ? "never (>480h)"
                                            : fmt(out.recovery_hours, 1),
                     fmt(out.max_delta, 0),
                     fmt(static_cast<double>(out.first_day_blocks), 0)});
      if (loss == 0.99) {
        if (rule == core::RetargetRule::kHomestead)
          homestead_99 = out.recovery_hours;
        if (rule == core::RetargetRule::kUncapped)
          uncapped_99 = out.recovery_hours;
        if (rule == core::RetargetRule::kEpochAverage)
          epoch_99 = out.recovery_hours;
      }
    }
  }
  table.print(std::cout);

  analysis::PaperCheck check("A1 — difficulty cap ablation");
  check.expect("the capped rule needs >= 1 day after a 99% collapse",
               homestead_99 < 0 || homestead_99 >= 24.0,
               "homestead recovery " + fmt(homestead_99, 1) + " h");
  check.expect("the uncapped controller recovers >= 5x faster",
               uncapped_99 > 0 && uncapped_99 * 5.0 <= homestead_99,
               "uncapped " + fmt(uncapped_99, 1) + " h vs capped " +
                   fmt(homestead_99, 1) + " h");
  check.expect("epoch averaging also beats the capped rule",
               epoch_99 > 0 && epoch_99 < homestead_99,
               "epoch " + fmt(epoch_99, 1) + " h");
  return {std::move(check)};
}
