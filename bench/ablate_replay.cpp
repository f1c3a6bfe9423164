// Ablation A2 — replay-protection mechanisms.
//
// The paper (§3.3) describes the defenses that were deployed piecemeal:
// chain-specific addresses ("fresh-address hygiene") and EIP-155 chain ids.
// This bench compares the echo exposure over nine months under:
//   none        — no protection ever (the counterfactual)
//   eip155-late — the historical timeline (ETH ~day 120, ETC ~day 177)
//   eip155-day0 — chain ids shipped with the fork itself (what Bitcoin
//                 Cash later did with mandatory replay protection)
//   splitting   — no chain ids, but aggressive address-splitting hygiene
#include <iostream>

#include "experiment.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct Exposure {
  std::uint64_t total_echoes = 0;
  std::uint64_t late_per_day = 0;  // average over the final month
};

Exposure run(ReplayParams params, std::uint64_t seed) {
  Rng rng(seed);
  WorkloadModel workload(WorkloadParams{}, rng.fork());
  ReplaySim replay(params, rng.fork());
  Exposure out;
  std::uint64_t late_sum = 0;
  for (double day = 0; day < 270.0; ++day) {
    const auto load = workload.step(day);
    const auto stats = replay.step(day, load.eth_txs, load.etc_txs);
    out.total_echoes += stats.total_echoes();
    if (day >= 240) late_sum += stats.total_echoes();
  }
  out.late_per_day = late_sum / 30;
  return out;
}

}  // namespace

bench::Report bench::ablate_replay(std::uint64_t seed, bool,
                                   obs::BenchRecord&) {
  std::cout << "== Ablation A2: replay protection mechanisms ==\n\n";

  ReplayParams none;
  none.eth_eip155_day = -1;
  none.etc_eip155_day = -1;

  ReplayParams historical;  // defaults: ETH day 120, ETC day 177

  ReplayParams day0;
  day0.eth_eip155_day = 0;
  day0.etc_eip155_day = 0;
  day0.eip155_adoption_per_day = 0.05;  // mandatory from the start
  day0.eip155_adoption_cap = 1.0;

  ReplayParams splitting;
  splitting.eth_eip155_day = -1;
  splitting.etc_eip155_day = -1;
  splitting.split_per_day = 0.012;  // owners split addresses aggressively

  const Exposure e_none = run(none, seed);
  const Exposure e_hist = run(historical, seed);
  const Exposure e_day0 = run(day0, seed);
  const Exposure e_split = run(splitting, seed);

  Table table({"protection", "total echoes (270d)", "echoes/day (final month)"});
  table.add_row({"none", std::to_string(e_none.total_echoes),
                 std::to_string(e_none.late_per_day)});
  table.add_row({"EIP-155 historical timeline",
                 std::to_string(e_hist.total_echoes),
                 std::to_string(e_hist.late_per_day)});
  table.add_row({"EIP-155 mandatory at fork", std::to_string(e_day0.total_echoes),
                 std::to_string(e_day0.late_per_day)});
  table.add_row({"address splitting only", std::to_string(e_split.total_echoes),
                 std::to_string(e_split.late_per_day)});
  table.print(std::cout);

  analysis::PaperCheck check("A2 — replay protection ablation");
  check.expect("historical EIP-155 timeline reduces echoes vs none",
               e_hist.total_echoes < e_none.total_echoes,
               std::to_string(e_hist.total_echoes) + " vs " +
                   std::to_string(e_none.total_echoes));
  check.expect("day-0 mandatory chain ids nearly eliminate the echo tail",
               e_day0.late_per_day * 10 <= e_none.late_per_day + 10,
               std::to_string(e_day0.late_per_day) + "/day vs " +
                   std::to_string(e_none.late_per_day) + "/day");
  check.expect("hygiene alone helps but leaves a tail (defense in depth)",
               e_split.total_echoes < e_none.total_echoes &&
                   e_split.late_per_day > e_day0.late_per_day,
               "splitting " + std::to_string(e_split.late_per_day) +
                   "/day late");
  check.expect("even the historical rollout leaves persistent echoes "
               "(EIP-155 was opt-in)",
               e_hist.late_per_day > 0,
               std::to_string(e_hist.late_per_day) + "/day in final month");
  return {std::move(check)};
}
