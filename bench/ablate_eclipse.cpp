// Ablation A14 — eclipse attack vs hardened peer discovery.
//
// The paper's partition assumed every node could at least HEAR both sides.
// An eclipse attack voids that assumption for one victim: a sybil swarm
// ground into the victim's routing-table buckets poisons discovery, floods
// its connection slots at (re)start, answers every lookup with more sybils,
// and withholds every block — the victim is alone with the attacker and its
// head goes quiet while its fork side mines on. This bench sweeps the sybil
// budget with the discovery defenses off and on and reports whether the
// victim ends the run fully eclipsed, how long it spent isolated, whether
// the isolation detector fired and recovered it, and that no defense ever
// banned an honest peer.
//
//   ./build/bench/forksim_bench ablate_eclipse [--reduced]
//
// --reduced runs the three-row {off-budget-32, on-budget-32, baseline}
// slice (used by the sanitizer CI job) and writes no bench record.
#include <iostream>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "sim/chaos.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

bench::Report bench::ablate_eclipse(std::uint64_t seed, bool reduced,
                                    obs::BenchRecord& rec) {
  std::cout << "== Ablation A14: eclipse attack vs hardened discovery ==\n"
            << (reduced ? "(reduced sanitizer slice)\n" : "")
            << "(11 full nodes through the fork; one victim, sybil budget "
               "swept 0 -> 32, defenses off vs on)\n\n";

  struct Row {
    std::string name;
    std::size_t budget;
    bool defended;
    ChaosReport report;
  };
  // faults / churn / Byzantine agents off: this ablation isolates the
  // discovery layer (A7 covers hostile peers, A6 loss/cut/churn)
  ChaosParams base = quiet_chaos(seed);
  base.scenario.nodes_eth = 8;
  base.scenario.nodes_etc = 3;
  base.scenario.miners_per_side_eth = 2;
  base.scenario.miners_per_side_etc = 1;
  base.scenario.fork_block = 6;
  base.mining_duration = 300.0;
  base.settle_deadline = 300.0;
  base.eclipse.victims = 1;
  base.eclipse.start = 30.0;
  base.eclipse.interval = 2.0;
  std::vector<Row> rows;
  const auto add_row = [&rows, &base](std::size_t budget, bool defended) {
    ChaosParams cp = base;
    cp.eclipse.budget = budget;
    cp.eclipse.defenses = defended;
    ChaosRunner runner(cp);
    const std::string name =
        budget == 0 ? "no attack"
                    : std::to_string(budget) + " sybils, defenses " +
                          (defended ? "ON" : "off");
    rows.push_back({name, budget, defended, runner.run()});
  };
  add_row(0, true);
  if (!reduced) {
    for (std::size_t budget : {8u, 16u, 32u}) add_row(budget, false);
    for (std::size_t budget : {8u, 16u, 32u}) add_row(budget, true);
  } else {
    add_row(32, false);
    add_row(32, true);
  }

  Table table({"config", "converged", "settle s", "eclipsed at end",
               "isolated s", "status floods", "lookups fed", "withheld",
               "suspicions", "recoveries", "honest bans"});
  for (const Row& r : rows) {
    const ChaosReport& o = r.report;
    const double isolated =
        o.isolation_seconds.empty() ? 0.0 : o.isolation_seconds[0];
    table.add_row({r.name, o.converged ? "yes" : "NO",
                   o.converged ? fmt(o.time_to_convergence, 0) : "-",
                   std::to_string(o.victims_eclipsed_at_end) + "/" +
                       std::to_string(o.eclipse_victims),
                   fmt(isolated, 0), std::to_string(o.eclipse_status_floods),
                   std::to_string(o.eclipse_lookups_answered),
                   std::to_string(o.eclipse_withheld_requests),
                   std::to_string(o.eclipse_suspicions),
                   std::to_string(o.eclipse_recoveries),
                   std::to_string(o.honest_ban_events)});
  }
  table.print(std::cout);

  std::cout << "\nNote: \"isolated s\" is sim-time the victim spent with a\n"
               "100% attacker peer set; \"eclipsed at end\" means it was\n"
               "still fully surrounded when the run closed. The defended\n"
               "rows run the SAME seed and swarm as the undefended ones —\n"
               "only the discovery hardening, slot caps, anchors, and the\n"
               "isolation detector differ.\n";

  const Row* baseline = &rows[0];
  const Row* off32 = nullptr;
  const Row* on32 = nullptr;
  for (const Row& r : rows) {
    if (r.budget == 32 && !r.defended) off32 = &r;
    if (r.budget == 32 && r.defended) on32 = &r;
  }

  analysis::PaperCheck check("A14 — eclipse ablation");
  check.expect("no-attack baseline converges", baseline->report.converged,
               fmt(baseline->report.time_to_convergence, 0) + " s settle");
  check.expect("no-attack run keeps the eclipse layer dormant",
               baseline->report.eclipse_sybils == 0 &&
                   baseline->report.eclipse_status_floods == 0 &&
                   baseline->report.isolation_seconds.empty(),
               "zero sybils, zero floods, zero probes");
  check.expect("budget 32 w/o defenses fully eclipses the victim",
               off32->report.victims_eclipsed_at_end == 1 &&
                   !off32->report.converged,
               fmt(off32->report.isolation_seconds.empty()
                       ? 0.0
                       : off32->report.isolation_seconds[0],
                   0) +
                   " s isolated, network never converges");
  check.expect("same seed + budget with defenses ON converges",
               on32->report.converged,
               fmt(on32->report.time_to_convergence, 0) + " s settle");
  check.expect("defended victim is not eclipsed at the end",
               on32->report.victims_eclipsed_at_end == 0,
               "at least one honest peer (or a detector recovery)");
  bool defended_rows_converge = true;
  bool defended_rows_clean = true;
  std::uint64_t total_honest_bans = 0;
  for (const Row& r : rows) {
    if (r.defended && r.budget > 0) {
      defended_rows_converge = defended_rows_converge && r.report.converged;
      defended_rows_clean =
          defended_rows_clean && r.report.victims_eclipsed_at_end == 0;
    }
    total_honest_bans += r.report.honest_ban_events;
  }
  check.expect("every defended budget converges un-eclipsed",
               defended_rows_converge && defended_rows_clean,
               "defenses hold across the whole budget sweep");
  check.expect("defenses never ban an honest peer (any row)",
               total_honest_bans == 0,
               std::to_string(total_honest_bans) + " honest ban events");
  check.expect("the swarm actually attacked",
               off32->report.eclipse_status_floods > 0 &&
                   off32->report.eclipse_table_floods > 0 &&
                   off32->report.eclipse_withheld_requests > 0,
               std::to_string(off32->report.eclipse_status_floods) +
                   " handshake floods at budget 32");

  for (const Row& r : rows) {
    const std::string tag = "b" + std::to_string(r.budget) +
                            (r.budget == 0 ? "" : r.defended ? "_on" : "_off");
    rec.metric(tag + "_settle_seconds", r.report.time_to_convergence);
    rec.metric(tag + "_isolation_seconds",
               r.report.isolation_seconds.empty()
                   ? 0.0
                   : r.report.isolation_seconds[0]);
    rec.metric(tag + "_status_floods", r.report.eclipse_status_floods);
    rec.metric(tag + "_suspicions", r.report.eclipse_suspicions);
    rec.metric(tag + "_recoveries", r.report.eclipse_recoveries);
    rec.param(tag + "_converged", r.report.converged);
  }
  return {std::move(check)};
}
