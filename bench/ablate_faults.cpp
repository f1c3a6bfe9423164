// Ablation A6 — adversity sweep for the chaos soak.
//
// The paper's partition severed cleanly on a real, messy network. This
// bench sweeps the fault-injection knobs over the DAO-fork scenario —
// message loss, a scheduled network-layer bisection cut, and node churn,
// separately and combined — and reports whether each side of the fork
// still converges to a single head, how long convergence takes after
// mining stops, and how hard the resilient-sync machinery (timeouts,
// retries, re-dials, bans) had to work to get there.
//
// The "combined" row is the ISSUE's acceptance configuration: 10% loss +
// one 60-sim-second bisection cut + >=20% node churn.
#include <algorithm>
#include <iostream>
#include <vector>

#include "experiment.hpp"
#include "sim/chaos.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

bench::Report bench::ablate_faults(std::uint64_t seed, bool,
                                   obs::BenchRecord&) {
  std::cout << "== Ablation A6: partition convergence under adversity ==\n";
  std::cout << "(15 full nodes through the fork; loss / cut / churn swept "
               "separately, then combined)\n\n";

  struct Row {
    const char* name;
    ChaosReport report;
  };
  std::vector<Row> rows;
  auto sweep = [&](const char* name, ChaosParams cp) {
    ChaosRunner runner(cp);
    rows.push_back({name, runner.run()});
  };

  // all faults off; each row below switches its own adversity on
  const ChaosParams quiet = quiet_chaos(seed);
  sweep("baseline (no faults)", quiet);

  {
    ChaosParams cp = quiet;
    cp.extra_loss = 0.10;
    sweep("10% loss", cp);
  }
  {
    ChaosParams cp = quiet;
    cp.extra_loss = 0.25;
    sweep("25% loss", cp);
  }
  {
    ChaosParams cp = quiet;
    cp.cut_start = 300.0;
    cp.cut_duration = 60.0;
    sweep("60 s bisection cut", cp);
  }
  {
    ChaosParams cp = quiet;
    cp.churn_fraction = 0.20;
    sweep("20% churn", cp);
  }
  ChaosParams acceptance = quiet;
  acceptance.extra_loss = 0.10;
  acceptance.duplicate_prob = 0.02;
  acceptance.reorder_prob = 0.05;
  acceptance.cut_start = 300.0;
  acceptance.cut_duration = 60.0;
  acceptance.churn_fraction = 0.20;
  sweep("combined (acceptance)", acceptance);

  Table table({"adversity", "converged", "settle s", "heights eth/etc",
               "crash/restart", "timeouts", "retries", "bans",
               "msgs dropped"});
  for (const Row& r : rows) {
    const ChaosReport& o = r.report;
    table.add_row(
        {r.name, o.converged ? "yes" : "NO",
         o.converged ? fmt(o.time_to_convergence, 0) : "-",
         std::to_string(o.height_eth) + "/" + std::to_string(o.height_etc),
         std::to_string(o.crashes) + "/" + std::to_string(o.restarts),
         std::to_string(o.sync_timeouts), std::to_string(o.sync_retries),
         std::to_string(o.peers_banned),
         std::to_string(o.faults.dropped_by_loss + o.faults.dropped_by_cut)});
  }
  table.print(std::cout);

  std::cout << "\nNote: \"converged\" = every running node on each fork side\n"
               "agrees on one canonical head after mining stops, with both\n"
               "sides past the fork height. Retries/bans are the resilient\n"
               "sync layer working; a NO row means the adversity beat it.\n";

  const ChaosReport& baseline = rows[0].report;
  const ChaosReport& loss10 = rows[1].report;
  const ChaosReport& combined = rows.back().report;

  analysis::PaperCheck check("A6 — fault-injection ablation");
  check.expect("baseline (no faults) converges", baseline.converged,
               fmt(baseline.time_to_convergence, 0) + " s settle");
  check.expect("baseline barely retries (loss forces 10x more)",
               loss10.sync_retries > 10 * std::max<std::uint64_t>(
                                              1, baseline.sync_retries),
               std::to_string(baseline.sync_retries) + " vs " +
                   std::to_string(loss10.sync_retries) + " retries");
  check.expect("10% loss still converges", loss10.converged,
               fmt(loss10.time_to_convergence, 0) + " s settle");
  check.expect("lost replies are visibly retried under 10% loss",
               loss10.sync_timeouts > 0 && loss10.sync_retries > 0,
               std::to_string(loss10.sync_timeouts) + " timeouts, " +
                   std::to_string(loss10.sync_retries) + " retries");
  check.expect("acceptance triple (loss+cut+churn) converges",
               combined.converged,
               fmt(combined.time_to_convergence, 0) + " s settle");
  check.expect("churn actually happened in the combined run",
               combined.crashes >= 3,
               std::to_string(combined.crashes) + " crashes, " +
                   std::to_string(combined.restarts) + " restarts");
  check.expect("both fork sides kept survivors",
               combined.survivors_eth > 0 && combined.survivors_etc > 0,
               std::to_string(combined.survivors_eth) + " eth / " +
                   std::to_string(combined.survivors_etc) + " etc");
  return {std::move(check)};
}
