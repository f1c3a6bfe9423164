// Ablation A7 — Byzantine adversary sweep for the chaos soak.
//
// The paper's partition severed on a public, permissionless network where
// nothing stops a peer from lying. This bench mixes hostile agents —
// invalid-block forgers, announcement withholders, transaction spammers,
// and equivocators — into the DAO-fork scenario at increasing fractions of
// the population and reports whether the honest nodes on each fork side
// still converge to a single head, how much defense work it cost them
// (wasted executions, cache hits, rate limiting, pool evictions), and
// whether the score-ban machinery isolated the attackers without ever
// friendly-firing an honest peer.
//
// The 33% row is the ISSUE's acceptance configuration: one third of the
// eligible population hostile, honest nodes still agree.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "sim/chaos.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

bench::Report bench::ablate_adversary(std::uint64_t seed, bool,
                                      obs::BenchRecord& rec) {
  std::cout << "== Ablation A7: partition convergence under Byzantine peers ==\n";
  std::cout << "(15 full nodes through the fork; hostile fraction swept "
               "0% -> 33%, all four agent kinds round-robin)\n\n";

  struct Row {
    std::string name;
    double fraction;
    ChaosReport report;
  };
  std::vector<Row> rows;
  // network faults and churn off: this ablation isolates the Byzantine
  // layer (A6 covers loss/cut/churn; the chaos soak example combines them)
  for (double fraction : {0.0, 0.10, 0.25, 0.33}) {
    ChaosParams cp = quiet_chaos(seed);
    cp.adversaries.fraction = fraction;
    ChaosRunner runner(cp);
    rows.push_back(
        {fmt(fraction * 100.0, 0) + "% hostile", fraction, runner.run()});
  }

  Table table({"hostile", "agents", "converged", "settle s", "forged",
               "phantoms", "spam txs", "equivs", "banned", "wasted exec",
               "cache hits", "rate-limited", "pool evict"});
  for (const Row& r : rows) {
    const ChaosReport& o = r.report;
    table.add_row({r.name, std::to_string(o.adversaries),
                   o.converged ? "yes" : "NO",
                   o.converged ? fmt(o.time_to_convergence, 0) : "-",
                   std::to_string(o.blocks_forged),
                   std::to_string(o.phantom_announcements),
                   std::to_string(o.txs_spammed),
                   std::to_string(o.equivocations),
                   std::to_string(o.attackers_banned) + "/" +
                       std::to_string(o.adversaries),
                   std::to_string(o.wasted_executions),
                   std::to_string(o.invalid_cache_hits),
                   std::to_string(o.rate_limited),
                   std::to_string(o.txpool_evictions)});
  }
  table.print(std::cout);

  std::cout << "\nNote: \"banned\" counts attackers score-banned by at least\n"
               "one honest node; \"wasted exec\" is honest full-validation\n"
               "work spent on blocks that turned out invalid, and \"cache\n"
               "hits\" are forged blocks the never-refetch cache absorbed\n"
               "without re-executing. Honest nodes never ban each other in\n"
               "any row (checked below).\n";

  const ChaosReport& clean = rows[0].report;
  const ChaosReport& f10 = rows[1].report;
  const ChaosReport& f33 = rows.back().report;

  analysis::PaperCheck check("A7 — Byzantine adversary ablation");
  check.expect("0% hostile baseline converges", clean.converged,
               fmt(clean.time_to_convergence, 0) + " s settle");
  check.expect("0% hostile run sees zero attack traffic",
               clean.adversaries == 0 && clean.blocks_forged == 0 &&
                   clean.txs_spammed == 0 && clean.equivocations == 0 &&
                   clean.phantom_announcements == 0,
               "adversary layer fully dormant");
  bool hostile_rows_converge = true;
  bool all_attackers_banned = true;
  std::uint64_t total_honest_bans = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const ChaosReport& o = rows[i].report;
    hostile_rows_converge = hostile_rows_converge && o.converged;
    all_attackers_banned =
        all_attackers_banned && o.attackers_banned == o.adversaries;
    total_honest_bans += o.honest_ban_events;
  }
  check.expect("every hostile fraction still converges",
               hostile_rows_converge,
               "10% / 25% / 33% all reach per-side head agreement");
  check.expect("every attacker is score-banned by honest nodes",
               all_attackers_banned,
               std::to_string(f33.attackers_banned) + "/" +
                   std::to_string(f33.adversaries) + " at 33%");
  check.expect("defenses never friendly-fire (0 honest-honest bans)",
               total_honest_bans == 0,
               std::to_string(total_honest_bans) + " honest ban events");
  check.expect("forged blocks burn real validation work",
               f10.wasted_executions > 0,
               std::to_string(f10.wasted_executions) + " wasted at 10%");
  check.expect("never-refetch cache absorbs forger re-pushes",
               f10.invalid_cache_hits > 0 && f33.invalid_cache_hits > 0,
               std::to_string(f33.invalid_cache_hits) + " hits at 33%");
  check.expect("attack volume scales with the hostile fraction",
               f33.blocks_forged + f33.txs_spammed + f33.equivocations >
                   f10.blocks_forged + f10.txs_spammed + f10.equivocations,
               "more agents, more junk");

  for (const Row& r : rows) {
    const std::string tag = "f" + fmt(r.fraction * 100.0, 0);
    rec.metric(tag + "_settle_seconds", r.report.time_to_convergence);
    rec.metric(tag + "_wasted_executions", r.report.wasted_executions);
    rec.metric(tag + "_invalid_cache_hits", r.report.invalid_cache_hits);
    rec.metric(tag + "_attackers_banned",
               static_cast<std::uint64_t>(r.report.attackers_banned));
    rec.param(tag + "_converged", r.report.converged);
  }
  return {std::move(check)};
}
