// Ablation A13 — client diversity & consensus bugs: minority-share sweep
// over an injected validation quirk, with per-family availability SLOs.
//
// The paper's partition was an intentional validity split; the modern
// replays (the 2020 OpenEthereum incident) are splits caused by
// implementation divergence — a minority client family whose validation
// rules disagree with the majority's inside a bug window, until a hotfix
// ships. This bench sweeps the minority share 0 -> 50% over the DAO-replay
// scenario: each cell assigns a seeded geth/parity mix, the parity quirk
// disputes EVERY block inside [300, 600) (trigger_modulus 1 — the "stall"
// shape: the minority cannot even extend its own chain), the hotfix lands
// at t=600, and the availability probe scores the whole episode per fork
// side AND per client family. The paper-check contract: disputed blocks
// are header-followed and never feed the ban machinery, every minority
// node takes the hotfix and deep-reorgs home, and the whole sweep replays
// bit-identically from the seed.
//
//   ./build/bench/forksim_bench ablate_clients [--reduced]
//
// --reduced runs a two-cell {0, 25%} slice (used by the sanitizer CI
// job); it prints the same checks but skips the bench record.
#include <iostream>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "sim/matrix.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

MatrixParams default_clients_matrix(std::uint64_t seed, bool reduced) {
  MatrixParams mp;
  ChaosParams& cp = mp.base;
  cp.scenario.nodes_eth = 12;
  cp.scenario.nodes_etc = 4;
  cp.scenario.miners_per_side_eth = 3;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 6;
  cp.scenario.seed = seed;
  // carried through compose_cell: the quirk disputes every in-window
  // block — the 2020 OpenEthereum stall shape
  cp.scenario.clients.trigger_modulus = 1;
  // message-level faults off: the client mix supplies the adversity, so
  // the zero-share cell is a true control
  cp.extra_loss = 0.0;
  cp.duplicate_prob = 0.0;
  cp.reorder_prob = 0.0;
  cp.churn_fraction = 0.0;
  cp.restart_prob = 1.0;
  cp.mining_duration = 900.0;
  cp.settle_deadline = 700.0;
  // a tight SLO (90% of each side live and within 2 blocks) so a stalled
  // minority is visible at the side level, not just the family level
  cp.probe.interval = 5.0;
  cp.probe.quorum_fraction = 0.9;
  cp.probe.max_head_lag = 2;
  cp.probe.heal_sustain = 30.0;

  mp.failure_start = 300.0;  // bug onset; the hotfix ships at t=600
  mp.axes.byzantine_share = {0.0};
  mp.axes.offline_share = {0.0};
  mp.axes.partitioned_share = {0.0};
  mp.axes.partition_duration = {300.0};
  if (reduced)
    mp.axes.minority_share = {0.0, 0.25};
  else
    mp.axes.minority_share = {0.0, 0.1, 0.25, 0.4, 0.5};
  return mp;
}

std::string cell_tag(const MatrixCellSpec& s) {
  std::string tag = "m";
  tag += std::to_string(static_cast<int>(s.minority_share * 100.0 + 0.5));
  return tag;
}

/// The parity (minority) family entry of a cell, or null for control cells.
const ChaosReport::ClientFamilyReport* parity_of(const ChaosReport& r) {
  for (const auto& f : r.client_families)
    if (f.family == ClientFamily::kParity) return &f;
  return nullptr;
}

void cell_metrics(obs::BenchRecord& rec, const std::string& tag,
                  const MatrixCell& c) {
  rec.metric(tag + "_disputed_blocks", c.report.disputed_blocks);
  rec.metric(tag + "_divergence_events", c.report.divergence_events);
  rec.metric(tag + "_consensus_patches", c.report.consensus_patches);
  rec.metric(tag + "_honest_ban_events", c.report.honest_ban_events);
  if (const auto* parity = parity_of(c.report)) {
    rec.metric(tag + "_parity_availability_during",
               parity->availability.during_failure);
    rec.metric(tag + "_parity_divergence_seconds",
               parity->divergence_seconds);
  }
}

}  // namespace

bench::Report bench::ablate_clients(std::uint64_t seed, bool reduced,
                                    obs::BenchRecord& rec) {
  const MatrixParams mp = default_clients_matrix(seed, reduced);
  std::cout << "== Ablation A13: client diversity & consensus bugs ==\n"
            << (reduced ? "(reduced sanitizer slice)\n" : "")
            << "minority share swept over {";
  for (std::size_t i = 0; i < mp.axes.minority_share.size(); ++i)
    std::cout << (i ? ", " : "") << mp.axes.minority_share[i];
  std::cout << "}, "
            << mp.base.scenario.nodes_eth + mp.base.scenario.nodes_etc
            << " nodes, bug window [" << mp.failure_start << ", "
            << mp.failure_start + mp.axes.partition_duration[0]
            << "), quirk disputes every in-window block\n\n";

  MatrixRunner runner(mp);
  const MatrixReport report = runner.run(&std::cout);

  Table table({"minority", "conv", "disputed", "diverg", "patches",
               "avail during", "post", "heal s", "parity during",
               "parity div s"});
  for (const MatrixCell& c : report.cells) {
    const AvailabilityStats& a = c.report.availability;
    const auto* parity = parity_of(c.report);
    table.add_row(
        {fmt(c.spec.minority_share, 2), c.report.converged ? "yes" : "NO",
         std::to_string(c.report.disputed_blocks),
         std::to_string(c.report.divergence_events),
         std::to_string(c.report.consensus_patches),
         fmt(a.during_failure, 3), fmt(a.post, 3), fmt(a.time_to_heal, 0),
         parity ? fmt(parity->availability.during_failure, 3) : "-",
         parity ? fmt(parity->divergence_seconds, 0) : "-"});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nsweep fingerprint: " << report.fingerprint.hex() << "\n\n";

  // Determinism witness: re-run the heaviest cell standalone and demand
  // the identical fingerprint.
  const MatrixCell& heaviest = report.cells.back();
  ChaosRunner recheck(compose_cell(mp, heaviest.spec));
  const ChaosReport rerun = recheck.run();

  analysis::PaperCheck check("A13 — client diversity & consensus bugs");
  const ChaosReport& control = report.cells.front().report;
  bool all_converged = true, no_honest_bans = true;
  bool bug_cells_disputed = true, bug_cells_patched = true;
  for (const MatrixCell& c : report.cells) {
    all_converged = all_converged && c.report.converged;
    no_honest_bans = no_honest_bans && c.report.honest_ban_events == 0 &&
                     c.report.peers_banned == 0;
    if (c.spec.minority_share > 0.0) {
      bug_cells_disputed = bug_cells_disputed && c.report.disputed_blocks > 0;
      bug_cells_patched = bug_cells_patched && c.report.consensus_patches > 0;
    }
  }
  check.expect("the zero-share control keeps the client layer off entirely",
               control.disputed_blocks == 0 &&
                   control.consensus_patches == 0 &&
                   control.client_families.empty(),
               "no disputes, no patches, no family reports");
  check.expect("the control cell stays >= 99% available in every phase",
               control.availability.pre >= 0.99 &&
                   control.availability.during_failure >= 0.99 &&
                   control.availability.post >= 0.99,
               "the sweep's adversity all comes from the client mix");
  check.expect("every bug cell disputes blocks and applies the hotfix",
               bug_cells_disputed && bug_cells_patched,
               "disputed > 0 and consensus_patches > 0 at every share > 0");
  check.expect("every cell converges after the hotfix (deep reorg heals "
               "the split)",
               all_converged,
               std::to_string(report.converged_cells()) + "/" +
                   std::to_string(report.cells.size()) + " cells converged");
  check.expect("validity disagreement never feeds the ban machinery",
               no_honest_bans, "zero bans across the whole sweep");
  const auto* heavy_parity = parity_of(heaviest.report);
  check.expect("the minority family degrades during the bug window at the "
               "heaviest share",
               heavy_parity != nullptr &&
                   heavy_parity->availability.during_failure < 1.0 &&
                   heavy_parity->availability.during_failure <=
                       heaviest.report.availability.during_failure + 1e-9,
               heavy_parity
                   ? "parity during-window availability " +
                         fmt(heavy_parity->availability.during_failure, 3)
                   : "no parity family report");
  check.expect("re-running a cell reproduces its fingerprint bit for bit",
               rerun.fingerprint == heaviest.report.fingerprint,
               "heaviest cell re-run matches");

  rec.param("trigger_modulus", static_cast<std::uint64_t>(
                                   mp.base.scenario.clients.trigger_modulus));
  record_cells(rec, mp, report, cell_tag, cell_metrics);
  return {std::move(check)};
}
