// Ablation A9 — the failure-scenario matrix: composed partition /
// Byzantine / crash sweeps scored against availability SLOs.
//
// Every prior robustness layer measured one failure mode in isolation (A6
// message faults, A7 hostile peers, A8 crash recovery). The paper's
// partition was all of them at once: lossy links, a mass exodus, nodes
// limping back from whatever their disks kept. This bench sweeps the
// composed space — byzantine_share x offline_share x partitioned_share x
// partition_duration — one deterministic ChaosRunner run per cell, and
// scores each episode with the availability probe: per-phase availability
// against a quorum threshold (0.6 of each side's honest nodes live and
// within 2 blocks of the side head), degraded time, and time-to-heal after
// the partition closes. The whole grid replays bit-identically from the
// seed and lands in one heatmap-ready BENCH_matrix.json.
//
//   ./build/bench/forksim_bench ablate_matrix [--reduced]
//
// --reduced runs a 2x2x1x1 corner of the grid (used by the sanitizer CI
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

MatrixParams default_matrix(std::uint64_t seed, bool reduced) {
  MatrixParams mp;
  ChaosParams& cp = mp.base;
  cp.scenario.nodes_eth = 6;
  cp.scenario.nodes_etc = 3;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 8;
  cp.scenario.seed = seed;
  // message-level faults off: the axes supply the adversity, so the
  // all-zero cell is a true control (>= 99% available in every phase)
  cp.extra_loss = 0.0;
  cp.duplicate_prob = 0.0;
  cp.reorder_prob = 0.0;
  // crashed nodes all return, and every return is a cold restart off a
  // moderately corrupting disk — the offline axis composes with the
  // durability layer instead of modeling a clean exodus
  cp.restart_prob = 1.0;
  cp.mean_downtime = 60.0;
  cp.cold_restart_prob = 1.0;
  cp.storage_faults.torn_write_prob = 0.3;
  cp.storage_faults.tail_truncate_prob = 0.3;
  cp.storage_faults.bit_rot_prob = 0.2;
  cp.mining_duration = 1000.0;
  cp.settle_deadline = 800.0;
  // availability SLO: 60% of each side's honest nodes live and within 2
  // blocks of the side head, sampled every 5 sim-seconds; 30 sustained
  // seconds above quorum count as healed
  cp.probe.interval = 5.0;
  cp.probe.quorum_fraction = 0.6;
  cp.probe.max_head_lag = 2;
  cp.probe.heal_sustain = 30.0;

  mp.failure_start = 300.0;
  if (reduced) {
    mp.axes.byzantine_share = {0.0, 0.25};
    mp.axes.offline_share = {0.0, 0.4};
    mp.axes.partitioned_share = {0.5};
    mp.axes.partition_duration = {30.0};
  } else {
    mp.axes.byzantine_share = {0.0, 0.1, 0.25};
    mp.axes.offline_share = {0.0, 0.2, 0.4};
    mp.axes.partitioned_share = {0.0, 0.5};
    mp.axes.partition_duration = {30.0, 60.0};
  }
  return mp;
}

std::string cell_tag(const MatrixCellSpec& s) {
  const auto pct = [](double v) {
    return std::to_string(static_cast<int>(v * 100.0 + 0.5));
  };
  return "b" + pct(s.byzantine_share) + "_o" + pct(s.offline_share) + "_p" +
         pct(s.partitioned_share) + "_d" +
         std::to_string(static_cast<int>(s.partition_duration + 0.5));
}

bool all_zero_axes(const MatrixCellSpec& s) {
  return s.byzantine_share == 0.0 && s.offline_share == 0.0 &&
         s.partitioned_share == 0.0;
}

void cell_metrics(obs::BenchRecord& rec, const std::string& tag,
                  const MatrixCell& c) {
  rec.metric(tag + "_degraded_seconds",
             c.report.availability.degraded_seconds);
  rec.metric(tag + "_peers_banned", c.report.peers_banned);
  rec.metric(tag + "_blocks_replayed", c.report.store_blocks_replayed);
  rec.metric(tag + "_replay_rejected", c.report.store_replay_rejected);
}

}  // namespace

bench::Report bench::ablate_matrix(std::uint64_t seed, bool reduced,
                                   obs::BenchRecord& rec) {
  const MatrixParams mp = default_matrix(seed, reduced);
  std::cout << "== Ablation A9: failure-scenario matrix ==\n"
            << (reduced ? "(reduced sanitizer grid)\n" : "")
            << mp.axes.byzantine_share.size() << " byzantine x "
            << mp.axes.offline_share.size() << " offline x "
            << mp.axes.partitioned_share.size() << " partitioned x "
            << mp.axes.partition_duration.size() << " duration = "
            << mp.axes.cell_count() << " cells, "
            << mp.base.scenario.nodes_eth + mp.base.scenario.nodes_etc
            << " nodes each, failure episode opens at t="
            << mp.failure_start << "\n\n";

  MatrixRunner runner(mp);
  const MatrixReport report = runner.run(&std::cout);

  Table table({"byz", "off", "part", "dur s", "conv", "avail pre",
               "during", "post", "degraded s", "heal s"});
  for (const MatrixCell& c : report.cells) {
    const AvailabilityStats& a = c.report.availability;
    table.add_row({fmt(c.spec.byzantine_share, 2),
                   fmt(c.spec.offline_share, 2),
                   fmt(c.spec.partitioned_share, 2),
                   fmt(c.spec.partition_duration, 0),
                   c.report.converged ? "yes" : "NO", fmt(a.pre, 3),
                   fmt(a.during_failure, 3), fmt(a.post, 3),
                   fmt(a.degraded_seconds, 0), fmt(a.time_to_heal, 0)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nmatrix fingerprint: " << report.fingerprint.hex()
            << "\n\n";

  // Determinism witness: re-run the heaviest cell standalone and demand
  // the identical fingerprint (same seed -> same bytes, cell by cell).
  const MatrixCell& heaviest = report.cells.back();
  ChaosRunner recheck(compose_cell(mp, heaviest.spec));
  const ChaosReport rerun = recheck.run();

  analysis::PaperCheck check("A9 — failure-scenario matrix");
  bool all_converged = true, heal_reported = true, phases_populated = true;
  bool controls_available = true;
  std::size_t controls = 0;
  for (const MatrixCell& c : report.cells) {
    const AvailabilityStats& a = c.report.availability;
    all_converged = all_converged && c.report.converged;
    heal_reported = heal_reported && a.time_to_heal >= 0.0;
    phases_populated = phases_populated && a.pre >= 0.0 &&
                       a.during_failure >= 0.0 && a.post >= 0.0;
    if (all_zero_axes(c.spec)) {
      ++controls;
      controls_available = controls_available && a.pre >= 0.99 &&
                           a.during_failure >= 0.99 && a.post >= 0.99;
    }
  }
  check.expect("every cell converges (grid stays within byz <= 0.33, "
               "offline <= 0.5)",
               all_converged,
               std::to_string(report.converged_cells()) + "/" +
                   std::to_string(report.cells.size()) + " cells converged");
  check.expect("time-to-heal is reported (>= 0) for every cell",
               heal_reported, "no cell failed to re-cross its quorum");
  check.expect("every phase of every cell collected samples",
               phases_populated, "pre/during/post all populated");
  if (!reduced) {
    check.expect("all-zero-axes control cells stay >= 99% available in "
                 "every phase",
                 controls > 0 && controls_available,
                 std::to_string(controls) + " control cells");
    const AvailabilityStats& heavy = heaviest.report.availability;
    check.expect("the heaviest composed cell degrades during its episode",
                 heavy.during_failure < 1.0,
                 "during-phase availability " + fmt(heavy.during_failure, 3));
  }
  check.expect("re-running a cell reproduces its fingerprint bit for bit",
               rerun.fingerprint == heaviest.report.fingerprint,
               "heaviest cell re-run matches");

  record_cells(rec, mp, report, cell_tag, cell_metrics);
  return {std::move(check)};
}
