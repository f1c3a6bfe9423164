// The interface every experiment of `forksim_bench` implements, and the
// setup that several experiments share. The experiment table is in
// bench/forksim_bench.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/figures.hpp"
#include "obs/bench_record.hpp"
#include "sim/chaos.hpp"
#include "sim/matrix.hpp"
#include "sim/scalesim.hpp"
#include "support/table.hpp"

namespace forksim::bench {

struct Report {
  analysis::PaperCheck check;
  /// The series a paper figure plots (fig1–fig5 only): the driver prints
  /// it before the check and writes it with --csv.
  std::optional<Table> table = std::nullopt;
};

/// Runs one experiment at `seed`; `reduced` selects its sanitizer slice.
/// The experiment prints its headline and tables and puts its own metrics
/// and params into `rec`, which the driver writes for full runs only.
using Run = Report(std::uint64_t seed, bool reduced, obs::BenchRecord& rec);

Run fig1_short_term, fig2_long_term, fig3_efficiency, fig4_replay,
    fig5_pools;
Run ablate_difficulty, ablate_replay, ablate_gossip, ablate_pools,
    ablate_partition, ablate_faults, ablate_adversary, ablate_recovery,
    ablate_matrix, ablate_topology, ablate_geo, ablate_parallel,
    ablate_clients, ablate_eclipse;

/// The quiet DAO-fork chaos base of A6, A7, A8 and A14: 10 ETH / 5 ETC full
/// nodes with 3/2 miners, with message faults, the cut and churn all off.
inline sim::ChaosParams quiet_chaos(std::uint64_t seed) {
  sim::ChaosParams cp;
  cp.scenario.nodes_eth = 10;
  cp.scenario.nodes_etc = 5;
  cp.scenario.miners_per_side_eth = 3;
  cp.scenario.miners_per_side_etc = 2;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 10;
  cp.scenario.seed = seed;
  cp.extra_loss = 0.0;
  cp.duplicate_prob = 0.0;
  cp.reorder_prob = 0.0;
  cp.cut_start = -1.0;
  cp.churn_fraction = 0.0;
  cp.mining_duration = 1500.0;
  cp.settle_deadline = 1200.0;
  return cp;
}

/// The ScaleSim base of A10, A11 and A12: flat 50 ms hops, 24 equal miners,
/// a 13 s block interval and an hour of mining.
inline sim::ScaleParams flat_scale(std::size_t nodes, std::uint64_t seed) {
  sim::ScaleParams p;
  p.nodes = nodes;
  p.miners = 24;
  p.block_interval = 13.0;
  p.duration = 3600.0;
  p.uniform_base = 0.05;
  p.seed = seed;
  return p;
}

/// The matrix record of A9 and A13: the cell count, probe quorum and sweep
/// fingerprint, then per cell (keys prefixed `tag(spec) + "_"`) its
/// convergence, phase availability, heal and settle times, and whatever
/// `extra` adds.
inline void record_cells(obs::BenchRecord& rec, const sim::MatrixParams& mp,
                         const sim::MatrixReport& report,
                         std::string (*tag)(const sim::MatrixCellSpec&),
                         void (*extra)(obs::BenchRecord&, const std::string&,
                                       const sim::MatrixCell&)) {
  rec.param("cells", static_cast<std::uint64_t>(report.cells.size()));
  rec.param("quorum_fraction", mp.base.probe.quorum_fraction);
  rec.param("fingerprint", report.fingerprint.hex());
  for (const sim::MatrixCell& c : report.cells) {
    const std::string t = tag(c.spec);
    const sim::AvailabilityStats& a = c.report.availability;
    rec.param(t + "_converged", c.report.converged);
    rec.metric(t + "_availability_pre", a.pre);
    rec.metric(t + "_availability_during", a.during_failure);
    rec.metric(t + "_availability_post", a.post);
    rec.metric(t + "_time_to_heal", a.time_to_heal);
    rec.metric(t + "_settle_seconds", c.report.time_to_convergence);
    extra(rec, t, c);
  }
}

}  // namespace forksim::bench
