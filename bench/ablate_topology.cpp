// Ablation A10 — gossip topology at internet scale: degree distribution
// vs. block propagation, 1000 to 5000 nodes.
//
// Measurement studies of the live network (PAPERS.md — Ethna/DEthna,
// "Unveiling Ethereum's P2P Network") find node degrees spread around the
// protocol target with a heavy tail, and tie propagation percentiles to
// that shape. This bench sweeps the ScaleSim engine across uniform-k
// meshes (k = 8/16/32), a power-law mesh with the same minimum degree,
// and node counts up to 5000 — the scale where the flat node tables, the
// block arena, and the 4-ary scheduler earn their keep. Every row is one
// deterministic run; the first row re-runs as the bit-identity witness.
//
//   ./build/bench/forksim_bench ablate_topology [--reduced]
//
// --reduced runs a single 128-node row (the sanitizer CI slice) and skips
// the bench record.
#include <iostream>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "sim/scalesim.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct Row {
  std::string tag;
  ScaleParams params;
  ScaleReport report;
  double wall = 0.0;
};

// Both meshes run on flat 50 ms hops: topology is the only variable.
Row make_uniform(std::size_t nodes, std::size_t k, std::uint64_t seed) {
  Row row;
  row.tag = "u" + std::to_string(k) + "_" + std::to_string(nodes);
  row.params = bench::flat_scale(nodes, seed);
  row.params.topology.distribution = p2p::DegreeDistribution::kUniform;
  row.params.topology.degree = k;
  return row;
}

Row make_power_law(std::size_t nodes, std::size_t k_min, std::uint64_t seed) {
  Row row;
  row.tag = "pl" + std::to_string(k_min) + "_" + std::to_string(nodes);
  row.params = bench::flat_scale(nodes, seed);
  row.params.topology.distribution = p2p::DegreeDistribution::kPowerLaw;
  row.params.topology.degree = k_min;
  row.params.topology.max_degree = 64;
  row.params.topology.alpha = 2.2;
  return row;
}

}  // namespace

bench::Report bench::ablate_topology(std::uint64_t seed, bool reduced,
                                     obs::BenchRecord& rec) {
  std::vector<Row> rows;
  if (reduced) {
    rows.push_back(make_uniform(128, 8, seed));
    rows.back().params.duration = 900.0;
  } else {
    rows.push_back(make_uniform(1000, 8, seed));
    rows.push_back(make_uniform(1000, 16, seed));
    rows.push_back(make_uniform(1000, 32, seed));
    rows.push_back(make_power_law(1000, 8, seed));
    rows.push_back(make_uniform(2000, 16, seed));
    rows.push_back(make_uniform(5000, 16, seed));  // the acceptance scenario
  }

  std::cout << "== Ablation A10: gossip topology at internet scale ==\n"
            << (reduced ? "(reduced sanitizer slice)\n" : "") << rows.size()
            << " topologies, flat " << rows.front().params.uniform_base * 1e3
            << " ms hops, " << rows.front().params.miners
            << " equal miners, " << rows.front().params.duration
            << " s of mining per row\n\n";

  for (Row& row : rows) {
    obs::WallTimer t;
    ScaleSim sim(row.params);
    row.report = sim.run();
    row.wall = t.seconds();
    std::cout << "  " << row.tag << ": " << row.report.blocks_mined
              << " blocks, " << row.report.events << " events, p90 "
              << fmt(row.report.prop_p90, 3) << " s  (" << fmt(row.wall, 2)
              << " s wall)\n";
  }

  Table table({"mesh", "nodes", "deg mean", "deg max", "p50 s", "p90 s",
               "p99 s", "stale %", "fair dev", "events"});
  for (const Row& row : rows) {
    ScaleSim probe(row.params);  // topology accessors only; never run
    table.add_row({row.tag, std::to_string(row.params.nodes),
                   fmt(probe.topology().mean_degree(), 1),
                   std::to_string(probe.topology().max_degree()),
                   fmt(row.report.prop_p50, 3), fmt(row.report.prop_p90, 3),
                   fmt(row.report.prop_p99, 3),
                   fmt(row.report.stale_rate * 100.0, 2),
                   fmt(row.report.fairness_max_dev, 2),
                   std::to_string(row.report.events)});
  }
  std::cout << "\n";
  table.print(std::cout);

  // bit-identity witness: the first row, fresh engine, same fingerprint
  const ScaleReport rerun = ScaleSim(rows.front().params).run();

  analysis::PaperCheck check("A10 — topology vs propagation");
  bool all_converged = true;
  bool percentiles_ordered = true;
  for (const Row& row : rows) {
    all_converged = all_converged && row.report.converged;
    percentiles_ordered = percentiles_ordered &&
                          row.report.prop_p50 <= row.report.prop_p90 &&
                          row.report.prop_p90 <= row.report.prop_p99;
  }
  check.expect("every mesh converges to one head after drain",
               all_converged, std::to_string(rows.size()) + " rows");
  check.expect("propagation percentiles are ordered (p50 <= p90 <= p99)",
               percentiles_ordered, "all rows");
  check.expect("same seed, fresh engine: bit-identical fingerprint",
               rerun.fingerprint == rows.front().report.fingerprint,
               rows.front().tag + " re-run matches");
  if (!reduced) {
    const Row& u8 = rows[0];
    const Row& u32 = rows[2];
    const Row& big = rows.back();
    check.expect("denser mesh propagates faster (u32 p90 < u8 p90 at 1k)",
                 u32.report.prop_p90 < u8.report.prop_p90,
                 fmt(u32.report.prop_p90, 3) + " vs " +
                     fmt(u8.report.prop_p90, 3) + " s");
    // with sub-second propagation against a 13 s interval, stale rates sit
    // in the low single digits everywhere (a handful of blocks per row, so
    // cross-row ordering is sampling noise — the band is the invariant)
    bool stale_band = true;
    for (const Row& row : rows)
      stale_band = stale_band && row.report.stale_rate < 0.05;
    check.expect("stale rates stay in the low-single-digit band "
                 "(< 5% on every mesh)",
                 stale_band,
                 "u8 " + fmt(u8.report.stale_rate * 100.0, 2) + "%, u32 " +
                     fmt(u32.report.stale_rate * 100.0, 2) + "%");
    check.expect("power-law hubs beat the uniform mesh at equal minimum "
                 "degree (pl8 p90 < u8 p90)",
                 rows[3].report.prop_p90 < u8.report.prop_p90,
                 fmt(rows[3].report.prop_p90, 3) + " vs " +
                     fmt(u8.report.prop_p90, 3) + " s");
    check.expect("the 5000-node scenario completes and converges",
                 big.params.nodes == 5000 && big.report.converged &&
                     big.report.blocks_mined > 100,
                 std::to_string(big.report.events) + " events, " +
                     std::to_string(big.report.blocks_mined) + " blocks");
  }

  rec.param("rows", static_cast<std::uint64_t>(rows.size()));
  rec.param("miners", static_cast<std::uint64_t>(rows[0].params.miners));
  rec.param("fingerprint_u8_1000", rows[0].report.fingerprint.hex());
  for (const Row& row : rows) {
    rec.metric(row.tag + "_prop_p50", row.report.prop_p50);
    rec.metric(row.tag + "_prop_p90", row.report.prop_p90);
    rec.metric(row.tag + "_prop_p99", row.report.prop_p99);
    rec.metric(row.tag + "_stale_rate", row.report.stale_rate);
    rec.metric(row.tag + "_fairness_max_dev", row.report.fairness_max_dev);
    rec.metric(row.tag + "_events", row.report.events);
    rec.param(row.tag + "_converged", row.report.converged);
  }
  return {std::move(check)};
}
