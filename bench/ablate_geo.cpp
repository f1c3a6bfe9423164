// Ablation A11 — geography vs propagation and mining fairness.
//
// "Decentralization in Bitcoin and Ethereum Networks" measures Ethereum
// block propagation spanning tens of milliseconds to seconds across the
// real internet; "Impact of Geo-distribution and Mining Pools on
// Blockchains" shows miner location shifting stale rates and win shares.
// This bench holds the mesh fixed (1000 nodes, uniform k=16) and sweeps
// the latency geography: a flat 50 ms network, the six-continent internet
// profile, and the same profile with every RTT tripled. Propagation
// percentiles, stale rates, and per-region fairness all come from the
// same deterministic engine; the internet row re-runs as the bit-identity
// witness.
//
//   ./build/bench/forksim_bench ablate_geo
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
};

Row make_row(const std::string& tag, double rtt_factor, std::uint64_t seed) {
  Row row;
  row.tag = tag;
  row.params = bench::flat_scale(1000, seed);
  row.params.topology.degree = 16;
  row.params.duration = 7200.0;  // ~550 blocks: enough for stable win shares
  if (rtt_factor > 0.0) {
    row.params.geo = p2p::GeoParams::internet().scaled(rtt_factor);
    row.params.geo.enabled = true;
  }
  return row;
}

}  // namespace

bench::Report bench::ablate_geo(std::uint64_t seed, bool,
                                obs::BenchRecord& rec) {
  std::vector<Row> rows;
  rows.push_back(make_row("flat50ms", 0.0, seed));
  rows.push_back(make_row("internet", 1.0, seed));
  rows.push_back(make_row("internet_x3", 3.0, seed));

  std::cout << "== Ablation A11: geography vs propagation and fairness ==\n"
            << "1000 nodes, uniform k=16 mesh, 24 equal miners, "
            << rows.front().params.duration << " s of mining per row\n\n";

  for (Row& row : rows) {
    ScaleSim sim(row.params);
    row.report = sim.run();
    std::cout << "  " << row.tag << ": " << row.report.blocks_mined
              << " blocks, p90 " << fmt(row.report.prop_p90, 3)
              << " s, stale " << fmt(row.report.stale_rate * 100.0, 2)
              << "%\n";
  }

  Table table({"geography", "p50 s", "p90 s", "p99 s", "stale %",
               "fair dev", "gini"});
  for (const Row& row : rows)
    table.add_row({row.tag, fmt(row.report.prop_p50, 3),
                   fmt(row.report.prop_p90, 3), fmt(row.report.prop_p99, 3),
                   fmt(row.report.stale_rate * 100.0, 2),
                   fmt(row.report.fairness_max_dev, 2),
                   fmt(row.report.fairness_gini, 3)});
  std::cout << "\n";
  table.print(std::cout);

  // per-region slice of the internet row: where the paper's geography
  // story lives (population, hashpower, stale rate, win-share fairness)
  const Row& internet = rows[1];
  Table regions({"region", "nodes", "miners", "mined", "canonical",
                 "stale %", "fairness"});
  for (const RegionStats& r : internet.report.regions)
    regions.add_row({r.name, std::to_string(r.population),
                     std::to_string(r.miners),
                     std::to_string(r.blocks_mined),
                     std::to_string(r.blocks_canonical),
                     fmt(r.stale_rate * 100.0, 2), fmt(r.fairness, 2)});
  std::cout << "\ninternet row by region:\n";
  regions.print(std::cout);

  const ScaleReport rerun = ScaleSim(internet.params).run();

  analysis::PaperCheck check("A11 — geography vs fairness");
  bool all_converged = true;
  for (const Row& row : rows)
    all_converged = all_converged && row.report.converged;
  check.expect("every geography converges to one head after drain",
               all_converged, std::to_string(rows.size()) + " rows");
  // the internet profile's *median* hop (intra-NA/EU) is cheaper than the
  // flat 50 ms base — geography shows up as tail spread, exactly as the
  // measurement papers report: long-haul links stretch p99 away from p50
  const auto tail_spread = [](const ScaleReport& r) {
    return r.prop_p99 / r.prop_p50;
  };
  check.expect("internet RTT classes widen the propagation tail vs the "
               "flat mesh (p99/p50 spread)",
               tail_spread(rows[1].report) > tail_spread(rows[0].report),
               fmt(tail_spread(rows[1].report), 2) + "x vs " +
                   fmt(tail_spread(rows[0].report), 2) + "x");
  check.expect("propagation is monotone in RTT scale (x3 p90 > x1 p90)",
               rows[2].report.prop_p90 > rows[1].report.prop_p90,
               fmt(rows[2].report.prop_p90, 3) + " vs " +
                   fmt(rows[1].report.prop_p90, 3) + " s");
  check.expect("slower geography raises the stale rate (x3 > flat)",
               rows[2].report.stale_rate > rows[0].report.stale_rate,
               fmt(rows[2].report.stale_rate * 100.0, 2) + "% vs " +
                   fmt(rows[0].report.stale_rate * 100.0, 2) + "%");
  std::size_t populated = 0;
  std::size_t placed = 0;
  for (const RegionStats& r : internet.report.regions) {
    if (r.population > 0) ++populated;
    placed += r.population;
  }
  check.expect("all six regions are populated and account for every node",
               populated == 6 && placed == internet.params.nodes,
               std::to_string(placed) + " nodes placed");
  check.expect("same seed, fresh engine: bit-identical fingerprint",
               rerun.fingerprint == internet.report.fingerprint,
               "internet re-run matches");

  rec.param("nodes", static_cast<std::uint64_t>(internet.params.nodes));
  rec.param("fingerprint_internet", internet.report.fingerprint.hex());
  for (const Row& row : rows) {
    rec.metric(row.tag + "_prop_p50", row.report.prop_p50);
    rec.metric(row.tag + "_prop_p90", row.report.prop_p90);
    rec.metric(row.tag + "_prop_p99", row.report.prop_p99);
    rec.metric(row.tag + "_stale_rate", row.report.stale_rate);
    rec.metric(row.tag + "_fairness_max_dev", row.report.fairness_max_dev);
    rec.metric(row.tag + "_fairness_gini", row.report.fairness_gini);
    rec.param(row.tag + "_converged", row.report.converged);
  }
  for (const RegionStats& r : internet.report.regions) {
    rec.metric("region_" + r.name + "_stale_rate", r.stale_rate);
    rec.metric("region_" + r.name + "_fairness", r.fairness);
  }
  return {std::move(check)};
}
