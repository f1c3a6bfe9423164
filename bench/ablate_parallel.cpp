// Ablation A12 — sharded conservative-PDES execution: wall-clock speedup
// vs. shard count, with the determinism witness that makes the speedup
// admissible.
//
// The whole value of the sharded core is that it changes NOTHING but the
// wall clock: every shard count must produce the bit-identical ScaleSim
// report (tests/parallel_sim_test.cpp pins this across seeds and configs;
// this bench re-proves it on the exact rows it times, then reports the
// speedup). Sweeps shards {1,2,4,8} on a 1k-node flat mesh, {1,4} on the
// 1k-node geo internet profile, and {1,4} on the 5000-node acceptance
// scenario. The >= 1.5x speedup check applies when the host actually has
// >= 4 hardware threads — on smaller runners the speedup is reported as a
// metric but not gated (a 1-core container cannot speed anything up).
//
//   ./build/bench/forksim_bench ablate_parallel [--reduced]
//
// --reduced runs a 128-node slice at shards {1,2} (the sanitizer/TSan CI
// slice) and skips the bench record.
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "experiment.hpp"
#include "sim/scalesim.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

struct Row {
  std::string tag;       // config_kN
  std::string config;    // config family for the identity groups
  ScaleParams params;
  ScaleReport report;
  double wall = 0.0;
};

ScaleParams flat_params(std::size_t nodes, std::uint64_t seed) {
  ScaleParams p = bench::flat_scale(nodes, seed);
  p.topology.degree = 16;
  return p;
}

Row make_row(const std::string& config, ScaleParams params,
             std::size_t shards) {
  Row row;
  row.config = config;
  row.tag = config + "_k" + std::to_string(shards);
  row.params = std::move(params);
  row.params.num_shards = shards;
  return row;
}

}  // namespace

bench::Report bench::ablate_parallel(std::uint64_t seed, bool reduced,
                                     obs::BenchRecord& rec) {
  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::vector<Row> rows;
  if (reduced) {
    ScaleParams small = flat_params(128, seed);
    small.duration = 900.0;
    rows.push_back(make_row("u16_128", small, 1));
    rows.push_back(make_row("u16_128", small, 2));
  } else {
    const ScaleParams flat1k = flat_params(1000, seed);
    for (const std::size_t k : {1u, 2u, 4u, 8u})
      rows.push_back(make_row("u16_1000", flat1k, k));

    ScaleParams geo1k = flat_params(1000, seed);
    geo1k.geo = p2p::GeoParams::internet();
    geo1k.geo.enabled = true;
    geo1k.geo.seed = seed;
    rows.push_back(make_row("geo_1000", geo1k, 1));
    rows.push_back(make_row("geo_1000", geo1k, 4));

    ScaleParams flat5k = flat_params(5000, seed);
    rows.push_back(make_row("u16_5000", flat5k, 1));
    rows.push_back(make_row("u16_5000", flat5k, 4));
  }

  std::cout << "== Ablation A12: sharded PDES — speedup vs shards ==\n"
            << (reduced ? "(reduced sanitizer slice)\n" : "")
            << rows.size() << " rows, " << hw_threads
            << " hardware threads\n\n";

  for (Row& row : rows) {
    obs::WallTimer t;
    ScaleSim sim(row.params);
    row.report = sim.run();
    row.wall = t.seconds();
    std::cout << "  " << row.tag << ": " << row.report.events << " events, "
              << row.report.epochs << " epochs, "
              << row.report.cross_shard_messages << " cross-shard msgs  ("
              << fmt(row.wall, 2) << " s wall)\n";
  }

  // wall table + per-config speedup vs the k=1 reference
  auto reference_wall = [&rows](const std::string& config) {
    for (const Row& row : rows)
      if (row.config == config && row.params.num_shards == 1) return row.wall;
    return 0.0;
  };
  Table table({"row", "shards", "events", "epochs", "x-shard msgs",
               "wall s", "speedup"});
  for (const Row& row : rows) {
    const double ref = reference_wall(row.config);
    const double speedup = row.wall > 0.0 ? ref / row.wall : 0.0;
    table.add_row({row.tag, std::to_string(row.params.num_shards),
                   std::to_string(row.report.events),
                   std::to_string(row.report.epochs),
                   std::to_string(row.report.cross_shard_messages),
                   fmt(row.wall, 2), fmt(speedup, 2)});
  }
  std::cout << "\n";
  table.print(std::cout);

  analysis::PaperCheck check("A12 — sharded PDES determinism + speedup");

  // the determinism witness: within every config family, every shard
  // count's full fingerprint must equal the k=1 reference's
  bool identical = true;
  std::string divergent;
  for (const Row& row : rows) {
    for (const Row& ref : rows) {
      if (ref.config != row.config || ref.params.num_shards != 1) continue;
      if (row.report.fingerprint != ref.report.fingerprint ||
          row.report.deliveries != ref.report.deliveries ||
          row.report.prop_p90 != ref.report.prop_p90) {
        identical = false;
        divergent += row.tag + " ";
      }
    }
  }
  check.expect("every shard count reproduces the k=1 fingerprint bit for "
               "bit (counters and percentiles included)",
               identical,
               identical ? std::to_string(rows.size()) + " rows identical"
                         : "diverged: " + divergent);

  // a fresh engine on the last multi-shard row re-runs bit-identically
  const Row& witness = rows.back();
  const ScaleReport rerun = ScaleSim(witness.params).run();
  check.expect("same seed, fresh sharded engine: bit-identical fingerprint",
               rerun.fingerprint == witness.report.fingerprint,
               witness.tag + " re-run matches");

  bool sharded_shape = true;
  for (const Row& row : rows)
    if (row.params.num_shards > 1)
      sharded_shape = sharded_shape && row.report.epochs > 0 &&
                      row.report.cross_shard_messages > 0 &&
                      row.report.lookahead > 0.0;
  check.expect("multi-shard rows actually ran epochs and exchanged "
               "cross-shard mail", sharded_shape, "all k > 1 rows");

  if (!reduced) {
    // the acceptance criterion: >= 1.5x at 4 shards on the 5k-node run —
    // gated on the host actually having the cores to show it
    const double wall_5k_4 = rows.back().wall;  // u16_5000_k4
    const double speedup =
        wall_5k_4 > 0.0 ? reference_wall("u16_5000") / wall_5k_4 : 0.0;
    if (hw_threads >= 4) {
      check.expect("5000-node run speeds up >= 1.5x at 4 shards",
                   speedup >= 1.5, fmt(speedup, 2) + "x on " +
                       std::to_string(hw_threads) + " threads");
    } else {
      std::cout << "\n(skipping the >= 1.5x speedup check: only "
                << hw_threads << " hardware thread(s); measured "
                << fmt(speedup, 2) << "x)\n";
    }
  }

  rec.param("rows", static_cast<std::uint64_t>(rows.size()));
  rec.param("hw_threads", static_cast<std::uint64_t>(hw_threads));
  rec.param("fingerprint_u16_1000", rows[0].report.fingerprint.hex());
  for (const Row& row : rows) {
    rec.metric(row.tag + "_wall_s", row.wall);
    rec.metric(row.tag + "_events", row.report.events);
    rec.metric(row.tag + "_epochs", row.report.epochs);
    rec.metric(row.tag + "_cross_shard_msgs",
               row.report.cross_shard_messages);
    rec.param(row.tag + "_fingerprint", row.report.fingerprint.hex());
  }
  return {std::move(check)};
}
