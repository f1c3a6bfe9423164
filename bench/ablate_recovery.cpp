// Ablation A8 — crash-safe persistence sweep for the chaos soak.
//
// The paper's partition played out on nodes that crash, lose power, and
// come back with whatever their disks kept. This bench reruns the DAO-fork
// scenario with churn enabled and sweeps the durability layer: warm
// restarts only (the historical baseline, no stores), cold restarts off a
// perfect disk, and cold restarts off disks that tear writes, truncate
// tails, and rot bits on every crash. It reports whether both fork sides
// still converge, how much log the recovery scans survived, how many
// records corruption destroyed, and what the replay cost in modeled
// downtime — while proving no corrupted record was ever accepted back
// into a chain.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "experiment.hpp"
#include "sim/chaos.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

db::StorageFaults faults(double rate) {
  db::StorageFaults f;
  f.torn_write_prob = rate;
  f.tail_truncate_prob = rate;
  f.bit_rot_prob = rate * 0.6;
  return f;
}

}  // namespace

bench::Report bench::ablate_recovery(std::uint64_t seed, bool,
                                     obs::BenchRecord& rec) {
  std::cout << "== Ablation A8: cold-restart recovery under storage faults ==\n";
  std::cout << "(15 full nodes through the fork, 40% churned; restart mode "
               "swept warm -> cold, disk fault rate 0 -> 90%)\n\n";

  struct Row {
    std::string name;
    ChaosReport report;
  };
  struct Config {
    std::string name;
    double cold_prob;
    double fault_rate;
  };
  const std::vector<Config> configs = {
      {"warm (no store)", 0.0, 0.0},
      {"cold, clean disk", 1.0, 0.0},
      {"cold, 50% faults", 1.0, 0.5},
      {"cold, 90% faults", 1.0, 0.9},
  };
  // network faults, partition cut, and adversaries off: this ablation
  // isolates the durability layer (A6 covers loss/cut, A7 covers hostile
  // peers; the chaos soak example combines all three)
  ChaosParams base = quiet_chaos(seed);
  // churn is the crash generator: without it nobody restarts at all
  base.churn_fraction = 0.4;
  base.churn_start = 120.0;
  base.churn_end = 900.0;
  base.mean_downtime = 90.0;
  base.restart_prob = 1.0;
  std::vector<Row> rows;
  for (const Config& c : configs) {
    ChaosParams cp = base;
    cp.cold_restart_prob = c.cold_prob;
    cp.storage_faults = faults(c.fault_rate);
    ChaosRunner runner(cp);
    rows.push_back({c.name, runner.run()});
  }

  Table table({"restart mode", "converged", "settle s", "restarts", "cold",
               "appends", "scanned", "corrupt", "replayed", "rejected",
               "recovery s", "torn", "truncated", "bits"});
  for (const Row& r : rows) {
    const ChaosReport& o = r.report;
    table.add_row({r.name, o.converged ? "yes" : "NO",
                   o.converged ? fmt(o.time_to_convergence, 0) : "-",
                   std::to_string(o.restarts), std::to_string(o.cold_restarts),
                   std::to_string(o.store_appends),
                   std::to_string(o.store_records_scanned),
                   std::to_string(o.store_corrupt_records),
                   std::to_string(o.store_blocks_replayed),
                   std::to_string(o.store_replay_rejected),
                   fmt(o.recovery_seconds, 1),
                   std::to_string(o.disk_torn_writes),
                   std::to_string(o.disk_tail_truncations),
                   std::to_string(o.disk_bits_flipped)});
  }
  table.print(std::cout);

  std::cout << "\nNote: \"scanned\" counts log records the recovery scan\n"
               "attempted, \"corrupt\" the ones checksums or decoding\n"
               "rejected (the log truncates at the first bad record), and\n"
               "\"replayed\" the verified blocks re-imported before the node\n"
               "rejoined. \"rejected\" is replayed blocks the chain refused —\n"
               "it must stay zero: a checksummed record either replays\n"
               "cleanly or is discarded by the scan, never half-trusted.\n";

  const ChaosReport& warm = rows[0].report;
  const ChaosReport& clean = rows[1].report;
  const ChaosReport& f50 = rows[2].report;
  const ChaosReport& f90 = rows[3].report;

  analysis::PaperCheck check("A8 — crash-safe persistence ablation");
  bool all_converge = true;
  std::uint64_t total_rejected = 0;
  for (const Row& r : rows) {
    all_converge = all_converge && r.report.converged;
    total_rejected += r.report.store_replay_rejected;
  }
  check.expect("every restart mode still converges", all_converge,
               "warm / clean / 50% / 90% all reach per-side head agreement");
  check.expect("no replayed block is ever rejected by the chain",
               total_rejected == 0,
               std::to_string(total_rejected) + " rejects across all rows");
  check.expect("warm baseline keeps the durability layer fully dormant",
               warm.cold_restarts == 0 && warm.store_appends == 0 &&
                   warm.store_records_scanned == 0 &&
                   warm.store_blocks_replayed == 0 &&
                   warm.recovery_seconds == 0.0,
               "no stores, no scans, no replay");
  check.expect("cold rows actually cold-restart and replay from the log",
               clean.cold_restarts > 0 && clean.store_blocks_replayed > 0 &&
                   f90.cold_restarts > 0 && f90.store_blocks_replayed > 0,
               std::to_string(clean.cold_restarts) + " cold restarts on the "
               "clean disk, " + std::to_string(f90.cold_restarts) + " at 90%");
  check.expect("a clean disk recovers every record it wrote",
               clean.store_corrupt_records == 0 &&
                   clean.disk_torn_writes == 0 &&
                   clean.disk_tail_truncations == 0 &&
                   clean.disk_bits_flipped == 0,
               std::to_string(clean.store_records_scanned) +
                   " records scanned, zero corrupt");
  check.expect("faulty disks corrupt records and the scan catches them",
               f50.store_corrupt_records > 0 && f90.store_corrupt_records > 0,
               std::to_string(f50.store_corrupt_records) + " at 50%, " +
                   std::to_string(f90.store_corrupt_records) + " at 90%");
  check.expect("replay charges nonzero modeled recovery time",
               clean.recovery_seconds > 0.0 && f90.recovery_seconds > 0.0,
               fmt(f90.recovery_seconds, 1) + " s at 90% faults");

  const std::vector<std::string> tags = {"warm", "clean", "f50", "f90"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ChaosReport& o = rows[i].report;
    const std::string& tag = tags[i];
    rec.metric(tag + "_settle_seconds", o.time_to_convergence);
    rec.metric(tag + "_cold_restarts",
               static_cast<std::uint64_t>(o.cold_restarts));
    rec.metric(tag + "_records_scanned", o.store_records_scanned);
    rec.metric(tag + "_corrupt_records", o.store_corrupt_records);
    rec.metric(tag + "_blocks_replayed", o.store_blocks_replayed);
    rec.metric(tag + "_recovery_seconds", o.recovery_seconds);
    rec.param(tag + "_converged", o.converged);
  }
  return {std::move(check)};
}
