// forksim_bench — the paper-figure reproductions and the ablations.
//
//   forksim_bench                                   # list the experiments
//   forksim_bench <name>... [--reduced] [--csv DIR]
//
// Each named experiment runs at its committed seed, prints its PAPER-CHECK
// and writes BENCH_<record>.json to $FORKSIM_BENCH_DIR (or the working
// directory). --reduced runs the sanitizer slices and writes no record;
// --csv DIR writes each figure's series to DIR/<figN>.csv. Exit status: 0
// iff every check passed and every file was written; 2 for a bad command
// line.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiment.hpp"

using namespace forksim;
using namespace forksim::bench;

namespace {

struct Experiment {
  std::string_view name;
  std::string_view record;  // BENCH_<record>.json
  std::uint64_t seed;
  bool has_reduced;
  Run* run;
};

// The committed seeds are the ones every checked-in record and every
// PAPER-CHECK threshold was measured at. 20160720 is the fork date; 1920
// nods to ETC's fork block, which stayed at 1920000.
constexpr Experiment kExperiments[] = {
    {"fig1_short_term", "fig1_short_term", 20160720, false, fig1_short_term},
    {"fig2_long_term", "fig2_long_term", 20160720, false, fig2_long_term},
    {"fig3_efficiency", "fig3_efficiency", 3, false, fig3_efficiency},
    {"fig4_replay", "fig4_replay", 4, false, fig4_replay},
    {"fig5_pools", "fig5_pools", 5, false, fig5_pools},
    {"ablate_difficulty", "ablate_difficulty", 99, false, ablate_difficulty},
    {"ablate_replay", "ablate_replay", 7, false, ablate_replay},
    {"ablate_gossip", "ablate_gossip", 42, false, ablate_gossip},
    {"ablate_pools", "ablate_pools", 4242, false, ablate_pools},
    {"ablate_partition", "ablate_partition", 7, false, ablate_partition},
    {"ablate_faults", "ablate_faults", 7, false, ablate_faults},
    {"ablate_adversary", "ablate_adversary", 7, false, ablate_adversary},
    {"ablate_recovery", "ablate_recovery", 8, false, ablate_recovery},
    {"ablate_matrix", "matrix", 9, true, ablate_matrix},
    {"ablate_topology", "ablate_topology", 1916, true, ablate_topology},
    {"ablate_geo", "ablate_geo", 1920, false, ablate_geo},
    {"ablate_parallel", "ablate_parallel", 1916, true, ablate_parallel},
    {"ablate_clients", "ablate_clients", 15, true, ablate_clients},
    {"ablate_eclipse", "ablate_eclipse", 1014, true, ablate_eclipse},
};

int usage_error(const std::string& message) {
  std::cerr << "forksim_bench: " << message
            << "\nusage: forksim_bench [<name>... [--reduced] [--csv DIR]]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    for (const Experiment& e : kExperiments) std::cout << e.name << "\n";
    return 0;
  }
  std::vector<const Experiment*> chosen;
  bool reduced = false;
  std::optional<std::string> csv_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Experiment* e =
        std::ranges::find(kExperiments, arg, &Experiment::name);
    if (e != std::end(kExperiments)) {
      chosen.push_back(e);
    } else if (arg == "--reduced") {
      reduced = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_dir = argv[++i];
    } else {
      return usage_error(arg == "--csv" ? "--csv needs a directory"
                                        : "unknown experiment or option '" +
                                              std::string(arg) + "'");
    }
  }
  if (chosen.empty()) return usage_error("no experiment named");
  for (const Experiment* e : chosen)
    if (reduced && !e->has_reduced)
      return usage_error("--reduced: '" + std::string(e->name) +
                         "' has no reduced slice");

  int status = 0;
  for (const Experiment* e : chosen) {
    obs::BenchRecord rec{std::string(e->record)};
    rec.param("seed", e->seed);
    const obs::WallTimer timer;
    const Report out = e->run(e->seed, reduced, rec);
    const double wall = timer.seconds();
    bool ok = out.check.all_passed();
    if (out.table) {
      out.table->print(std::cout);
      if (csv_dir)  // fig1_short_term -> DIR/fig1.csv
        ok &= analysis::write_csv(
            *csv_dir, std::string(e->name.substr(0, e->name.find('_'))),
            *out.table);
    }
    out.check.print(std::cout);
    if (!reduced) ok &= analysis::write_bench_record(rec, out.check, wall);
    if (!ok) status = 1;
  }
  return status;
}
