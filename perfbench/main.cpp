// forksim_perfbench: run one benchmark workload for a fixed time and print
// its metrics as one JSON line (the last line of standard output).
//
//   forksim_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--out-dir <dir>]
//
// --trace 0 repeats the workload untraced until --seconds have passed and
// prints the end-to-end metrics: setup time as the median repetition, wall
// time and rates from the fastest repetition of each simulation. --trace 1
// runs it once untraced, then traced (spans, telemetry registry, timing
// executor, import replay) until --seconds have passed, and prints the
// per-layer metrics. Every repetition checks the workload's invariants and
// must reproduce the first one's fingerprint and exact work counts. With
// --out-dir, the spans and a full result record are written there.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "build_info.hpp"
#include "metrics.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// At least two repetitions, so exact work counts are always compared.
constexpr std::size_t kMinReps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return is_workload(args.workload) && have_seed && args.seconds > 0.0 &&
         args.seconds <= 600.0 && args.trace >= 0;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename F>
double median_of(const std::vector<RunResult>& reps, F f) {
  std::vector<double> xs;
  for (const RunResult& r : reps) xs.push_back(f(r));
  return forksim::median(xs);
}

struct Tally {
  std::vector<Check> checks;

  void add(const std::string& name, bool passed) {
    checks.push_back({name, passed});
  }
  void absorb(const RunResult& r) {
    checks.insert(checks.end(), r.checks.begin(), r.checks.end());
  }
  std::uint64_t failed() const {
    return static_cast<std::uint64_t>(std::count_if(
        checks.begin(), checks.end(), [](const Check& c) { return !c.passed; }));
  }
};

/// Repetition `r` must match the reference run exactly: same fingerprint,
/// same exact work counts (keys present in both).
void compare_runs(Tally& tally, const std::string& what, const RunResult& ref,
                  const RunResult& r) {
  tally.add(what + ".fingerprint", r.fingerprint == ref.fingerprint);
  bool same = true;
  for (const auto& [name, value] : ref.counts) {
    const auto it = r.counts.find(name);
    if (it != r.counts.end() && it->second != value) {
      std::cerr << "perfbench: " << what << ": count " << name << " = "
                << it->second << ", reference " << value << "\n";
      same = false;
    }
  }
  tally.add(what + ".counts", same);
}

std::string host_record(const Args& args, unsigned hw_threads) {
  return std::string("{\"hw_threads\": ") +
         std::to_string(hw_threads) +
         ", \"build_type\": " + json_string(kBuildType) +
         ", \"cxx_flags\": " + json_string(kCxxFlags) +
         ", \"compiler\": " + json_string(kCompiler) +
         ", \"workload\": " + json_string(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + std::to_string(args.trace) + "}";
}

/// Pins the calling thread to each CPU it may use, in turn. On a shared
/// host a single-threaded run stays on whichever CPU the scheduler picked,
/// and CPUs differed in speed by up to 1.7x for tens of seconds at a time
/// (their sibling hardware threads run other tenants' work); moving every
/// repetition to the next CPU lets the fastest repetition sample them all.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort: unpinned is fine
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << text;
}

int run(const Args& args) {
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const std::size_t shards = args.workload.starts_with("scale_")
                                 ? scale_params(args.workload, args.seed).num_shards
                                 : 1;
  if (shards > 1 && hw_threads < shards) {
    std::cerr << "perfbench: " << args.workload << " is unresolved on this "
              << "host: " << hw_threads << " hardware thread(s) < " << shards
              << " shards, so its speedup would measure nothing\n";
    return 3;
  }
  const std::string host = host_record(args, hw_threads);
  std::cout << "{\"host\": " << host << "}\n";

  Tally tally;
  std::map<std::string, double> values;
  CpuRotation rotation;
  const auto next_cpu = [&rotation, shards] {
    if (shards == 1) rotation.next();
  };
  const auto start = Clock::now();
  next_cpu();
  const RunResult first = run_workload(args.workload, args.seed, {});
  tally.absorb(first);

  SpanRecorder spans;
  std::vector<RunResult> reps;  // the measured repetitions
  if (args.trace == 0) reps.push_back(first);
  double last_rep_s = since(start);
  while (reps.size() < kMinReps || since(start) + last_rep_s <= args.seconds) {
    next_cpu();
    const auto rep_start = Clock::now();
    RunOptions options;
    if (args.trace == 1) {
      options.traced = true;
      options.spans = &spans;
      spans.set_trace_id(reps.size());
    }
    reps.push_back(run_workload(args.workload, args.seed, options));
    last_rep_s = since(rep_start);
    tally.absorb(reps.back());
    if (args.trace == 1) {
      compare_runs(tally, "trace.matches_untraced", first, reps.back());
      if (reps.size() > 1)
        compare_runs(tally, "trace.repeat", reps.front(), reps.back());
    } else {
      compare_runs(tally, "repeat", first, reps.back());
    }
  }

  if (const auto reference = single_shard_fingerprint(args.workload, args.seed))
    tally.add("pdes.matches_single_shard", *reference == first.fingerprint);
  if (const auto pinned = pinned_fingerprint(args.workload, args.seed))
    tally.add("pinned_fingerprint", first.fingerprint.hex() == *pinned);

  const double wall = median_of(reps, [](const RunResult& r) { return r.wall_s; });
  const std::vector<MetricSpec>* specs = nullptr;
  if (args.trace == 0) {
    specs = &end_to_end_metrics();
    values["setup_s"] = median_of(reps, [](const RunResult& r) { return r.setup_s; });
    // Every repetition does identical, CPU-bound work, and a shared host
    // only ever slows a simulation down (by up to 1.8x, for seconds at a
    // time), so each simulation's fastest repetition is the steadiest
    // estimate of the engines' own time; wall_s sums them.
    double fastest = 0.0;
    for (std::size_t cell = 0; cell < first.cell_wall_s.size(); ++cell)
      fastest += std::min_element(reps.begin(), reps.end(),
                                  [cell](const RunResult& a, const RunResult& b) {
                                    return a.cell_wall_s[cell] <
                                           b.cell_wall_s[cell];
                                  })->cell_wall_s[cell];
    values["wall_s"] = fastest;
    values["events_per_s"] = static_cast<double>(first.events) / fastest;
    values["imports_per_s"] = static_cast<double>(first.imports) / fastest;
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    specs = &per_layer_metrics();
    for (const MetricSpec& spec : *specs) values[std::string(spec.name)] = 0.0;
    for (const auto& [name, value] : reps.front().counts) values[name] = value;
    for (const auto& [name, value] : reps.front().timings)
      values[name] = median_of(reps, [&name](const RunResult& r) {
        return r.timings.at(name);
      });
    const auto span_seconds = [&spans, &reps](const std::string& name) {
      std::vector<double> per_rep(reps.size(), 0.0);
      for (const Span& s : spans.spans())
        if (s.name == name) per_rep[s.trace_id] += s.duration_s();
      return forksim::median(per_rep);
    };
    values["setup.engine_s"] = span_seconds("setup.engine");
    values["p2p.topology.generate_s"] = span_seconds("p2p.topology.generate");
    values["sim.scalesim.run_s"] = span_seconds("sim.scalesim.run");
    values["proc.cpu_s"] = median_of(reps, [](const RunResult& r) { return r.cpu_s; });
    values["proc.parallel_efficiency"] = median_of(reps, [](const RunResult& r) {
      return r.cpu_s / (r.wall_s * static_cast<double>(r.shards));
    });
    values["trace.overhead_s"] = wall - first.wall_s;
  }
  const std::uint64_t checks = tally.checks.size();
  const std::uint64_t failed = tally.failed();
  if (args.trace == 0)
    values["checks_passed_frac"] =
        static_cast<double>(checks - failed) / static_cast<double>(checks);
  for (const Check& c : tally.checks)
    if (!c.passed) std::cerr << "perfbench: check failed: " << c.name << "\n";

  const std::string result =
      result_json(failed == 0, checks, failed, *specs, values);
  if (!args.out_dir.empty()) {
    const std::filesystem::path dir(args.out_dir);
    const std::string stem = args.workload + "-seed" + std::to_string(args.seed) +
                             "-trace" + std::to_string(args.trace);
    std::string per_rep;
    for (const RunResult& r : reps)
      per_rep += std::string(per_rep.empty() ? "" : ", ") + "[" +
                 std::to_string(r.setup_s) + ", " + std::to_string(r.wall_s) +
                 ", " + std::to_string(r.cpu_s) + "]";
    std::string record = "{\"host\": " + host +
                         ", \"fingerprint\": \"" + first.fingerprint.hex() +
                         "\", \"repetitions_setup_wall_cpu_s\": [" + per_rep +
                         "], \"result\": " + result + "}\n";
    write_file(dir / "results" / (stem + ".json"), record);
    if (args.trace == 1)
      write_file(dir / "traces" / (stem + ".json"), spans.to_chrome_json());
  }
  std::cout << result << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: forksim_perfbench --workload <";
    for (std::size_t i = 0; i < kWorkloads.size(); ++i)
      std::cerr << (i ? "|" : "") << kWorkloads[i];
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
