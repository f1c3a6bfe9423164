// BENCH_<name>.json emission: every bench binary builds one BenchRecord,
// fills in throughput numbers and a telemetry snapshot, and writes it to
// $FORKSIM_BENCH_DIR (or the working directory). The format is flat on
// purpose — {"name":..., "build_type":..., "metrics":{...}, "params":{...},
// "telemetry":{...}} — so CI can diff runs with nothing fancier than jq.
// "build_type" is the CMake build type the binary was compiled under, so
// timings from differently optimized builds are never compared.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace forksim::obs {

/// Wall-clock stopwatch for bench throughput numbers (sim results stay
/// deterministic; only the reported *rates* depend on the host).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class BenchRecord {
 public:
  explicit BenchRecord(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Measured results (throughput, wall seconds, sim-blocks/sec, ...).
  void metric(std::string_view key, double value);
  void metric(std::string_view key, std::uint64_t value);
  /// Run configuration (seeds, node counts, durations, pass/fail flags).
  void param(std::string_view key, double value);
  void param(std::string_view key, std::uint64_t value);
  void param(std::string_view key, std::string_view value);
  void param(std::string_view key, bool value);

  /// Attach the run's telemetry snapshot (emitted under "telemetry").
  void telemetry(Snapshot snap) { telemetry_ = std::move(snap); }

  std::string to_json() const;

  /// Writes BENCH_<name>.json into $FORKSIM_BENCH_DIR if set, else the
  /// current directory. Returns the path written, or "" on failure.
  std::string write() const;

 private:
  struct Field {
    std::string key;
    std::string json;  // pre-rendered value
  };

  std::string name_;
  std::vector<Field> metrics_;
  std::vector<Field> params_;
  Snapshot telemetry_;
};

}  // namespace forksim::obs
