// The benchmark's metric catalogue and its one-line JSON result.
//
// BENCHMARK.json at the repository root lists the same names; the
// benchmark's tests hold the two in step.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  /// "lower" or "higher".
  std::string_view better;
};

/// What a user of the engines sees; printed by an untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer counts and traced timings; printed by a traced run.
const std::vector<MetricSpec>& per_layer_metrics();

inline constexpr std::size_t kMaxEndToEnd = 16;
inline constexpr std::size_t kMaxPerLayer = 128;
inline constexpr std::size_t kMaxNameLength = 64;

/// [A-Za-z0-9][A-Za-z0-9_.-]{0,63}
bool valid_metric_name(std::string_view name);

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}. Every spec must have a value in `values`; values
/// print with all 17 significant digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values);

/// JSON string literal with quotes and backslashes escaped.
std::string json_string(std::string_view s);

}  // namespace perfbench
