#include "obs/bench_record.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace forksim::obs {

namespace {

std::string render_number(double v) {
  std::ostringstream os;
  json_number(os, v);
  return os.str();
}

std::string render_string(std::string_view v) {
  std::ostringstream os;
  json_string(os, v);
  return os.str();
}

}  // namespace

void BenchRecord::metric(std::string_view key, double value) {
  metrics_.push_back({std::string(key), render_number(value)});
}

void BenchRecord::metric(std::string_view key, std::uint64_t value) {
  metrics_.push_back({std::string(key), std::to_string(value)});
}

void BenchRecord::param(std::string_view key, double value) {
  params_.push_back({std::string(key), render_number(value)});
}

void BenchRecord::param(std::string_view key, std::uint64_t value) {
  params_.push_back({std::string(key), std::to_string(value)});
}

void BenchRecord::param(std::string_view key, std::string_view value) {
  params_.push_back({std::string(key), render_string(value)});
}

void BenchRecord::param(std::string_view key, bool value) {
  params_.push_back({std::string(key), value ? "true" : "false"});
}

std::string BenchRecord::to_json() const {
  std::ostringstream os;
  os << "{\"name\":";
  json_string(os, name_);
  os << ",\"schema\":\"forksim/bench/v1\",\"build_type\":";
  json_string(os, FORKSIM_BUILD_TYPE);
  os << ',';
  auto emit = [&](const char* section, const std::vector<Field>& fields) {
    os << '"' << section << "\":{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) os << ',';
      json_string(os, fields[i].key);
      os << ':' << fields[i].json;
    }
    os << '}';
  };
  emit("params", params_);
  os << ',';
  emit("metrics", metrics_);
  os << ",\"telemetry\":" << telemetry_.to_json();
  os << "}\n";
  return os.str();
}

std::string BenchRecord::write() const {
  std::string path;
  if (const char* dir = std::getenv("FORKSIM_BENCH_DIR");
      dir != nullptr && dir[0] != '\0') {
    path = dir;
    if (path.back() != '/') path += '/';
  }
  path += "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << to_json();
  return out ? path : "";
}

}  // namespace forksim::obs
