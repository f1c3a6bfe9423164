#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>

#include "crypto/keccak.hpp"
#include "obs/json.hpp"

namespace forksim::obs {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
}

bool Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  return merge_parts(other.counts_, other.count_, other.sum_, other.min_,
                     other.max_);
}

bool Histogram::merge_parts(const std::vector<std::uint64_t>& counts,
                            std::uint64_t count, double sum, double min,
                            double max) {
  if (counts.size() != counts_.size()) return false;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += counts[i];
  if (count > 0) {
    min_ = count_ ? std::min(min_, min) : min;
    max_ = count_ ? std::max(max_, max) : max;
  }
  count_ += count;
  sum_ += sum;
  return true;
}

Histogram::QuantileBounds Histogram::quantile_bounds(double p) const {
  if (count_ == 0) return {};
  if (std::isnan(p)) p = 50.0;
  p = std::clamp(p, 0.0, 100.0);

  // The linear-interpolated percentile lies between the order statistics
  // at rank floor(r) and ceil(r), r = p/100 * (n-1). Cover both ranks'
  // buckets, then tighten with the exactly-tracked min/max.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  const auto k_lo = static_cast<std::uint64_t>(rank);
  const std::uint64_t k_hi =
      std::min<std::uint64_t>(k_lo + 1, count_ - 1);

  // bucket index holding the k-th (0-based) order statistic
  auto bucket_of = [&](std::uint64_t k) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      cumulative += counts_[b];
      if (cumulative > k) return b;
    }
    return counts_.size() - 1;  // unreachable when k < count_
  };

  const std::size_t b_lo = bucket_of(k_lo);
  const std::size_t b_hi = bucket_of(k_hi);
  // bucket b spans (bounds_[b-1], bounds_[b]]; the overflow bucket spans
  // (bounds_.back(), +inf) — min_/max_ close both open ends exactly
  const double lower = b_lo == 0 ? min_ : std::max(bounds_[b_lo - 1], min_);
  const double upper =
      b_hi == bounds_.size() ? max_ : std::min(bounds_[b_hi], max_);
  return {std::min(lower, upper), std::max(lower, upper)};
}

double Histogram::quantile(double p) const {
  const QuantileBounds qb = quantile_bounds(p);
  return (qb.lower + qb.upper) / 2.0;
}

std::vector<double> Histogram::exponential_bounds(double first, double factor,
                                                  std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  double b = first;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

std::vector<double> Histogram::linear_bounds(double first, double width,
                                             std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(first + width * static_cast<double>(i));
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot

namespace {

void hash_u64(Keccak256& h, std::uint64_t v) {
  const auto be = be_fixed64(v);
  h.update(BytesView(be.data(), be.size()));
}

/// Doubles are hashed by bit pattern: no formatting, no rounding — a
/// fingerprint differs iff some value differs in even the last ulp.
void hash_double(Keccak256& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  hash_u64(h, bits);
}

void hash_str(Keccak256& h, const std::string& s) {
  hash_u64(h, s.size());
  h.update(std::string_view(s));
}

}  // namespace

Hash256 Snapshot::fingerprint() const {
  Keccak256 h;
  h.update(std::string_view("forksim/obs-snapshot/v1"));
  hash_u64(h, counters.size());
  for (const auto& [name, value] : counters) {
    hash_str(h, name);
    hash_u64(h, value);
  }
  hash_u64(h, gauges.size());
  for (const auto& [name, value] : gauges) {
    hash_str(h, name);
    hash_double(h, value);
  }
  hash_u64(h, histograms.size());
  for (const HistogramData& hd : histograms) {
    hash_str(h, hd.name);
    hash_u64(h, hd.count);
    hash_double(h, hd.sum);
    hash_double(h, hd.min);
    hash_double(h, hd.max);
    hash_u64(h, hd.bounds.size());
    for (const double b : hd.bounds) hash_double(h, b);
    for (const std::uint64_t c : hd.counts) hash_u64(h, c);
  }
  return h.digest();
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ',';
    json_string(os, counters[i].first);
    os << ':' << counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ',';
    json_string(os, gauges[i].first);
    os << ':';
    json_number(os, gauges[i].second);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramData& hd = histograms[i];
    if (i > 0) os << ',';
    json_string(os, hd.name);
    os << ":{\"count\":" << hd.count << ",\"sum\":";
    json_number(os, hd.sum);
    os << ",\"min\":";
    json_number(os, hd.min);
    os << ",\"max\":";
    json_number(os, hd.max);
    os << ",\"bounds\":[";
    for (std::size_t b = 0; b < hd.bounds.size(); ++b) {
      if (b > 0) os << ',';
      json_number(os, hd.bounds[b]);
    }
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < hd.counts.size(); ++b) {
      if (b > 0) os << ',';
      os << hd.counts[b];
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

// ---------------------------------------------------------------------------
// Registry

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds)))
      .first->second;
}

namespace {

/// Sum of the bound fields, and whether any binding shows the name.
template <typename Bindings>
std::pair<bool, std::uint64_t> read_bound(const Bindings& bindings) {
  bool shown = false;
  std::uint64_t sum = 0;
  for (const auto& b : bindings) {
    sum += *b.field;
    shown = shown || b.gate == nullptr || *b.gate != 0;
  }
  return {shown, sum};
}

}  // namespace

std::uint64_t Registry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  const bool stored = it != counters_.end();
  std::uint64_t value = stored ? it->second.value() : 0;
  auto b = bound_.find(name);
  if (b != bound_.end()) {
    const auto [shown, sum] = read_bound(b->second);
    if (stored || shown) value += sum;
  }
  return value;
}

std::map<std::string, std::uint64_t> Registry::read_counters() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  for (const auto& [name, bindings] : bound_) {
    const auto [shown, sum] = read_bound(bindings);
    auto it = out.find(name);
    if (it != out.end())
      it->second += sum;
    else if (shown)
      out.emplace(name, sum);
  }
  return out;
}

double Registry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counter(name).inc(value);
  for (const auto& [name, value] : other.gauges) gauge(name).add(value);
  for (const Snapshot::HistogramData& hd : other.histograms) {
    Histogram& mine = histogram(hd.name, hd.bounds);
    if (mine.bounds() != hd.bounds) continue;  // pre-existing, incompatible
    mine.merge_parts(hd.counts, hd.count, hd.sum, hd.min, hd.max);
  }
}

Snapshot Registry::snapshot() {
  for (const auto& fn : collectors_) fn(*this);
  Snapshot snap;
  const std::map<std::string, std::uint64_t> counters = read_counters();
  snap.counters.assign(counters.begin(), counters.end());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g.value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramData hd;
    hd.name = name;
    hd.bounds = h.bounds();
    hd.counts = h.bucket_counts();
    hd.count = h.count();
    hd.sum = h.sum();
    hd.min = h.min();
    hd.max = h.max();
    snap.histograms.push_back(std::move(hd));
  }
  return snap;
}

}  // namespace forksim::obs
