// Deterministic telemetry registry: named counters, gauges, and
// fixed-bucket histograms, snapshotted into a canonical form with a keccak
// fingerprint so two same-seed simulation runs can be compared bit for bit.
//
// Design rules:
//  * Everything is keyed on names in ordered maps — iteration order (and
//    therefore snapshots, JSON, and fingerprints) never depends on pointer
//    values or hashing.
//  * Each event is counted once. A module counts into its own plain
//    `std::uint64_t` fields, and attaching telemetry binds those fields to
//    metric names (Registry::bind); the registry reads them at snapshot
//    time, so there is no second copy to keep in step. A bound name may be
//    gated: it appears only once its gate field is nonzero, which keeps
//    the metric set of a run without adversaries, eclipses or restarts
//    unchanged.
//  * Metrics with no plain twin — per-result arrays, gauges, histograms —
//    are held as raw `Counter*` / `Gauge*` / `Histogram*` handles that are
//    null until a registry is attached; the inc()/set()/observe() helpers
//    below make the unattached path one predictable branch.
//  * No instrumentation ever consumes an Rng draw, so attaching telemetry
//    cannot perturb a seeded run.
//  * Histograms have fixed bucket upper bounds plus an implicit overflow
//    bucket, merge by bucket-wise addition, and expose *exact* quantile
//    semantics: quantile_bounds(p) returns an interval guaranteed to
//    contain the true (linear-interpolated) percentile of the observed
//    samples, pinned against support/stats::percentile by the tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/bytes.hpp"

namespace forksim::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  /// Absolute overwrite — used by collectors that mirror externally-held
  /// counts (e.g. the trie's process-wide counters) into a registry.
  void set(std::uint64_t v) noexcept { value_ = v; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending; samples land in the first
  /// bucket whose upper bound is >= x, or the implicit overflow bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

  /// Bucket-wise addition. Returns false (and leaves *this untouched) when
  /// the bucket layouts differ.
  bool merge(const Histogram& other);

  /// merge() from a histogram's disassembled pieces (snapshot data).
  bool merge_parts(const std::vector<std::uint64_t>& counts,
                   std::uint64_t count, double sum, double min, double max);

  /// An interval guaranteed to contain the exact linear-interpolated
  /// percentile (p in [0,100]) of every observed sample: the true value
  /// lies in [lower, upper] always. Tightened with the tracked min/max.
  struct QuantileBounds {
    double lower = 0.0;
    double upper = 0.0;
  };
  QuantileBounds quantile_bounds(double p) const;

  /// Point estimate: midpoint of quantile_bounds(p).
  double quantile(double p) const;

  /// `count` bounds: first, first*factor, first*factor^2, ...
  static std::vector<double> exponential_bounds(double first, double factor,
                                                std::size_t count);
  /// `count` bounds: first, first+width, first+2*width, ...
  static std::vector<double> linear_bounds(double first, double width,
                                           std::size_t count);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Canonical, order-stable copy of a registry's state. The fingerprint
/// hashes every name and the exact bit patterns of every value, so it is
/// equal across two runs iff the runs produced identical telemetry.
struct Snapshot {
  struct HistogramData {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramData> histograms;

  Hash256 fingerprint() const;
  std::string to_json() const;

  /// Value of a named counter in the snapshot (0 if absent).
  std::uint64_t counter_value(const std::string& name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;  // handles point into the maps
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. References stay valid for the registry's lifetime
  /// (node-based maps), which is what makes raw-pointer handles safe.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// Find-or-create; an existing histogram keeps its original bounds.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Report the count in `field`, owned by the caller, under counter
  /// `name`. The registry keeps only the address and reads the field live
  /// at every snapshot() and counter_value(), so `field` must outlive the
  /// registry's last read. Several fields may share one name; the name's
  /// value is its stored Counter plus every field bound to it. With a
  /// `gate`, the binding alone does not make the name appear: it shows
  /// once some binding's gate is nonzero (pass `&field` to register a
  /// counter lazily, on its first event).
  void bind(const std::string& name, const std::uint64_t& field,
            const std::uint64_t* gate = nullptr) {
    bound_[name].push_back({&field, gate});
  }

  /// 0 / 0.0 / nullptr when the metric was never created.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Collectors run at snapshot time to mirror externally-held counts into
  /// the registry (e.g. trie::counters(), per-opcode EVM tallies).
  void add_collector(std::function<void(Registry&)> fn) {
    collectors_.push_back(std::move(fn));
  }

  /// Sum counters / add gauges / bucket-wise-merge histograms from
  /// `other`'s snapshot into this registry (metric names are created as
  /// needed; histograms with mismatched bounds are skipped).
  void merge(const Snapshot& other);

  /// Runs collectors, then captures everything in name order.
  Snapshot snapshot();
  Hash256 fingerprint() { return snapshot().fingerprint(); }

  std::size_t metric_count() const {
    return read_counters().size() + gauges_.size() + histograms_.size();
  }

 private:
  struct Binding {
    const std::uint64_t* field;
    const std::uint64_t* gate;  // null: always shown
  };
  /// Every counter name present right now with its live value.
  std::map<std::string, std::uint64_t> read_counters() const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, std::vector<Binding>> bound_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<std::function<void(Registry&)>> collectors_;
};

// Unattached-safe helpers: instrumented hot paths call these with possibly
// null handles; the cost without a registry is one predictable branch.
inline void inc(Counter* c, std::uint64_t n = 1) noexcept {
  if (c != nullptr) c->inc(n);
}
inline void observe(Histogram* h, double x) noexcept {
  if (h != nullptr) h->observe(x);
}
inline void set(Gauge* g, double v) noexcept {
  if (g != nullptr) g->set(v);
}

}  // namespace forksim::obs
