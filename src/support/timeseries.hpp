// Time-bucketed series used by the analysis pipeline: events are recorded at
// simulation timestamps (seconds) and aggregated into fixed-width buckets
// (hours or days) for the paper's per-hour / per-day plots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace forksim {

using SimTime = double;  // seconds since simulation start

constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;

/// A single aggregated bucket.
struct Bucket {
  std::int64_t index = 0;  // bucket number (may be negative for pre-fork data)
  std::uint64_t count = 0;
  double sum = 0.0;

  double avg() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Append-only series of (time, value) samples with bucketed aggregation.
class TimeSeries {
 public:
  explicit TimeSeries(double bucket_width_seconds)
      : width_(bucket_width_seconds) {}

  void record(SimTime t, double value = 1.0);

  /// Buckets in index order; empty buckets between the first and last
  /// recorded index are materialized with count 0 so plots have no gaps.
  std::vector<Bucket> buckets() const;

  /// Per-bucket counts over [first_index, last_index] (dense).
  std::vector<double> counts() const;

  /// Per-bucket averages (dense; 0 where no samples).
  std::vector<double> averages() const;

  /// Per-bucket sums (dense).
  std::vector<double> sums() const;

  std::uint64_t total_count() const noexcept { return total_count_; }
  double total_sum() const noexcept { return total_sum_; }
  bool empty() const noexcept { return cells_.empty(); }

  std::int64_t first_index() const;
  std::int64_t last_index() const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  double width_;
  std::map<std::int64_t, Cell> cells_;
  std::uint64_t total_count_ = 0;
  double total_sum_ = 0.0;
};

/// Element-wise ratio of two equal-width series' counts (0 where the
/// denominator is 0). Series are aligned on bucket index over the union of
/// their ranges.
std::vector<double> ratio_by_bucket(const TimeSeries& numerator,
                                    const TimeSeries& denominator);

}  // namespace forksim
