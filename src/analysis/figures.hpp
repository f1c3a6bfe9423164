// Figure emission and qualitative paper checks.
//
// Each bench experiment prints (a) the series the corresponding paper figure
// plots, in table + CSV form, and (b) a PAPER-CHECK section asserting the
// *shape* claims the paper makes (who wins, by what factor, where the
// crossovers are). The checks encode DESIGN.md §6.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench_record.hpp"
#include "support/table.hpp"
#include "support/timeseries.hpp"

namespace forksim::analysis {

/// Collects named pass/fail assertions about a reproduced figure.
class PaperCheck {
 public:
  explicit PaperCheck(std::string figure) : figure_(std::move(figure)) {}

  void expect(const std::string& claim, bool pass, const std::string& detail);

  /// expect(), with "measured X vs required Y" detail formatting.
  void expect_ge(const std::string& claim, double measured, double bound);
  void expect_le(const std::string& claim, double measured, double bound);

  bool all_passed() const noexcept { return failures_ == 0; }
  std::size_t checks() const noexcept { return rows_.size(); }
  std::size_t failures() const noexcept { return failures_; }

  void print(std::ostream& os) const;

 private:
  struct Row {
    std::string claim;
    bool pass;
    std::string detail;
  };
  std::string figure_;
  std::vector<Row> rows_;
  std::size_t failures_ = 0;
};

/// Evenly sample `count` points from a dense series (index, value) for
/// printable output; returns all points if fewer than `count`.
std::vector<std::pair<std::size_t, double>> sample_series(
    const std::vector<double>& dense, std::size_t count);

/// Moving average with window `w` (centered, clipped at edges).
std::vector<double> smooth(const std::vector<double>& xs, std::size_t w);

/// Mean of xs[lo, hi), clipped to the series; 0 for an empty window.
double window_mean(const std::vector<double>& xs, std::size_t lo,
                   std::size_t hi);

/// First index where `xs` stays within +/- `tolerance` of `target` for at
/// least `run` consecutive samples; -1 if never.
std::ptrdiff_t first_stable_index(const std::vector<double>& xs,
                                  double target, double tolerance,
                                  std::size_t run);

/// Bench CSV emission: writes `table` to <dir>/<name>.csv so the printed
/// series are also available machine-readable. Returns false (after
/// saying so on stderr) if the file cannot be written.
bool write_csv(const std::string& dir, const std::string& name,
               const Table& table);

/// BENCH_<name>.json emission: folds the wall time and the paper-check
/// tally into `rec` (callers add bench-specific metrics/params first) and
/// writes it to $FORKSIM_BENCH_DIR or the working directory. Returns false
/// (after saying so on stderr) if the record cannot be written.
bool write_bench_record(obs::BenchRecord& rec, const PaperCheck& check,
                        double wall_seconds);

}  // namespace forksim::analysis
