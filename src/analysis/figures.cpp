#include "analysis/figures.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <ostream>

namespace forksim::analysis {

void PaperCheck::expect(const std::string& claim, bool pass,
                        const std::string& detail) {
  rows_.push_back({claim, pass, detail});
  if (!pass) ++failures_;
}

void PaperCheck::expect_ge(const std::string& claim, double measured,
                           double bound) {
  expect(claim, measured >= bound,
         "measured " + fmt(measured, 3) + " (needs >= " + fmt(bound, 3) + ")");
}

void PaperCheck::expect_le(const std::string& claim, double measured,
                           double bound) {
  expect(claim, measured <= bound,
         "measured " + fmt(measured, 3) + " (needs <= " + fmt(bound, 3) + ")");
}

void PaperCheck::print(std::ostream& os) const {
  os << "\nPAPER-CHECK [" << figure_ << "]\n";
  for (const auto& row : rows_) {
    os << "  " << (row.pass ? "PASS" : "FAIL") << "  " << row.claim;
    if (!row.detail.empty()) os << "  -- " << row.detail;
    os << '\n';
  }
  os << "  => " << (failures_ == 0 ? "ALL CHECKS PASSED" : "CHECKS FAILED")
     << " (" << (rows_.size() - failures_) << "/" << rows_.size() << ")\n";
}

std::vector<std::pair<std::size_t, double>> sample_series(
    const std::vector<double>& dense, std::size_t count) {
  std::vector<std::pair<std::size_t, double>> out;
  if (dense.empty() || count == 0) return out;
  if (dense.size() <= count) {
    for (std::size_t i = 0; i < dense.size(); ++i) out.emplace_back(i, dense[i]);
    return out;
  }
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = k * (dense.size() - 1) / (count - 1);
    out.emplace_back(i, dense[i]);
  }
  return out;
}

std::vector<double> smooth(const std::vector<double>& xs, std::size_t w) {
  if (w <= 1 || xs.empty()) return xs;
  std::vector<double> out(xs.size());
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(w) / 2;
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(xs.size()); ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(xs.size()) - 1, i + half);
    double sum = 0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j)
      sum += xs[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] =
        sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

double window_mean(const std::vector<double>& xs, std::size_t lo,
                   std::size_t hi) {
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = lo; i < hi && i < xs.size(); ++i, ++n) sum += xs[i];
  return n ? sum / static_cast<double>(n) : 0.0;
}

bool write_csv(const std::string& dir, const std::string& name,
               const Table& table) {
  const std::string path = dir + "/" + name + ".csv";
  std::ofstream out(path);
  out << table.to_csv();
  if (!out.flush()) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

bool write_bench_record(obs::BenchRecord& rec, const PaperCheck& check,
                        double wall_seconds) {
  rec.metric("wall_seconds", wall_seconds);
  rec.metric("checks_total", static_cast<std::uint64_t>(check.checks()));
  rec.metric("checks_passed",
             static_cast<std::uint64_t>(check.checks() - check.failures()));
  rec.param("all_passed", check.all_passed());
  const std::string path = rec.write();
  if (path.empty()) {
    std::cerr << "cannot write BENCH_" << rec.name() << ".json\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

std::ptrdiff_t first_stable_index(const std::vector<double>& xs,
                                  double target, double tolerance,
                                  std::size_t run) {
  std::size_t streak = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::abs(xs[i] - target) <= tolerance) {
      if (++streak >= run) return static_cast<std::ptrdiff_t>(i + 1 - run);
    } else {
      streak = 0;
    }
  }
  return -1;
}

}  // namespace forksim::analysis
