#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

double self_seconds(const std::vector<Span>& spans, std::size_t index) {
  const Span& parent = spans.at(index);
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans) {
    if (child.parent != static_cast<int>(index)) continue;
    const double lo = std::max(child.start_s, parent.start_s);
    const double hi = std::min(child.end_s, parent.end_s);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_len = 0.0;
  double run_lo = 0.0, run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_len += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_len += run_hi - run_lo;
  return std::max(0.0, parent.duration_s() - union_len);
}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::size_t SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  span.trace_id = trace_id_;
  span.start_s = now_s();
  span.end_s = span.start_s;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("SpanRecorder::end: spans must close LIFO");
  spans_[index].end_s = now_s();
  open_.pop_back();
}

std::string SpanRecorder::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                  "\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<unsigned long long>(s.trace_id), s.start_s * 1e6,
                  s.duration_s() * 1e6, s.parent,
                  self_seconds(spans_, i) * 1e6);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
