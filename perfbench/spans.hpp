// In-memory span recorder for the traced benchmark run.
//
// The benchmark records a span around every public engine call it makes
// (engine construction, standalone topology generation, each run phase,
// the import replay). Spans stay in memory and are written out once the
// run ends, so recording costs two clock reads and one vector push. A
// span's self time is its duration minus the part of its interval that its
// children cover; children may nest arbitrarily and may overlap each other
// (the union is subtracted once).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  /// Index of the enclosing span in the recorder, or -1 for a root.
  int parent = -1;
  /// Spans of one benchmark repetition share a trace id.
  std::uint64_t trace_id = 0;
  double start_s = 0.0;  // seconds since the recorder's epoch
  double end_s = 0.0;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// Self time of spans[index]: its duration minus the length of the union
/// of its direct children's intervals, each clipped to the parent's
/// interval. Never negative.
double self_seconds(const std::vector<Span>& spans, std::size_t index);

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Open a span whose parent is the innermost open span.
  std::size_t begin(std::string name);
  /// Close the span `begin` returned; spans close in LIFO order.
  void end(std::size_t index);

  void set_trace_id(std::uint64_t id) noexcept { trace_id_ = id; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds), with the
  /// self time of every span in its args.
  std::string to_chrome_json() const;

 private:
  double now_s() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t trace_id_ = 0;
};

/// RAII span; a null recorder makes it free (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        index_(recorder ? recorder->begin(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
