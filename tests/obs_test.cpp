// Telemetry registry + tracer unit and property tests: histogram merge
// associativity, quantile bounds pinned against support/stats::percentile,
// snapshot determinism and fingerprint sensitivity, JSON well-formedness
// (a mini validator below), and the sim-time tracer's determinism,
// capacity, and wall-time-exclusion guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/bench_record.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace forksim::obs {
namespace {

// ------------------------------------------------- mini JSON validator
//
// A strict recursive-descent syntax checker (no semantics): enough to
// assert every JSON artifact the obs layer emits is machine-parseable.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') { ++pos_; if (!digits()) return false; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) {
  return JsonChecker(text).valid();
}

// ------------------------------------------------------------ registry

TEST(ObsRegistryTest, CounterGaugeHandlesAndNullSafety) {
  Registry reg;
  Counter& c = reg.counter("a.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.counter_value("a.count"), 5u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);

  Gauge& g = reg.gauge("a.level");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("a.level"), 3.0);

  // null-handle helpers are the unattached hot path: must be no-ops
  inc(nullptr);
  inc(nullptr, 7);
  set(nullptr, 1.0);
  observe(nullptr, 1.0);
  EXPECT_EQ(reg.metric_count(), 2u);
}

TEST(ObsRegistryTest, FindOrCreateReturnsStableReferences) {
  Registry reg;
  Counter* first = &reg.counter("x");
  for (int i = 0; i < 100; ++i) reg.counter("pad." + std::to_string(i));
  EXPECT_EQ(first, &reg.counter("x"));
}

TEST(ObsRegistryTest, CollectorRunsAtSnapshotTime) {
  Registry reg;
  std::uint64_t external = 0;
  reg.add_collector(
      [&external](Registry& r) { r.counter("ext.count").set(external); });
  external = 41;
  EXPECT_EQ(reg.snapshot().counter_value("ext.count"), 41u);
  external = 42;
  EXPECT_EQ(reg.snapshot().counter_value("ext.count"), 42u);
}

// ------------------------------------------------------ bound fields

TEST(ObsBindTest, FieldsSharingANameReportTheirSum) {
  Registry reg;
  std::uint64_t a = 3;
  std::uint64_t b = 4;
  reg.bind("shared", a);
  reg.bind("shared", b);
  EXPECT_EQ(reg.snapshot().counter_value("shared"), 7u);
  ++b;
  EXPECT_EQ(reg.snapshot().counter_value("shared"), 8u);
}

TEST(ObsBindTest, SelfGatedNameAppearsOnItsFirstEvent) {
  Registry reg;
  std::uint64_t evictions = 0;
  reg.bind("lazy", evictions, &evictions);
  EXPECT_TRUE(reg.snapshot().counters.empty());
  EXPECT_EQ(reg.metric_count(), 0u);

  ++evictions;
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].first, "lazy");
  EXPECT_EQ(s.counters[0].second, 1u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(ObsBindTest, GateOnAnotherFieldShowsTheNameEvenAtZero) {
  Registry reg;
  std::uint64_t restarts = 0;
  std::uint64_t replayed = 0;
  reg.bind("recovery.replayed", replayed, &restarts);
  EXPECT_TRUE(reg.snapshot().counters.empty());
  EXPECT_EQ(reg.counter_value("recovery.replayed"), 0u);

  ++restarts;  // a restart that replayed nothing still registers the name
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].first, "recovery.replayed");
  EXPECT_EQ(s.counters[0].second, 0u);

  replayed = 9;
  EXPECT_EQ(reg.snapshot().counter_value("recovery.replayed"), 9u);
}

TEST(ObsBindTest, OneOpenGateShowsTheWholeSum) {
  Registry reg;
  std::uint64_t quiet = 0;
  std::uint64_t busy = 0;
  reg.bind("spam", quiet, &quiet);
  reg.bind("spam", busy, &busy);
  EXPECT_TRUE(reg.snapshot().counters.empty());
  busy = 2;
  EXPECT_EQ(reg.snapshot().counter_value("spam"), 2u);
}

TEST(ObsBindTest, CounterValueReadsTheLiveFieldWithoutASnapshot) {
  Registry reg;
  std::uint64_t sent = 0;
  reg.bind("net.sent", sent);
  EXPECT_EQ(reg.counter_value("net.sent"), 0u);
  sent = 12;
  EXPECT_EQ(reg.counter_value("net.sent"), 12u);
  sent = 13;
  EXPECT_EQ(reg.counter_value("net.sent"), 13u);
}

TEST(ObsBindTest, StoredCounterAndBoundFieldsAddUp) {
  Registry reg;
  std::uint64_t field = 5;
  reg.counter("mixed").inc(2);
  reg.bind("mixed", field);
  EXPECT_EQ(reg.counter_value("mixed"), 7u);
  EXPECT_EQ(reg.snapshot().counter_value("mixed"), 7u);

  // a closed gate hides nothing once the name exists as a stored counter
  std::uint64_t gate = 0;
  std::uint64_t gated = 1;
  reg.bind("mixed", gated, &gate);
  EXPECT_EQ(reg.snapshot().counter_value("mixed"), 8u);
}

TEST(ObsBindTest, RepeatedSnapshotsFingerprintIdentically) {
  Registry reg;
  std::uint64_t a = 1;
  std::uint64_t b = 0;
  reg.bind("a", a);
  reg.bind("b", b, &b);
  reg.counter("c").inc(3);
  const Snapshot first = reg.snapshot();
  const Snapshot second = reg.snapshot();
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  EXPECT_EQ(first.to_json(), second.to_json());

  // and a bound count is indistinguishable from the same stored count
  Registry stored;
  stored.counter("a").inc(1);
  stored.counter("c").inc(3);
  EXPECT_EQ(first.fingerprint(), stored.fingerprint());
}

// Snapshots (and therefore fingerprints) depend only on the metric
// name/value sets, never on creation order.
TEST(ObsRegistryTest, SnapshotIsInsertionOrderIndependent) {
  Registry a;
  a.counter("one").inc(1);
  a.counter("two").inc(2);
  a.gauge("g").set(0.5);
  a.histogram("h", {1.0, 2.0}).observe(1.5);

  Registry b;
  b.histogram("h", {1.0, 2.0}).observe(1.5);
  b.gauge("g").set(0.5);
  b.counter("two").inc(2);
  b.counter("one").inc(1);

  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
}

TEST(ObsRegistryTest, FingerprintSensitiveToEveryValue) {
  auto make = [](std::uint64_t n, double g) {
    auto reg = std::make_unique<Registry>();
    reg->counter("c").inc(n);
    reg->gauge("g").set(g);
    return reg;
  };
  const Hash256 base = make(1, 1.0)->fingerprint();
  EXPECT_NE(base, make(2, 1.0)->fingerprint());
  EXPECT_NE(base, make(1, 1.5)->fingerprint());
  // the exact bit pattern matters: -0.0 != +0.0 as telemetry
  EXPECT_NE(make(1, 0.0)->fingerprint(), make(1, -0.0)->fingerprint());
}

TEST(ObsRegistryTest, MergeAccumulatesAcrossRegistries) {
  Registry shard1;
  shard1.counter("c").inc(3);
  shard1.gauge("g").set(1.0);
  shard1.histogram("h", {10.0}).observe(5.0);

  Registry shard2;
  shard2.counter("c").inc(4);
  shard2.gauge("g").set(0.5);
  shard2.histogram("h", {10.0}).observe(50.0);

  Registry total;
  total.merge(shard1.snapshot());
  total.merge(shard2.snapshot());
  const Snapshot s = total.snapshot();
  EXPECT_EQ(s.counter_value("c"), 7u);
  const Histogram* h = total.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 55.0);
  EXPECT_DOUBLE_EQ(h->min(), 5.0);
  EXPECT_DOUBLE_EQ(h->max(), 50.0);
}

// ----------------------------------------------------------- histogram

TEST(ObsHistogramTest, BucketingAndOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (upper bound inclusive)
  h.observe(7.0);    // bucket 1
  h.observe(1000.0); // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(ObsHistogramTest, MergeRejectsMismatchedBounds) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  a.observe(0.5);
  b.observe(0.5);
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a.count(), 1u);  // untouched on rejection
}

// Property: merge is associative and commutative — (a+b)+c == a+(b+c)
// == (c+b)+a bucket for bucket, for randomized observation sets.
TEST(ObsHistogramTest, MergeAssociativityProperty) {
  Rng rng(7);
  const std::vector<double> bounds = Histogram::exponential_bounds(0.01, 2.0, 14);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram parts[3] = {Histogram(bounds), Histogram(bounds),
                          Histogram(bounds)};
    for (auto& h : parts) {
      const std::size_t n = rng.uniform(60);
      for (std::size_t i = 0; i < n; ++i)
        h.observe(rng.uniform01() * 200.0);
    }

    Histogram left(bounds);   // (a + b) + c
    ASSERT_TRUE(left.merge(parts[0]));
    ASSERT_TRUE(left.merge(parts[1]));
    ASSERT_TRUE(left.merge(parts[2]));

    Histogram bc(bounds);     // a + (b + c)
    ASSERT_TRUE(bc.merge(parts[1]));
    ASSERT_TRUE(bc.merge(parts[2]));
    Histogram right(bounds);
    ASSERT_TRUE(right.merge(parts[0]));
    ASSERT_TRUE(right.merge(bc));

    Histogram rev(bounds);    // c + b + a
    ASSERT_TRUE(rev.merge(parts[2]));
    ASSERT_TRUE(rev.merge(parts[1]));
    ASSERT_TRUE(rev.merge(parts[0]));

    EXPECT_EQ(left.bucket_counts(), right.bucket_counts());
    EXPECT_EQ(left.bucket_counts(), rev.bucket_counts());
    EXPECT_EQ(left.count(), right.count());
    EXPECT_DOUBLE_EQ(left.sum(), right.sum());
    EXPECT_DOUBLE_EQ(left.min(), rev.min());
    EXPECT_DOUBLE_EQ(left.max(), rev.max());
  }
}

// Property: quantile_bounds(p) brackets the exact linear-interpolated
// percentile computed from the raw samples (support/stats::percentile).
TEST(ObsHistogramTest, QuantileBoundsContainExactPercentileProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    Histogram h(Histogram::linear_bounds(5.0, 5.0, 20));  // 5,10,...,100
    std::vector<double> samples;
    const std::size_t n = 1 + rng.uniform(200);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.uniform01() * 120.0;  // spills into overflow
      samples.push_back(x);
      h.observe(x);
    }
    for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      const double exact = percentile(samples, p);
      const auto qb = h.quantile_bounds(p);
      EXPECT_LE(qb.lower, exact + 1e-9)
          << "p=" << p << " n=" << n << " trial=" << trial;
      EXPECT_GE(qb.upper, exact - 1e-9)
          << "p=" << p << " n=" << n << " trial=" << trial;
      EXPECT_LE(qb.lower, qb.upper);
      // the point estimate stays inside its own interval
      const double mid = h.quantile(p);
      EXPECT_GE(mid, qb.lower - 1e-9);
      EXPECT_LE(mid, qb.upper + 1e-9);
    }
  }
}

TEST(ObsHistogramTest, QuantileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile_bounds(50.0).lower, 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile_bounds(50.0).upper, 0.0);

  Histogram single({10.0, 20.0});
  single.observe(7.0);
  for (double p : {0.0, 50.0, 100.0}) {
    const auto qb = single.quantile_bounds(p);
    EXPECT_LE(qb.lower, 7.0);
    EXPECT_GE(qb.upper, 7.0);
  }
  // min/max tracking pins the interval exactly for the extremes
  EXPECT_DOUBLE_EQ(single.quantile_bounds(0.0).lower, 7.0);
  EXPECT_DOUBLE_EQ(single.quantile_bounds(100.0).upper, 7.0);
}

TEST(ObsHistogramTest, BoundsGenerators) {
  const auto exp = Histogram::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const auto lin = Histogram::linear_bounds(1.0, 1.0, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[2], 3.0);
}

// ----------------------------------------------------------- snapshots

TEST(ObsSnapshotTest, JsonIsWellFormed) {
  Registry reg;
  reg.counter("weird \"name\"\n\t").inc(3);
  reg.gauge("g").set(-0.125);
  reg.gauge("nan").set(std::nan(""));  // must serialize as null, not NaN
  Histogram& h = reg.histogram("h", {0.5, 1.5});
  h.observe(0.3);
  h.observe(9.0);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(json_valid(json)) << json;
}

TEST(ObsSnapshotTest, FingerprintIgnoresNothingAndMatchesItself) {
  Registry reg;
  reg.counter("c").inc(9);
  reg.histogram("h", {1.0}).observe(0.25);
  const Snapshot s1 = reg.snapshot();
  const Snapshot s2 = reg.snapshot();
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
  reg.histogram("h", {1.0}).observe(0.25);
  EXPECT_NE(reg.fingerprint(), s1.fingerprint());
}

// -------------------------------------------------------------- tracer

TEST(ObsTracerTest, InstantAndSpanRecordSimTime) {
  double now = 1.25;
  EventTracer tracer([&now] { return now; });
  tracer.instant("cat", "tick", 3, {{"height", 7}});
  now = 2.0;
  {
    EventTracer::Span span = tracer.span("sync", "fetch", 1);
    now = 2.5;
    span.add_arg("blocks", 32);
  }
  ASSERT_EQ(tracer.size(), 2u);
  const TraceEvent& inst = tracer.events()[0];
  EXPECT_DOUBLE_EQ(inst.ts, 1.25);
  EXPECT_LT(inst.dur, 0.0);
  EXPECT_EQ(inst.lane, 3u);
  ASSERT_EQ(inst.args.size(), 1u);
  EXPECT_EQ(inst.args[0].first, "height");
  EXPECT_EQ(inst.args[0].second, 7);

  const TraceEvent& comp = tracer.events()[1];
  EXPECT_DOUBLE_EQ(comp.ts, 2.0);
  EXPECT_DOUBLE_EQ(comp.dur, 0.5);
  EXPECT_EQ(comp.name, "fetch");
  ASSERT_EQ(comp.args.size(), 1u);
  EXPECT_EQ(comp.args[0].second, 32);
}

TEST(ObsTracerTest, CapacityBoundsMemoryAndCountsDrops) {
  double now = 0.0;
  EventTracer tracer([&now] { return now; }, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    now = i;
    tracer.instant("c", "e");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(ObsTracerTest, FingerprintDeterministicAndTruncatable) {
  auto fill = [](EventTracer& t, double* now) {
    for (int i = 0; i < 8; ++i) {
      *now = i * 0.5;
      t.instant("cat", "e" + std::to_string(i), static_cast<std::uint32_t>(i));
    }
  };
  double n1 = 0.0;
  double n2 = 0.0;
  EventTracer t1([&n1] { return n1; });
  EventTracer t2([&n2] { return n2; });
  fill(t1, &n1);
  fill(t2, &n2);
  EXPECT_EQ(t1.fingerprint(), t2.fingerprint());
  EXPECT_EQ(t1.fingerprint(4), t2.fingerprint(4));
  EXPECT_NE(t1.fingerprint(4), t1.fingerprint(8));

  n2 = 99.0;
  t2.instant("cat", "extra");
  EXPECT_NE(t1.fingerprint(), t2.fingerprint());
  EXPECT_EQ(t1.fingerprint(8), t2.fingerprint(8));  // shared prefix
}

TEST(ObsTracerTest, WallTimeIsCapturedButNeverFingerprinted) {
  double now = 0.0;
  EventTracer plain([&now] { return now; });
  EventTracer timed([&now] { return now; });
  timed.set_wall_time_enabled(true);
  { auto s = plain.span("c", "work"); }
  { auto s = timed.span("c", "work"); }
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_EQ(timed.size(), 1u);
  EXPECT_LT(plain.events()[0].wall_us, 0.0);
  EXPECT_GE(timed.events()[0].wall_us, 0.0);
  EXPECT_EQ(plain.fingerprint(), timed.fingerprint());
}

TEST(ObsTracerTest, ChromeJsonIsValidAndSortedBySimTime) {
  double now = 0.0;
  EventTracer tracer([&now] { return now; });
  // record out of order on purpose: a span opened early closes late
  now = 5.0;
  tracer.instant("b", "late", 1, {{"k", -3}});
  tracer.complete(1.0, 2.5, "a", "early-span", 0, {}, 12.5);
  now = 0.5;
  tracer.instant("a", "earliest");

  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string json = os.str();
  ASSERT_TRUE(json_valid(json)) << json;

  // exported ts sequence (microseconds) must be monotone non-decreasing
  std::vector<double> ts;
  for (std::size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 1))
    ts.push_back(std::strtod(json.c_str() + pos + 5, nullptr));
  ASSERT_EQ(ts.size(), 3u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GE(ts[i], ts[i - 1]);
  EXPECT_DOUBLE_EQ(ts.front(), 0.5 * 1e6);

  std::ostringstream csv;
  tracer.write_csv(csv);
  // header plus one line per event
  std::size_t lines = 0;
  for (char c : csv.str())
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1u + tracer.size());
}

// -------------------------------------------------------- bench record

TEST(ObsBenchRecordTest, JsonShapeAndEnvDirRouting) {
  BenchRecord rec("unit_test");
  rec.param("seed", std::uint64_t{42});
  rec.param("label", "hello \"world\"");
  rec.param("enabled", true);
  rec.metric("wall_seconds", 0.125);
  rec.metric("items", std::uint64_t{3});
  Registry reg;
  reg.counter("c").inc(2);
  rec.telemetry(reg.snapshot());

  const std::string json = rec.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"forksim/bench/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);

  // $FORKSIM_BENCH_DIR routes the output file
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("FORKSIM_BENCH_DIR", dir.c_str(), 1), 0);
  const std::string path = rec.write();
  unsetenv("FORKSIM_BENCH_DIR");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_unit_test.json"), std::string::npos);
  EXPECT_EQ(path.rfind(dir, 0), 0u) << path;
  std::remove(path.c_str());
}

TEST(ObsBenchRecordTest, RecordsCompileTimeBuildType) {
  // perf gates refuse to compare records from different build types, so
  // every record must name the one it was compiled under
  const std::string json = BenchRecord("unit_test").to_json();
  const std::string key = "\"build_type\":\"";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_NE(json[at + key.size()], '"') << "empty build type: " << json;
}

}  // namespace
}  // namespace forksim::obs
