// Differential harness for the sharded conservative-PDES core: every
// shard count must produce the bit-identical ScaleSim report — fingerprint,
// counters, region stats, propagation percentiles — as the single-thread
// reference, across seeds, topologies, and geo configs. Plus property
// tests on the machinery itself: the epoch-barrier conservative invariant
// (no cross-shard message may land before the sending epoch's horizon),
// lookahead floors vs. actual link latencies, KeyedTimedQueue
// push-order-invariance, and PhaseBarrier synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "p2p/geo.hpp"
#include "p2p/scheduler.hpp"
#include "sim/scalesim.hpp"

namespace forksim {
namespace {

using p2p::DegreeDistribution;
using sim::ScaleParams;
using sim::ScaleReport;
using sim::ScaleSim;

// ---- differential fingerprint sweep ---------------------------------------

/// The three reference configurations the acceptance sweep runs: a flat
/// uniform mesh, a power-law mesh with a mid-run partition cut, and a
/// geo-placed internet profile. Small enough to sweep 8 seeds x 4 shard
/// counts in seconds; every engine path (cut drops, geo latency, hub
/// fan-out) is exercised by at least one of them.
ScaleParams flat_uniform(std::uint64_t seed) {
  ScaleParams p;
  p.nodes = 96;
  p.topology.degree = 6;
  p.miners = 8;
  p.block_interval = 8.0;
  p.duration = 500.0;
  p.seed = seed;
  return p;
}

ScaleParams powerlaw_with_cut(std::uint64_t seed) {
  ScaleParams p = flat_uniform(seed);
  p.topology.distribution = DegreeDistribution::kPowerLaw;
  p.topology.degree = 4;
  p.topology.max_degree = 24;
  p.cut_start = 100.0;
  p.cut_duration = 150.0;
  p.cut_fraction = 0.3;
  return p;
}

ScaleParams geo_internet(std::uint64_t seed) {
  ScaleParams p = flat_uniform(seed);
  p.geo = p2p::GeoParams::internet();
  p.geo.enabled = true;
  p.geo.seed = seed * 7 + 1;
  return p;
}

void expect_identical_reports(const ScaleReport& ref, const ScaleReport& got,
                              const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(ref.fingerprint, got.fingerprint);
  EXPECT_EQ(ref.blocks_mined, got.blocks_mined);
  EXPECT_EQ(ref.canonical_height, got.canonical_height);
  EXPECT_EQ(ref.stale_blocks, got.stale_blocks);
  EXPECT_EQ(ref.stale_rate, got.stale_rate);
  EXPECT_EQ(ref.converged, got.converged);
  EXPECT_EQ(ref.distinct_heads, got.distinct_heads);
  EXPECT_EQ(ref.deliveries, got.deliveries);
  EXPECT_EQ(ref.dup_suppressed, got.dup_suppressed);
  EXPECT_EQ(ref.cut_dropped, got.cut_dropped);
  EXPECT_EQ(ref.events, got.events);
  // doubles via EXPECT_EQ on purpose: bit-identical, not approximately
  EXPECT_EQ(ref.prop_p50, got.prop_p50);
  EXPECT_EQ(ref.prop_p90, got.prop_p90);
  EXPECT_EQ(ref.prop_p99, got.prop_p99);
  EXPECT_EQ(ref.prop_mean, got.prop_mean);
  EXPECT_EQ(ref.fairness_max_dev, got.fairness_max_dev);
  EXPECT_EQ(ref.fairness_gini, got.fairness_gini);
  ASSERT_EQ(ref.regions.size(), got.regions.size());
  for (std::size_t r = 0; r < ref.regions.size(); ++r) {
    EXPECT_EQ(ref.regions[r].name, got.regions[r].name);
    EXPECT_EQ(ref.regions[r].population, got.regions[r].population);
    EXPECT_EQ(ref.regions[r].miners, got.regions[r].miners);
    EXPECT_EQ(ref.regions[r].blocks_mined, got.regions[r].blocks_mined);
    EXPECT_EQ(ref.regions[r].blocks_canonical,
              got.regions[r].blocks_canonical);
    EXPECT_EQ(ref.regions[r].stale_rate, got.regions[r].stale_rate);
    EXPECT_EQ(ref.regions[r].fairness, got.regions[r].fairness);
  }
}

using ConfigFn = ScaleParams (*)(std::uint64_t);

struct NamedConfig {
  const char* name;
  ConfigFn make;
};

constexpr NamedConfig kConfigs[] = {
    {"flat_uniform", &flat_uniform},
    {"powerlaw_with_cut", &powerlaw_with_cut},
    {"geo_internet", &geo_internet},
};

TEST(ParallelDifferentialTest, ShardedFingerprintsMatchSingleThread) {
  constexpr std::uint64_t kSeeds[] = {1, 7, 42, 1916, 2718, 31337,
                                      777, 123456789};
  constexpr std::size_t kShards[] = {2, 4, 8};
  for (const NamedConfig& cfg : kConfigs) {
    for (const std::uint64_t seed : kSeeds) {
      ScaleParams base = cfg.make(seed);
      base.num_shards = 1;
      const ScaleReport ref = ScaleSim(base).run();
      EXPECT_EQ(ref.shards, 1u);
      for (const std::size_t k : kShards) {
        ScaleParams p = cfg.make(seed);
        p.num_shards = k;
        const ScaleReport got = ScaleSim(p).run();
        EXPECT_EQ(got.shards, k);
        EXPECT_GT(got.epochs, 0u);
        expect_identical_reports(
            ref, got,
            std::string(cfg.name) + " seed=" + std::to_string(seed) +
                " shards=" + std::to_string(k));
      }
    }
  }
}

TEST(ParallelDifferentialTest, RepeatedShardedRunsAreBitIdentical) {
  ScaleParams p = geo_internet(99);
  p.num_shards = 4;
  const ScaleReport a = ScaleSim(p).run();
  const ScaleReport b = ScaleSim(p).run();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.cross_shard_messages, b.cross_shard_messages);
}

TEST(ParallelDifferentialTest, TelemetryMergeIsShardCountInvariant) {
  Hash256 ref_fp;
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    ScaleParams p = powerlaw_with_cut(5);
    p.num_shards = k;
    ScaleSim sim(p);
    obs::Registry reg;
    sim.export_telemetry(reg);  // pre-run: must be a no-op
    EXPECT_EQ(reg.snapshot().counters.size(), 0u);
    sim.run();
    sim.export_telemetry(reg);
    const Hash256 fp = reg.fingerprint();
    if (k == 1)
      ref_fp = fp;
    else
      EXPECT_EQ(fp, ref_fp) << "telemetry diverged at " << k << " shards";
  }
}

// ---- epoch-barrier conservative invariant ---------------------------------

TEST(EpochBarrierTest, AuditFindsNoConservativeViolations) {
  for (const NamedConfig& cfg : kConfigs) {
    ScaleParams p = cfg.make(11);
    p.num_shards = 4;
    p.audit_epochs = true;
    const ScaleReport r = ScaleSim(p).run();
    SCOPED_TRACE(cfg.name);
    EXPECT_GT(r.cross_shard_messages, 0u);
    EXPECT_EQ(r.audit_mail_checked, r.cross_shard_messages);
    EXPECT_EQ(r.audit_violations, 0u)
        << "a cross-shard message arrived before the sending epoch's "
           "horizon — the lookahead bound is broken";
  }
}

TEST(EpochBarrierTest, AuditIsFreeWhenOff) {
  ScaleParams p = flat_uniform(3);
  p.num_shards = 2;
  const ScaleReport r = ScaleSim(p).run();
  EXPECT_EQ(r.audit_mail_checked, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
}

// ---- lookahead floors ------------------------------------------------------

TEST(LookaheadTest, NeverExceedsAnyCrossShardLinkLatency) {
  // seeded sweep over internet() profiles (satellite: GeoParams::scaled +
  // topology lookahead floors): the epoch bound must be a true lower bound
  // on every cross-shard link's minimum latency — jitter is >= 0, so
  // base + relay is the cheapest any message can travel.
  for (const std::uint64_t seed : {1ull, 5ull, 23ull, 99ull}) {
    for (const double rtt_factor : {0.5, 1.0, 3.0}) {
      ScaleParams p = geo_internet(seed);
      p.geo = p2p::GeoParams::internet().scaled(rtt_factor);
      p.geo.enabled = true;
      p.geo.seed = seed;
      p.num_shards = 4;
      ScaleSim sim(p);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " rtt_factor=" + std::to_string(rtt_factor));
      ASSERT_GT(sim.lookahead(), 0.0);
      const p2p::Topology& topo = sim.topology();
      bool any_cross = false;
      for (std::uint32_t a = 0; a < p.nodes; ++a) {
        for (const std::uint32_t b : topo.neighbors_of(a)) {
          if (sim.shard_of(a) == sim.shard_of(b)) continue;
          any_cross = true;
          const double floor =
              sim.geo()->base_delay(a, b) + p.relay_delay;
          EXPECT_LE(sim.lookahead(), floor)
              << "lookahead exceeds link " << a << "->" << b;
        }
      }
      EXPECT_TRUE(any_cross);
    }
  }
}

TEST(LookaheadTest, UniformNetworkFloorIsBasePlusRelay) {
  ScaleParams p = flat_uniform(2);
  p.num_shards = 2;
  ScaleSim sim(p);
  EXPECT_DOUBLE_EQ(sim.lookahead(), p.uniform_base + p.relay_delay);
}

TEST(LookaheadTest, ZeroLatencyFloorRejectsSharding) {
  ScaleParams p = flat_uniform(2);
  p.uniform_base = 0.0;
  p.relay_delay = 0.0;
  EXPECT_NO_THROW(ScaleSim{p});  // fine single-threaded
  p.num_shards = 2;
  EXPECT_THROW(ScaleSim{p}, std::invalid_argument);
}

TEST(LookaheadTest, ShardCountOutOfRangeRejected) {
  ScaleParams p = flat_uniform(2);
  p.num_shards = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.num_shards = p.nodes + 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ---- shard partition -------------------------------------------------------

TEST(ShardPlanTest, ContiguousBalancedAndExhaustive) {
  for (const std::size_t n : {5u, 96u, 1000u}) {
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      if (k > n) continue;
      std::vector<std::size_t> sizes(k, 0);
      std::uint32_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t s = p2p::ShardPlan::shard_for(i, n, k);
        ASSERT_LT(s, k);
        ASSERT_GE(s, prev) << "partition must be contiguous";
        prev = s;
        ++sizes[s];
      }
      const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
      EXPECT_GT(*lo, 0u);
      EXPECT_LE(*hi - *lo, 1u) << "n=" << n << " k=" << k;
    }
  }
}

// ---- KeyedTimedQueue -------------------------------------------------------

TEST(KeyedTimedQueueTest, PopOrderIsPushOrderInvariant) {
  struct Item {
    double at;
    std::uint64_t key;
    int payload;
  };
  std::vector<Item> items;
  // includes timestamp ties (resolved by key) and interleaved magnitudes
  for (int i = 0; i < 64; ++i)
    items.push_back({static_cast<double>((i * 7) % 16),
                     static_cast<std::uint64_t>((i * 13) % 97), i});

  auto drain = [](const std::vector<Item>& seq) {
    p2p::KeyedTimedQueue<int> q;
    for (const Item& it : seq) q.push(it.at, it.key, it.payload);
    std::vector<int> out;
    double prev_at = -1.0;
    std::uint64_t prev_key = 0;
    while (!q.empty()) {
      const double at = q.top().at;
      const std::uint64_t key = q.top().key;
      if (at == prev_at)
        EXPECT_GT(key, prev_key) << "equal-time pops must ascend by key";
      else
        EXPECT_GT(at, prev_at);
      prev_at = at;
      prev_key = key;
      out.push_back(q.pop().payload);
    }
    return out;
  };

  const std::vector<int> forward = drain(items);
  std::vector<Item> shuffled = items;
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(drain(shuffled), forward);
  // one more adversarial order: strided
  std::vector<Item> strided;
  for (std::size_t start = 0; start < 5; ++start)
    for (std::size_t i = start; i < items.size(); i += 5)
      strided.push_back(items[i]);
  EXPECT_EQ(drain(strided), forward);
}

// ---- PhaseBarrier ----------------------------------------------------------

TEST(PhaseBarrierTest, RoundsArePublishedToEveryThread) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 200;
  p2p::PhaseBarrier barrier(kThreads);
  std::vector<std::uint64_t> slot(kThreads, 0);
  std::vector<int> failures(kThreads, 0);

  auto body = [&](std::size_t me) {
    for (int r = 1; r <= kRounds; ++r) {
      slot[me] += r;  // plain write; the barrier must order it
      barrier.arrive_and_wait();
      std::uint64_t sum = 0;
      for (const std::uint64_t v : slot) sum += v;
      const std::uint64_t expect =
          kThreads * (static_cast<std::uint64_t>(r) * (r + 1)) / 2;
      if (sum != expect) ++failures[me];
      barrier.arrive_and_wait();  // keep writers out of the read phase
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < kThreads; ++t)
    threads.emplace_back(body, t);
  body(0);
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], 0) << "thread " << t
                              << " observed a torn barrier round";
}

}  // namespace
}  // namespace forksim
