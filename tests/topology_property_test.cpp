// Topology-generator and geography property sweep.
//
// The internet-scale engine only earns its determinism claim if the graph
// layer under it is airtight: every generated mesh must be connected,
// every node must respect the hard degree cap, and regenerating from the
// same (params, n) must be byte-identical — 2000 seeded draws across both
// degree distributions check exactly that. The rest of the file pins the
// validation surface (field-named std::invalid_argument for every
// out-of-range knob, boundary values included) and the seeded geo
// placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "p2p/geo.hpp"
#include "p2p/topology.hpp"
#include "sim/chaos.hpp"
#include "sim/scalesim.hpp"
#include "support/rng.hpp"

namespace forksim {
namespace {

using p2p::DegreeDistribution;
using p2p::GeoModel;
using p2p::GeoParams;
using p2p::RegionSpec;
using p2p::Topology;
using p2p::TopologyParams;

/// Expect `fn` to throw std::invalid_argument whose message names `field`.
template <typename Fn>
void expect_invalid(const std::string& field, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument naming '" << field << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(TopologyPropertyTest, TwoThousandDrawsConnectedCappedReproducible) {
  Rng meta(0xf02f02);
  for (int draw = 0; draw < 2000; ++draw) {
    TopologyParams p;
    p.enabled = true;
    const std::size_t n = 2 + meta.uniform(299);  // [2, 300]
    p.distribution = meta.chance(0.5) ? DegreeDistribution::kUniform
                                      : DegreeDistribution::kPowerLaw;
    p.degree = 1 + meta.uniform(std::min<std::size_t>(n - 1, 16));
    p.max_degree = std::max<std::size_t>(2, p.degree + meta.uniform(24));
    p.alpha = 1.5 + meta.uniform01() * 2.0;
    p.seed = meta.next();

    ASSERT_NO_THROW(p.validate(n)) << "draw " << draw << " n " << n;
    const Topology t = p2p::generate_topology(p, n);

    ASSERT_EQ(t.node_count(), n) << "draw " << draw;
    EXPECT_TRUE(t.connected()) << "draw " << draw << " n " << n;
    const std::size_t cap = std::min(p.max_degree, n - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_LE(t.degree(i), cap) << "draw " << draw << " node " << i;
      EXPECT_GE(t.degree(i), 1u) << "draw " << draw << " node " << i;
      // sorted, self-loop-free, duplicate-free neighbor ranges
      const auto nb = t.neighbors_of(i);
      for (std::size_t k = 0; k < nb.size(); ++k) {
        EXPECT_NE(nb[k], i);
        if (k > 0) {
          EXPECT_LT(nb[k - 1], nb[k]);
        }
      }
    }

    // same seed => byte-identical regeneration
    const Topology again = p2p::generate_topology(p, n);
    ASSERT_EQ(t.offsets, again.offsets) << "draw " << draw;
    ASSERT_EQ(t.neighbors, again.neighbors) << "draw " << draw;
    EXPECT_EQ(t.digest(), again.digest()) << "draw " << draw;
  }
}

TEST(TopologyPropertyTest, UndirectedSymmetry) {
  TopologyParams p;
  p.distribution = DegreeDistribution::kPowerLaw;
  p.degree = 4;
  p.max_degree = 32;
  p.seed = 7;
  const Topology t = p2p::generate_topology(p, 500);
  for (std::uint32_t i = 0; i < t.node_count(); ++i) {
    for (const std::uint32_t j : t.neighbors_of(i)) {
      const auto back = t.neighbors_of(j);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), i))
          << "edge " << i << "->" << j << " missing reverse";
    }
  }
}

TEST(TopologyPropertyTest, DifferentSeedsDifferentGraphs) {
  TopologyParams a, b;
  a.degree = b.degree = 8;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(p2p::generate_topology(a, 200).digest(),
            p2p::generate_topology(b, 200).digest());
}

TEST(TopologyPropertyTest, CliqueBoundaryIsValid) {
  TopologyParams p;
  p.degree = 15;  // n-1: a clique — boundary-inclusive
  p.max_degree = 15;
  ASSERT_NO_THROW(p.validate(16));
  const Topology t = p2p::generate_topology(p, 16);
  EXPECT_EQ(t.min_degree(), 15u);
  EXPECT_EQ(t.max_degree(), 15u);
  EXPECT_EQ(t.edge_count(), 16u * 15u / 2u);
}

TEST(TopologyPropertyTest, ValidationNamesOffendingField) {
  TopologyParams p;
  p.degree = 0;
  expect_invalid("degree", [&] { p.validate(10); });
  p.degree = 10;  // > n-1
  expect_invalid("degree", [&] { p.validate(10); });
  p.degree = 4;
  p.max_degree = 3;
  expect_invalid("max_degree", [&] { p.validate(10); });
  p.max_degree = 64;
  expect_invalid("node count", [&] { p.validate(1); });
  p.distribution = DegreeDistribution::kPowerLaw;
  p.alpha = 0.0;
  expect_invalid("alpha", [&] { p.validate(10); });
  p.alpha = -1.0;
  expect_invalid("alpha", [&] { p.validate(10); });
  p.alpha = 2.5;
  ASSERT_NO_THROW(p.validate(10));
}

TEST(GeoPropertyTest, InternetProfileValidatesAndPlacesEveryNode) {
  GeoParams g = GeoParams::internet();
  ASSERT_NO_THROW(g.validate());
  g.seed = 42;
  const GeoModel model(g, 5000);
  std::size_t placed = 0;
  for (std::uint32_t r = 0; r < model.region_count(); ++r)
    placed += model.population(r);
  EXPECT_EQ(placed, 5000u);
  // heaviest regions get the most nodes: na + eu carry ~68 % of weight
  const std::size_t na_eu = model.population(0) + model.population(1);
  EXPECT_GT(na_eu, 5000u / 2);
  // placement is seed-deterministic
  const GeoModel again(g, 5000);
  for (std::uint32_t i = 0; i < 5000; ++i)
    ASSERT_EQ(model.region_of(i), again.region_of(i)) << "node " << i;
}

TEST(GeoPropertyTest, BaseDelayIsHalfSymmetricRtt) {
  GeoParams g = GeoParams::internet();
  const GeoModel model(g, 64);
  for (std::uint32_t a = 0; a < 64; ++a) {
    for (std::uint32_t b = 0; b < 64; ++b) {
      EXPECT_DOUBLE_EQ(model.base_delay(a, b), model.base_delay(b, a));
      EXPECT_DOUBLE_EQ(
          model.base_delay(a, b),
          0.5 * g.rtt[model.region_of(a)][model.region_of(b)]);
    }
  }
}

TEST(GeoPropertyTest, ScaledMultipliesEveryRttClass) {
  const GeoParams g = GeoParams::internet();
  const GeoParams g3 = g.scaled(3.0);
  ASSERT_NO_THROW(g3.validate());
  for (std::size_t i = 0; i < g.rtt.size(); ++i)
    for (std::size_t j = 0; j < g.rtt[i].size(); ++j)
      EXPECT_DOUBLE_EQ(g3.rtt[i][j], 3.0 * g.rtt[i][j]);
}

TEST(GeoPropertyTest, ScaledPreservesEverythingButRtt) {
  const GeoParams g = GeoParams::internet();
  const GeoParams g1 = g.scaled(1.0);
  ASSERT_EQ(g1.regions.size(), g.regions.size());
  for (std::size_t i = 0; i < g.regions.size(); ++i) {
    EXPECT_EQ(g1.regions[i].name, g.regions[i].name);
    EXPECT_DOUBLE_EQ(g1.regions[i].weight, g.regions[i].weight);
  }
  EXPECT_EQ(g1.rtt, g.rtt);  // scaled(1.0) is the identity
  const GeoParams g2 = g.scaled(2.5);
  EXPECT_DOUBLE_EQ(g2.jitter_scale, g.jitter_scale);
  EXPECT_DOUBLE_EQ(g2.jitter_sigma, g.jitter_sigma);
  EXPECT_EQ(g2.seed, g.seed);
  // same seed + same regions => identical placement regardless of scale
  const GeoModel a(g, 128);
  const GeoModel b(g2, 128);
  for (std::uint32_t n = 0; n < 128; ++n)
    EXPECT_EQ(a.region_of(n), b.region_of(n));
}

TEST(GeoPropertyTest, ScaledGeoScalesScaleSimLookaheadFloor) {
  // the epoch bound is (min cross-shard geo one-way RTT) + relay_delay, so
  // scaling every RTT class by k must scale exactly the geo part of the
  // lookahead — a seeded sweep over internet() profiles
  for (const std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    sim::ScaleParams p;
    p.nodes = 96;
    p.topology.degree = 6;
    p.geo = GeoParams::internet();
    p.geo.enabled = true;
    p.geo.seed = seed;
    p.num_shards = 4;
    p.seed = seed;
    const double base = sim::ScaleSim(p).lookahead() - p.relay_delay;
    ASSERT_GT(base, 0.0);
    for (const double k : {0.25, 2.0, 10.0}) {
      sim::ScaleParams scaled = p;
      scaled.geo = p.geo.scaled(k);
      scaled.geo.enabled = true;
      const double got = sim::ScaleSim(scaled).lookahead();
      EXPECT_NEAR(got, base * k + p.relay_delay, 1e-12)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(GeoPropertyTest, ValidationNamesOffendingField) {
  GeoParams g;
  g.enabled = true;
  expect_invalid("regions", [&] { g.validate(); });  // empty region list

  g.regions = {{"a", 1.0}, {"b", 1.0}};
  g.rtt = {{0.01, 0.09}, {0.09, 0.01}};
  ASSERT_NO_THROW(g.validate());

  g.regions[1].weight = -0.5;
  expect_invalid("weight", [&] { g.validate(); });
  g.regions[0].weight = 0.0;
  g.regions[1].weight = 0.0;
  expect_invalid("weight", [&] { g.validate(); });
  g.regions[0].weight = 1.0;
  g.regions[1].weight = 0.0;  // one empty region is fine
  ASSERT_NO_THROW(g.validate());
  g.regions[1].weight = 1.0;

  g.rtt = {{0.01, 0.09}};  // not regions x regions
  expect_invalid("rtt", [&] { g.validate(); });
  g.rtt = {{0.01, 0.09}, {0.08, 0.01}};  // asymmetric
  expect_invalid("rtt", [&] { g.validate(); });
  g.rtt = {{0.01, -0.09}, {-0.09, 0.01}};  // negative RTT
  expect_invalid("rtt", [&] { g.validate(); });
  g.rtt = {{0.0, 0.09}, {0.09, 0.0}};  // zero RTT (co-located) is valid
  ASSERT_NO_THROW(g.validate());

  g.jitter_scale = -0.01;
  expect_invalid("jitter_scale", [&] { g.validate(); });
  g.jitter_scale = 0.0;
  g.jitter_sigma = -1.0;
  expect_invalid("jitter_sigma", [&] { g.validate(); });
  g.jitter_sigma = 0.0;
  ASSERT_NO_THROW(g.validate());
}

TEST(GeoPropertyTest, ChaosParamsValidateCoversTopologyAndGeo) {
  sim::ChaosParams chaos;
  chaos.scenario.topology.enabled = true;
  chaos.scenario.topology.degree = 100;  // > nodes-1 for the default 20
  expect_invalid("degree", [&] { chaos.validate(); });
  chaos.scenario.topology.degree = 6;
  chaos.scenario.geo.enabled = true;  // empty region list
  expect_invalid("regions", [&] { chaos.validate(); });
  chaos.scenario.geo = GeoParams::internet();
  chaos.scenario.geo.enabled = true;
  ASSERT_NO_THROW(chaos.validate());
}

TEST(GeoPropertyTest, ScaleParamsValidateNamesOffendingField) {
  sim::ScaleParams p;
  ASSERT_NO_THROW(p.validate());
  p.nodes = 1;
  expect_invalid("nodes", [&] { p.validate(); });
  p.nodes = 100;
  p.miners = 0;
  expect_invalid("miners", [&] { p.validate(); });
  p.miners = 200;  // more miners than nodes
  expect_invalid("miners", [&] { p.validate(); });
  p.miners = 8;
  p.block_interval = 0.0;
  expect_invalid("block_interval", [&] { p.validate(); });
  p.block_interval = 13.0;
  p.duration = -1.0;
  expect_invalid("duration", [&] { p.validate(); });
  p.duration = 600.0;
  p.cut_start = 10.0;
  p.cut_fraction = 1.5;
  expect_invalid("cut_fraction", [&] { p.validate(); });
  p.cut_fraction = 0.5;
  p.cut_duration = -5.0;
  expect_invalid("cut_duration", [&] { p.validate(); });
  p.cut_duration = 60.0;
  p.uniform_base = -0.1;
  expect_invalid("uniform_base", [&] { p.validate(); });
  p.uniform_base = 0.05;
  p.relay_delay = -0.1;
  expect_invalid("relay_delay", [&] { p.validate(); });
  p.relay_delay = 0.0;  // zero relay delay is a valid boundary
  ASSERT_NO_THROW(p.validate());
}

}  // namespace
}  // namespace forksim
