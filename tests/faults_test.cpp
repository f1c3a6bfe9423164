// FaultInjector unit tests: link cuts, per-link latency overrides,
// duplication (one shared payload per copy), reordering, extra loss, drop filters, scheduled cut
// windows, and the determinism of sampled churn schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "crypto/keccak.hpp"
#include "p2p/faults.hpp"
#include "p2p/messages.hpp"
#include "p2p/simnet.hpp"

namespace forksim::p2p {
namespace {

NodeId nid(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("faults-test"));
  auto be = be_fixed64(n);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

/// Two attached endpoints over a zero-jitter, zero-loss network so every
/// observed drop/delay is attributable to the injector alone.
struct Probe {
  Probe()
      : network(loop, Rng(1), LatencyModel{0.01, 0.0, 0.0, 0.0}),
        faults(loop, Rng(7)) {
    faults.attach_to(network);
    attach(a);
    attach(b);
  }

  void attach(const NodeId& id) {
    network.attach(id, [this, id](const NodeId& from, const Bytes&) {
      received.push_back({id, from, loop.now()});
    });
  }

  void send(const NodeId& from, const NodeId& to) {
    network.send(from, to, Bytes{0x42});
  }

  struct Delivery {
    NodeId at;
    NodeId from;
    SimTime when;
  };

  std::size_t count_at(const NodeId& id) const {
    std::size_t n = 0;
    for (const auto& d : received)
      if (d.at == id) ++n;
    return n;
  }

  EventLoop loop;
  Network network;
  FaultInjector faults;
  NodeId a = nid(1);
  NodeId b = nid(2);
  std::vector<Delivery> received;
};

TEST(FaultInjectorTest, LinkCutBlocksOneDirectionAndHealRestores) {
  Probe p;
  p.faults.cut_link(p.a, p.b);
  EXPECT_TRUE(p.faults.link_is_cut(p.a, p.b));
  EXPECT_FALSE(p.faults.link_is_cut(p.b, p.a));

  p.send(p.a, p.b);  // cut direction: dropped
  p.send(p.b, p.a);  // reverse direction: unaffected
  p.loop.run();
  EXPECT_EQ(p.count_at(p.b), 0u);
  EXPECT_EQ(p.count_at(p.a), 1u);
  EXPECT_EQ(p.faults.counters().dropped_by_cut, 1u);

  p.faults.heal_link(p.a, p.b);
  p.send(p.a, p.b);
  p.loop.run();
  EXPECT_EQ(p.count_at(p.b), 1u);
}

TEST(FaultInjectorTest, BidiCutBlocksBothDirections) {
  Probe p;
  p.faults.cut_link_bidi(p.a, p.b);
  p.send(p.a, p.b);
  p.send(p.b, p.a);
  p.loop.run();
  EXPECT_TRUE(p.received.empty());
  EXPECT_EQ(p.faults.counters().dropped_by_cut, 2u);
  p.faults.heal_link_bidi(p.a, p.b);
  EXPECT_FALSE(p.faults.link_is_cut(p.a, p.b));
  EXPECT_FALSE(p.faults.link_is_cut(p.b, p.a));
}

TEST(FaultInjectorTest, ScheduledCutOpensAndClosesOnTime) {
  Probe p;
  p.faults.schedule_link_cut(p.a, p.b, /*start_in=*/10.0, /*duration=*/5.0);

  // before the window, inside it, and after it
  p.loop.schedule(1.0, [&] { p.send(p.a, p.b); });
  p.loop.schedule(12.0, [&] { p.send(p.a, p.b); });
  p.loop.schedule(20.0, [&] { p.send(p.a, p.b); });
  p.loop.run();

  EXPECT_EQ(p.count_at(p.b), 2u);
  EXPECT_EQ(p.faults.counters().dropped_by_cut, 1u);
}

TEST(FaultInjectorTest, PerLinkLatencyOverrideAppliesOnlyToThatLink) {
  Probe p;
  p.faults.set_link_latency(p.a, p.b, LatencyModel{2.0, 0.0, 0.0, 0.0});

  p.loop.schedule(0.0, [&] {
    p.send(p.a, p.b);  // overridden: 2s
    p.send(p.b, p.a);  // default model: 0.01s
  });
  p.loop.run();

  ASSERT_EQ(p.received.size(), 2u);
  for (const auto& d : p.received) {
    if (d.at == p.b)
      EXPECT_DOUBLE_EQ(d.when, 2.0);
    else
      EXPECT_DOUBLE_EQ(d.when, 0.01);
  }
  EXPECT_EQ(p.faults.counters().link_overrides, 1u);

  p.faults.clear_link_latency(p.a, p.b);
  p.received.clear();
  const SimTime sent_at = p.loop.now();
  p.send(p.a, p.b);
  p.loop.run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_NEAR(p.received[0].when - sent_at, 0.01, 1e-9);
}

TEST(FaultInjectorTest, DuplicateDeliversTwice) {
  Probe p;
  p.faults.set_duplicate_prob(1.0);
  p.send(p.a, p.b);
  p.loop.run();
  EXPECT_EQ(p.count_at(p.b), 2u);
  EXPECT_EQ(p.faults.counters().duplicated, 1u);
}

TEST(FaultInjectorTest, ReorderDelaysDelivery) {
  Probe p;
  p.faults.set_reorder_prob(1.0);
  p.faults.set_reorder_delay(3.0);
  p.send(p.a, p.b);
  p.loop.run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_DOUBLE_EQ(p.received[0].when, 3.01);
  EXPECT_EQ(p.faults.counters().reordered, 1u);
}

TEST(FaultInjectorTest, ExtraLossOneDropsEverything) {
  Probe p;
  p.faults.set_extra_loss(1.0);
  for (int i = 0; i < 20; ++i) p.send(p.a, p.b);
  p.loop.run();
  EXPECT_TRUE(p.received.empty());
  EXPECT_EQ(p.faults.counters().dropped_by_loss, 20u);
}

TEST(FaultInjectorTest, DropFilterSeesWireBytesAndEndpoints) {
  Probe p;
  int inspected = 0;
  p.faults.set_drop_filter(
      [&](const NodeId& from, const NodeId& to, const Bytes& wire) {
        ++inspected;
        // drop only a->b messages carrying the magic byte
        return from == p.a && to == p.b && !wire.empty() && wire[0] == 0x42;
      });
  p.send(p.a, p.b);  // dropped (0x42 payload)
  p.send(p.b, p.a);  // passes
  p.network.send(p.a, p.b, Bytes{0x00});  // passes (wrong byte)
  p.loop.run();
  EXPECT_EQ(inspected, 3);
  EXPECT_EQ(p.count_at(p.b), 1u);
  EXPECT_EQ(p.count_at(p.a), 1u);
  EXPECT_EQ(p.faults.counters().dropped_by_filter, 1u);
}

// Duplication copies the reference, not the message: both copies of a
// duplicated send deliver the one payload, and the drop filter sees its
// bytes once per send.
TEST(FaultInjectorTest, DuplicatedCopiesShareOnePayload) {
  Probe p;
  p.faults.set_duplicate_prob(1.0);
  std::vector<const Bytes*> filtered;
  p.faults.set_drop_filter(
      [&](const NodeId&, const NodeId&, const Bytes& wire) {
        filtered.push_back(&wire);
        return false;
      });
  std::vector<const Payload*> delivered;
  p.network.attach_payload(p.b, [&](const NodeId&, const Payload& payload) {
    delivered.push_back(&payload);
  });
  const PayloadPtr payload = make_payload(Bytes{0xc0});
  p.network.send(p.a, p.b, payload);
  p.network.send(p.a, p.b, payload);
  p.loop.run();
  ASSERT_EQ(filtered.size(), 2u);
  for (const Bytes* wire : filtered) EXPECT_EQ(wire, &payload->wire());
  ASSERT_EQ(delivered.size(), 4u);
  for (const Payload* copy : delivered) EXPECT_EQ(copy, payload.get());
  EXPECT_EQ(p.faults.counters().duplicated, 2u);
  EXPECT_EQ(p.network.messages_sent(), 2u);
  EXPECT_EQ(p.network.bytes_sent(), 2 * payload->size());
  EXPECT_EQ(p.network.messages_delivered(), 4u);
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(FaultInjectorTest, DetachRestoresNormalDelivery) {
  Probe p;
  p.faults.set_extra_loss(1.0);
  FaultInjector::detach_from(p.network);
  p.send(p.a, p.b);
  p.loop.run();
  EXPECT_EQ(p.count_at(p.b), 1u);
  EXPECT_EQ(p.faults.counters().dropped_by_loss, 0u);
}

// ----------------------------------------------------------------- churn

TEST(ChurnScheduleTest, SampleIsDeterministicForSameSeed) {
  const std::vector<std::size_t> candidates = {3, 4, 5, 6, 7, 8, 9};
  Rng r1(77), r2(77);
  const ChurnSchedule s1 =
      ChurnSchedule::sample(r1, candidates, 4, 100.0, 500.0, 120.0, 0.8);
  const ChurnSchedule s2 =
      ChurnSchedule::sample(r2, candidates, 4, 100.0, 500.0, 120.0, 0.8);
  ASSERT_EQ(s1.events().size(), s2.events().size());
  for (std::size_t i = 0; i < s1.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(s1.events()[i].at, s2.events()[i].at);
    EXPECT_EQ(s1.events()[i].node_index, s2.events()[i].node_index);
    EXPECT_EQ(s1.events()[i].up, s2.events()[i].up);
  }
}

TEST(ChurnScheduleTest, SampleRespectsWindowAndCount) {
  const std::vector<std::size_t> candidates = {1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(5);
  const ChurnSchedule s =
      ChurnSchedule::sample(rng, candidates, 5, 200.0, 600.0, 60.0, 1.0);
  EXPECT_EQ(s.crash_count(), 5u);
  EXPECT_EQ(s.restart_count(), 5u);  // restart_prob = 1: everyone returns

  std::vector<std::size_t> crashed;
  double last = 0.0;
  for (const ChurnEvent& ev : s.events()) {
    EXPECT_GE(ev.at, last);  // sorted
    last = ev.at;
    if (!ev.up) {
      EXPECT_GE(ev.at, 200.0);
      EXPECT_LT(ev.at, 600.0);
      crashed.push_back(ev.node_index);
      EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                            ev.node_index) != candidates.end());
    }
  }
  // distinct nodes
  std::sort(crashed.begin(), crashed.end());
  EXPECT_TRUE(std::adjacent_find(crashed.begin(), crashed.end()) ==
              crashed.end());
}

TEST(ChurnScheduleTest, RestartAlwaysFollowsItsCrash) {
  Rng rng(11);
  const ChurnSchedule s = ChurnSchedule::sample(
      rng, {10, 11, 12, 13}, 4, 50.0, 100.0, 30.0, 1.0);
  for (const ChurnEvent& ev : s.events()) {
    if (!ev.up) continue;
    // the matching crash must exist and precede the restart
    bool found = false;
    for (const ChurnEvent& crash : s.events())
      if (!crash.up && crash.node_index == ev.node_index)
        found = crash.at < ev.at;
    EXPECT_TRUE(found) << "restart without earlier crash for node "
                       << ev.node_index;
  }
}

TEST(ChurnScheduleTest, CountClampedToCandidates) {
  Rng rng(3);
  const ChurnSchedule s =
      ChurnSchedule::sample(rng, {1, 2}, 10, 0.0, 100.0, 10.0, 0.0);
  EXPECT_EQ(s.crash_count(), 2u);
  EXPECT_EQ(s.restart_count(), 0u);  // restart_prob = 0: permanent exodus
}

}  // namespace
}  // namespace forksim::p2p
