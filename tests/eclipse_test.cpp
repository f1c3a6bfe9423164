// Eclipse resistance: sybil swarms from sim/adversary.* attacking one
// victim's routing table and connection slots, and the layered defenses —
// kademlia invariants (property-tested), discovery hardening
// (ping-before-evict, diversity caps, feelers, self/zero rejection), the
// inbound slot split, persisted anchor peers, the isolation detector, and
// the end-to-end containment run. The containment pair is the acceptance
// criterion in miniature: with defenses off a budget-32 swarm must own the
// victim's entire peer set and stall its head; with defenses on, same seed
// and budget, the victim must ride out the attack (or detect and recover)
// and the network must converge with zero honest-on-honest bans.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "db/blockstore.hpp"
#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "sim/chaos.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::sim {
namespace {

using p2p::DiscoveryDefense;
using p2p::DiscoveryService;
using p2p::LatencyModel;
using p2p::Message;
using p2p::NodeId;
using p2p::RoutingTable;

NodeId test_id(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("eclipse-test"));
  const auto be = be_fixed64(n);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

// ------------------------------------------------- kademlia properties

TEST(KademliaPropertyTest, XorDistanceMetricInvariants) {
  Rng rng(0xd15c0);
  for (int i = 0; i < 1000; ++i) {
    const NodeId a = test_id(rng.next());
    const NodeId b = test_id(rng.next());
    const NodeId c = test_id(rng.next());
    // identity and symmetry
    EXPECT_EQ(p2p::xor_distance(a, a), Hash256{});
    EXPECT_EQ(p2p::xor_distance(a, b), p2p::xor_distance(b, a));
    EXPECT_EQ(p2p::distance_bucket(a, a), -1);
    EXPECT_EQ(p2p::distance_bucket(a, b), p2p::distance_bucket(b, a));
    // closer_to is a strict weak order consistent with the XOR metric
    EXPECT_FALSE(p2p::closer_to(c, a, a));
    if (a != b) {
      EXPECT_NE(p2p::closer_to(c, a, b), p2p::closer_to(c, b, a));
    }
    // unidirectional triangle property of XOR: d(a,c) <= d(a,b) ^ d(b,c)
    // degenerates to exact equality (XOR is its own inverse)
    const Hash256 ab = p2p::xor_distance(a, b);
    const Hash256 bc = p2p::xor_distance(b, c);
    Hash256 composed;
    for (std::size_t k = 0; k < 32; ++k)
      composed.data()[k] = ab.data()[k] ^ bc.data()[k];
    EXPECT_EQ(p2p::xor_distance(a, c), composed);
  }
}

TEST(KademliaPropertyTest, SmallerBucketIndexMeansCloser) {
  Rng rng(0xbccc);
  const NodeId target = test_id(1);
  for (int i = 0; i < 1000; ++i) {
    const NodeId a = test_id(rng.next());
    const NodeId b = test_id(rng.next());
    const int ba = p2p::distance_bucket(target, a);
    const int bb = p2p::distance_bucket(target, b);
    if (ba < bb) {
      EXPECT_TRUE(p2p::closer_to(target, a, b));
    }
    if (ba > bb) {
      EXPECT_TRUE(p2p::closer_to(target, b, a));
    }
  }
}

TEST(KademliaPropertyTest, LruEvictionEdgesAtExactlyBucketSize) {
  const NodeId self = test_id(0);
  RoutingTable table(self);
  // craft kBucketSize + 1 ids landing in one bucket of `self`'s table
  std::vector<NodeId> members;
  for (std::uint64_t n = 1; members.size() <= RoutingTable::kBucketSize;
       ++n) {
    const NodeId id = test_id(n);
    if (p2p::distance_bucket(self, id) == 255) members.push_back(id);
  }
  for (std::size_t i = 0; i < RoutingTable::kBucketSize; ++i)
    EXPECT_TRUE(table.observe(members[i])) << i;
  // at exactly kBucketSize: full — the next fresh id bounces, the
  // least-recently-seen entry (first observed) is the eviction candidate
  EXPECT_FALSE(table.observe(members[RoutingTable::kBucketSize]));
  EXPECT_FALSE(table.contains(members[RoutingTable::kBucketSize]));
  ASSERT_TRUE(table.eviction_candidate(members.back()).has_value());
  EXPECT_EQ(*table.eviction_candidate(members.back()), members[0]);
  // refreshing the LRS entry rotates the candidate to the next-oldest
  EXPECT_TRUE(table.observe(members[0]));
  EXPECT_EQ(*table.eviction_candidate(members.back()), members[1]);
  // bucket_entries reports LRS-first and exactly the bucket population
  const std::vector<NodeId> entries = table.bucket_entries(members.back());
  ASSERT_EQ(entries.size(), RoutingTable::kBucketSize);
  EXPECT_EQ(entries.front(), members[1]);
  EXPECT_EQ(entries.back(), members[0]);
}

TEST(KademliaPropertyTest, ClosestIsSortedPrefixUnderSeededDraws) {
  Rng rng(0xc105e57);
  const NodeId self = test_id(0);
  RoutingTable table(self);
  std::vector<NodeId> inserted;
  for (int i = 0; i < 1000; ++i) {
    const NodeId id = test_id(rng.next());
    if (table.observe(id)) inserted.push_back(id);
    const NodeId target = test_id(rng.next());
    const std::vector<NodeId> got = table.closest(target, 8);
    // result is sorted closest-first...
    for (std::size_t k = 1; k < got.size(); ++k)
      ASSERT_FALSE(p2p::closer_to(target, got[k], got[k - 1]));
    // ...and no table entry outside the result beats the worst entry in it
    if (got.size() == 8) {
      for (const NodeId& known : table.all()) {
        if (std::find(got.begin(), got.end(), known) == got.end()) {
          ASSERT_FALSE(p2p::closer_to(target, known, got.back()));
        }
      }
    }
  }
  ASSERT_GT(inserted.size(), 100u);
}

TEST(KademliaPropertyTest, SameObservationSequenceRegeneratesTableExactly) {
  Rng rng(0x5eed);
  std::vector<NodeId> sequence;
  for (int i = 0; i < 500; ++i) sequence.push_back(test_id(rng.next() % 300));
  RoutingTable a(test_id(0)), b(test_id(0));
  for (const NodeId& id : sequence) a.observe(id);
  for (const NodeId& id : sequence) b.observe(id);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.all(), b.all());  // byte-identical contents AND order
  // clear() really forgets everything
  a.clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.all().empty());
}

// ------------------------------------------------- discovery hardening

struct DiscoveryHarness {
  explicit DiscoveryHarness(std::uint64_t self_n = 0)
      : self(test_id(self_n)),
        svc(self, Rng(7), [this](const NodeId& to, const Message& m) {
          sent.push_back({to, m});
        }) {}

  std::vector<std::pair<NodeId, Message>> sent;
  NodeId self;
  DiscoveryService svc;
};

TEST(DiscoveryHardeningTest, HandleRejectsSelfEchoAndZeroId) {
  DiscoveryHarness h;
  // a poisoned Neighbors reply could teach a node its own id or the zero
  // id; handle() must refuse both outright
  EXPECT_FALSE(h.svc.handle(h.self, Message{p2p::Ping{}}));
  EXPECT_FALSE(h.svc.handle(NodeId{}, Message{p2p::Ping{}}));
  EXPECT_FALSE(h.svc.handle(h.self, Message{p2p::FindNode{test_id(9)}}));
  EXPECT_EQ(h.svc.invalid_rejects(), 3u);
  EXPECT_EQ(h.svc.known_nodes(), 0u);
  EXPECT_TRUE(h.sent.empty());  // no reply to an invalid sender
  // bootstrap lists containing self or zero are scrubbed the same way
  h.svc.bootstrap({h.self, NodeId{}, test_id(2)});
  EXPECT_FALSE(h.svc.table().contains(h.self));
  EXPECT_EQ(h.svc.known_nodes(), 1u);
  // a legitimate sender still gets service
  EXPECT_TRUE(h.svc.handle(test_id(3), Message{p2p::Ping{}}));
  EXPECT_TRUE(h.svc.table().contains(test_id(3)));
}

TEST(DiscoveryHardeningTest, PingBeforeEvictChallengesThenEvictsSilent) {
  DiscoveryHarness h;
  DiscoveryDefense defense;
  defense.enabled = true;
  defense.pending_ticks = 2;
  defense.bucket_group_cap = 0;  // isolate the eviction machinery
  defense.table_group_cap = 0;
  h.svc.set_defense(defense);

  // fill one bucket
  std::vector<NodeId> members;
  for (std::uint64_t n = 1; members.size() <= RoutingTable::kBucketSize + 1;
       ++n)
    if (p2p::distance_bucket(h.self, test_id(n)) == 255)
      members.push_back(test_id(n));
  for (std::size_t i = 0; i < RoutingTable::kBucketSize; ++i)
    h.svc.handle(members[i], Message{p2p::Pong{}});
  ASSERT_EQ(h.svc.known_nodes(), RoutingTable::kBucketSize);

  // a fresh id on the full bucket challenges the LRS incumbent with a Ping
  h.sent.clear();
  h.svc.handle(members[RoutingTable::kBucketSize], Message{p2p::Pong{}});
  EXPECT_EQ(h.svc.evictions_challenged(), 1u);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, members[0]);
  EXPECT_TRUE(std::holds_alternative<p2p::Ping>(h.sent[0].second));

  // incumbent answers: it survives, the challenger is dropped
  h.svc.handle(members[0], Message{p2p::Pong{}});
  h.svc.maintain();
  h.svc.maintain();
  h.svc.maintain();
  EXPECT_EQ(h.svc.evictions_completed(), 0u);
  EXPECT_TRUE(h.svc.table().contains(members[0]));
  EXPECT_FALSE(h.svc.table().contains(members[RoutingTable::kBucketSize]));

  // challenge again via the NEXT fresh id; this time the incumbent (now
  // members[1], the new LRS) stays silent and is evicted after
  // pending_ticks maintains, admitting the challenger
  h.svc.handle(members[RoutingTable::kBucketSize + 1], Message{p2p::Pong{}});
  EXPECT_EQ(h.svc.evictions_challenged(), 2u);
  h.svc.maintain();
  h.svc.maintain();
  h.svc.maintain();
  EXPECT_EQ(h.svc.evictions_completed(), 1u);
  EXPECT_FALSE(h.svc.table().contains(members[1]));
  EXPECT_TRUE(h.svc.table().contains(members[RoutingTable::kBucketSize + 1]));
}

TEST(DiscoveryHardeningTest, DiversityCapsBoundPerGroupTablePresence) {
  DiscoveryHarness h;
  DiscoveryDefense defense;
  defense.enabled = true;
  defense.table_group_cap = 6;
  defense.bucket_group_cap = 2;
  h.svc.set_defense(defense);
  // every id the attacker controls shares one group; honest ids get
  // distinct groups (the chaos runner's region oracle in miniature)
  std::set<NodeId> attacker_ids;
  h.svc.set_group_fn([&](const NodeId& id) -> std::uint32_t {
    if (attacker_ids.contains(id)) return 7;
    std::uint32_t g = 1000;
    for (int i = 0; i < 4; ++i) g = g * 31 + id.data()[i];
    return g;
  });

  // 32 attacker ids spread over all buckets: at most table_group_cap land
  for (std::uint64_t n = 0; n < 32; ++n)
    attacker_ids.insert(test_id(10'000 + n));
  for (const NodeId& id : attacker_ids) h.svc.handle(id, Message{p2p::Pong{}});
  std::size_t admitted = 0;
  for (const NodeId& id : attacker_ids)
    if (h.svc.table().contains(id)) ++admitted;
  EXPECT_LE(admitted, 6u);
  EXPECT_GE(h.svc.diversity_rejects(), 32u - 6u);
  // per-bucket: no bucket holds more than bucket_group_cap attacker ids
  for (const NodeId& id : attacker_ids) {
    std::size_t in_bucket = 0;
    for (const NodeId& e : h.svc.table().bucket_entries(id))
      if (attacker_ids.contains(e)) ++in_bucket;
    EXPECT_LE(in_bucket, 2u);
  }
  // honest ids (distinct groups) are unaffected
  for (std::uint64_t n = 1; n <= 20; ++n)
    h.svc.handle(test_id(n), Message{p2p::Pong{}});
  std::size_t honest = 0;
  for (std::uint64_t n = 1; n <= 20; ++n)
    if (h.svc.table().contains(test_id(n))) ++honest;
  EXPECT_EQ(honest, 20u);
}

TEST(DiscoveryHardeningTest, FeelerDropsSilentEntryAndSparesResponsive) {
  DiscoveryHarness h;
  DiscoveryDefense defense;
  defense.enabled = true;
  defense.pending_ticks = 2;
  h.svc.set_defense(defense);
  h.svc.handle(test_id(1), Message{p2p::Pong{}});
  h.svc.handle(test_id(2), Message{p2p::Pong{}});

  h.sent.clear();
  h.svc.send_feeler(test_id(1));
  h.svc.send_feeler(test_id(2));
  EXPECT_EQ(h.svc.feelers_sent(), 2u);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<p2p::Ping>(h.sent[0].second));

  // node 1 answers, node 2 stays silent
  h.svc.handle(test_id(1), Message{p2p::Pong{}});
  h.svc.maintain();
  h.svc.maintain();
  h.svc.maintain();
  EXPECT_TRUE(h.svc.table().contains(test_id(1)));
  EXPECT_FALSE(h.svc.table().contains(test_id(2)));
  EXPECT_EQ(h.svc.feeler_drops(), 1u);
}

TEST(DiscoveryHardeningTest, FlushForgetsTableAndPendingState) {
  DiscoveryHarness h;
  DiscoveryDefense defense;
  defense.enabled = true;
  h.svc.set_defense(defense);
  for (std::uint64_t n = 1; n <= 10; ++n)
    h.svc.handle(test_id(n), Message{p2p::Pong{}});
  h.svc.send_feeler(test_id(1));
  ASSERT_GT(h.svc.known_nodes(), 0u);
  h.svc.flush();
  EXPECT_EQ(h.svc.known_nodes(), 0u);
  // nothing pending survives the flush: maintains drop nobody
  h.svc.maintain();
  h.svc.maintain();
  h.svc.maintain();
  EXPECT_EQ(h.svc.feeler_drops(), 0u);
}

// ------------------------------------------------------ anchors on disk

TEST(AnchorPersistenceTest, RoundTripAndCorruptionRejection) {
  db::SimDisk disk{Rng(1), db::StorageFaults{}};
  db::BlockStore store(disk, "victim");
  EXPECT_TRUE(store.load_anchors().empty());  // missing file: empty, no throw

  const std::vector<Hash256> anchors = {test_id(1), test_id(2), test_id(3)};
  store.save_anchors(anchors);
  EXPECT_EQ(store.load_anchors(), anchors);

  // rewrite-in-place: a smaller set replaces, never appends
  const std::vector<Hash256> smaller = {test_id(9)};
  store.save_anchors(smaller);
  EXPECT_EQ(store.load_anchors(), smaller);

  // flip one payload byte: the checksum catches it and the record is
  // dropped whole — a poisoned anchor file must never feed the dialer
  Bytes image = disk.read(store.anchors_file());
  image[4] ^= 0x40;
  disk.truncate(store.anchors_file(), 0);
  disk.append(store.anchors_file(), image);
  EXPECT_TRUE(store.load_anchors().empty());

  // truncated record: same verdict
  store.save_anchors(anchors);
  disk.truncate(store.anchors_file(), 12);
  EXPECT_TRUE(store.load_anchors().empty());
}

// ------------------------------------------------------- sybil minting

TEST(SybilMintingTest, DeterministicAndBucketTargeted) {
  const NodeId victim = test_id(42);
  for (std::uint64_t k = 0; k < 24; ++k) {
    const NodeId sybil = EclipseAdversary::mint_sybil(victim, k);
    // lands exactly in the ground target bucket...
    EXPECT_EQ(p2p::distance_bucket(victim, sybil),
              240 + static_cast<int>(k % 8))
        << k;
    // ...is reproducible (pure keccak grind, no ambient randomness)...
    EXPECT_EQ(sybil, EclipseAdversary::mint_sybil(victim, k));
    // ...and is closer to the victim than a random honest id essentially
    // always (honest ids sit in bucket ~255)
    EXPECT_TRUE(p2p::closer_to(victim, sybil, test_id(k + 1000)));
  }
  // the swarm constructor mints the same set, indexable via is_sybil
  p2p::EventLoop loop;
  p2p::Network net(loop, Rng(1));
  evm::EvmExecutor executor;
  FullNode host(net, test_id(7), core::ChainConfig::mainnet_pre_fork(),
                executor, core::GenesisAlloc{}, Rng(5), NodeOptions{});
  EclipseOptions opt;
  opt.victim = victim;
  opt.sybil_budget = 16;
  EclipseAdversary swarm(host, opt);
  EXPECT_EQ(swarm.sybils().size(), 16u);
  for (std::uint64_t k = 0; k < 16; ++k)
    EXPECT_TRUE(swarm.is_sybil(EclipseAdversary::mint_sybil(victim, k)));
  EXPECT_FALSE(swarm.is_sybil(test_id(1)));
}

// ----------------------------------------- isolation detector mini-net

// A victim whose whole (defended but cap-disabled) peer set is one sybil
// group and whose head has gone stale must raise exactly one suspicion,
// recover by dropping every session and flushing the table, and ban nobody.
TEST(IsolationDetectorTest, StaleHeadPlusHomogeneousPeersTriggersRecovery) {
  p2p::EventLoop loop;
  p2p::Network net(loop, Rng(3), LatencyModel{0.01, 0.0, 0.0, 0.0});
  evm::EvmExecutor executor;

  NodeOptions opts;
  opts.eclipse.enabled = true;
  opts.eclipse.stale_after = 60.0;
  opts.eclipse.feeler_chance = 0.0;  // keep the test's message flow exact
  // zero the caps: this test wants the eclipse to FORM so the detector
  // (the last line of defense) is what gets exercised
  opts.eclipse.max_inbound = 0;
  opts.eclipse.inbound_group_cap = 0;
  opts.eclipse.bucket_group_cap = 0;
  opts.eclipse.table_group_cap = 0;
  opts.eclipse.dial_group_cap = 0;
  FullNode victim(net, test_id(1), core::ChainConfig::mainnet_pre_fork(),
                  executor, core::GenesisAlloc{}, Rng(9), opts);
  victim.set_region_fn([](const NodeId& id) -> std::uint32_t {
    return id == test_id(1) ? 1u : 7u;  // every peer: one group
  });
  obs::Registry reg;
  victim.attach_telemetry(reg);
  victim.start({});

  EclipseOptions eopt;
  eopt.victim = test_id(1);
  eopt.sybil_budget = 8;
  eopt.interval = 2.0;
  EclipseAdversary swarm(victim, eopt);  // victim hosts its own attacker's
                                         // transports; fine for a unit test
  swarm.start();

  loop.run_until(30.0);
  // the swarm owns the victim's peer set and its table
  EXPECT_GE(victim.peers().active_count(), 2u);
  EXPECT_GE(victim.peer_homogeneity(), 0.99);
  EXPECT_EQ(victim.counters().eclipse_suspicions, 0u);  // head not stale yet

  loop.run_until(120.0);  // stale_after elapses with homogeneous peers
  // one-shot, not one per tick
  EXPECT_EQ(victim.counters().eclipse_suspicions, 1u);
  EXPECT_EQ(victim.counters().eclipse_recoveries, 1u);
  EXPECT_EQ(victim.peers_banned(), 0u);  // recovery drops, never bans
  EXPECT_EQ(reg.counter_value("node.eclipse.suspicions"), 1u);
  EXPECT_EQ(reg.counter_value("node.eclipse.recoveries"), 1u);
}

// --------------------------------------------- end-to-end containment

ChaosParams eclipse_params(bool defended) {
  ChaosParams cp;
  cp.scenario.nodes_eth = 8;
  cp.scenario.nodes_etc = 3;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 6;
  cp.scenario.seed = 4242;
  cp.extra_loss = 0.0;  // the eclipse is the only disturbance
  cp.duplicate_prob = 0.0;
  cp.reorder_prob = 0.0;
  cp.cut_start = -1.0;
  cp.churn_fraction = 0.0;
  cp.mining_duration = 300.0;
  cp.settle_deadline = 300.0;
  cp.eclipse.budget = 32;  // > max_peers: the swarm can fill every slot
  cp.eclipse.victims = 1;
  cp.eclipse.defenses = defended;
  cp.eclipse.start = 30.0;
  cp.eclipse.interval = 2.0;
  return cp;
}

TEST(EclipseContainmentTest, UndefendedVictimIsFullyEclipsedAndStalls) {
  ChaosRunner runner(eclipse_params(/*defended=*/false));
  const ChaosReport report = runner.run();

  ASSERT_EQ(runner.eclipse_victims().size(), 1u);
  const std::size_t victim_idx = runner.eclipse_victims()[0];
  const FullNode& victim = runner.scenario().node(victim_idx);

  // the attack ran
  EXPECT_EQ(report.eclipse_victims, 1u);
  EXPECT_EQ(report.eclipse_sybils, 32u);
  EXPECT_GT(report.eclipse_status_floods, 0u);
  EXPECT_GT(report.eclipse_table_floods, 0u);

  // 100% attacker peer set: every active peer of the victim is a sybil
  ASSERT_TRUE(victim.running());
  const std::vector<NodeId> peers = victim.peers().active_peers();
  ASSERT_FALSE(peers.empty());
  for (const NodeId& p : peers) EXPECT_TRUE(runner.is_sybil_id(p));
  EXPECT_EQ(report.victims_eclipsed_at_end, 1u);
  ASSERT_EQ(report.isolation_seconds.size(), 1u);
  EXPECT_GT(report.isolation_seconds[0], 100.0);

  // starved: the victim's head is stale while its side mined on
  EXPECT_LT(victim.chain().height() + 3, report.height_eth);
  // and the victim's sybil-only requests were withheld, never served
  EXPECT_FALSE(report.converged);
  // no defense, no detector: nothing fired
  EXPECT_EQ(report.eclipse_suspicions, 0u);
}

TEST(EclipseContainmentTest, DefendedVictimSurvivesSameSeedAndBudget) {
  ChaosRunner runner(eclipse_params(/*defended=*/true));
  const ChaosReport report = runner.run();

  ASSERT_EQ(runner.eclipse_victims().size(), 1u);
  const std::size_t victim_idx = runner.eclipse_victims()[0];
  const FullNode& victim = runner.scenario().node(victim_idx);

  // same swarm, same seed — but the defense stack holds: the victim ends
  // with at least one honest peer and the network converges through the
  // still-running attack (resist), or it detected the eclipse and
  // re-bootstrapped its way back (recover). Either way: not eclipsed.
  EXPECT_EQ(report.victims_eclipsed_at_end, 0u);
  ASSERT_TRUE(victim.running());
  bool has_honest_peer = false;
  for (const NodeId& p : victim.peers().active_peers())
    if (!runner.is_sybil_id(p)) has_honest_peer = true;
  EXPECT_TRUE(has_honest_peer || report.eclipse_recoveries > 0u);
  EXPECT_TRUE(report.converged);
  ASSERT_EQ(report.isolation_seconds.size(), 1u);
  EXPECT_LT(report.isolation_seconds[0],
            report.isolation_seconds[0] + 1.0);  // well-defined
  // zero honest bans: the defenses (and any recovery) never friendly-fire
  EXPECT_EQ(report.honest_ban_events, 0u);
}

TEST(EclipseContainmentTest, EclipseRunsAreDeterministic) {
  // construct-then-run serially: trie/state telemetry deltas are baselined
  // at construction, so interleaving two runners mixes their tallies
  ChaosRunner r1(eclipse_params(true));
  const ChaosReport a = r1.run();
  ChaosRunner r2(eclipse_params(true));
  const ChaosReport b = r2.run();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.eclipse_status_floods, b.eclipse_status_floods);
  EXPECT_EQ(a.isolation_seconds, b.isolation_seconds);
}

TEST(EclipseContainmentTest, EclipseOffLeavesRunsUntouched) {
  // budget 0: the layer must not exist — no victims, no telemetry rows,
  // no report fields, and a bit-identical rerun
  ChaosParams cp = eclipse_params(true);
  cp.eclipse.budget = 0;
  ChaosRunner r1(cp);
  const ChaosReport a = r1.run();
  EXPECT_TRUE(r1.eclipse_victims().empty());
  EXPECT_EQ(a.eclipse_victims, 0u);
  EXPECT_EQ(a.eclipse_sybils, 0u);
  EXPECT_TRUE(a.isolation_seconds.empty());
  for (const auto& [name, value] : a.telemetry.counters)
    EXPECT_FALSE(name.starts_with("adversary.eclipse") ||
                 name.starts_with("node.eclipse"))
        << name;
  ChaosRunner r2(cp);
  EXPECT_EQ(a.fingerprint, r2.run().fingerprint);
}

}  // namespace
}  // namespace forksim::sim
