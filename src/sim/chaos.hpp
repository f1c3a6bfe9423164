// Chaos soak harness: the DAO-fork scenario run under injected network
// faults and node churn, with a convergence check at the end.
//
// The paper's partition severed cleanly on a chaotic network — lossy
// links, a mass node exodus, abrupt miner migration. This harness
// reproduces that adversity deterministically: a FaultInjector adds
// message loss / duplication / reordering and a scheduled network-layer
// bisection cut (independent of the consensus fork), while a seeded
// ChurnSchedule crashes and restarts nodes mid-run. The pass criterion is
// the paper's: after the dust settles, every surviving node on each fork
// side agrees on a single canonical head. The whole run, including every
// fault, replays bit-identically from the scenario seed (the report
// carries a fingerprint to prove it).
#pragma once

#include <memory>

#include "db/blockstore.hpp"
#include "p2p/faults.hpp"
#include "sim/adversary.hpp"
#include "sim/scenario.hpp"

namespace forksim::sim {

struct ChaosParams {
  ScenarioParams scenario;

  // message-level faults
  double extra_loss = 0.10;
  double duplicate_prob = 0.02;
  double reorder_prob = 0.05;
  double reorder_delay = 0.5;

  /// Network-layer partition: a seeded random `partitioned_share` fraction
  /// of the nodes is cut off from the rest for [cut_start, cut_start +
  /// cut_duration). Negative cut_start disables the cut. The default share
  /// of 0.5 reproduces the historical bisection draw for draw (the shuffle
  /// consumes the same rng sequence regardless of the share).
  double cut_start = -1.0;
  double cut_duration = 60.0;
  double partitioned_share = 0.5;

  /// Fraction of ALL nodes crashed at sampled times in [churn_start,
  /// churn_end]. Bootstrap anchors (the first node on each side) and
  /// miner hosts are exempt — mining operations and seed nodes were the
  /// stable core of the real network; churn hits the long tail.
  double churn_fraction = 0.20;
  double churn_start = 120.0;
  double churn_end = 900.0;
  double mean_downtime = 180.0;
  /// Probability a crashed node ever comes back (< 1 models the exodus).
  double restart_prob = 0.8;

  /// Durability layer. With cold_restart_prob > 0, every node gets a
  /// WAL-backed block store on a per-node SimDisk, and each scheduled
  /// restart is — with this probability — a COLD restart: the process
  /// loses its in-memory chain and mempool, the disk's crash faults hit
  /// the log tail, and the node recovers by checksum-scanning the store,
  /// replaying the surviving prefix, and re-syncing the lost tail from
  /// peers. With cold_restart_prob == 0 (the default) no stores exist, no
  /// extra Rng draws happen, and runs stay bit-identical to builds without
  /// this layer. Restarts that miss the coin stay warm (the historical
  /// "chain survives in memory" behavior).
  double cold_restart_prob = 0.0;
  /// Crash-time disk faults (torn writes, tail truncation, bit rot)
  /// applied to a cold-restarting node's store before recovery runs.
  db::StorageFaults storage_faults;

  /// Mining (and chaos) phase length, then a settle window in which the
  /// network must converge.
  double mining_duration = 2400.0;
  double settle_deadline = 1200.0;

  /// Byzantine adversaries mixed into the population. With fraction > 0,
  /// that share of the nodes (never bootstrap anchors or miner hosts —
  /// deterministically the highest-indexed eligible nodes, exempt from
  /// churn) run hostile agents cycling through the enabled kinds, and every
  /// honest node switches HardeningOptions on. With fraction == 0 nothing
  /// here consumes rng draws or registers telemetry, so adversary-free runs
  /// replay bit-identically to builds without this layer.
  struct AdversaryMix {
    double fraction = 0.0;
    /// Sim time the agents start attacking, and their round interval.
    double start = 60.0;
    double interval = 12.0;
    bool forgers = true;
    bool withholders = true;
    bool spammers = true;
    bool equivocators = true;
  } adversaries;

  /// Eclipse layer: with budget > 0, each of `victims` nodes gets a
  /// dedicated sybil swarm (an EclipseAdversary hosted on a high-indexed
  /// eligible node) grinding `budget` NodeIds into the victim's near
  /// buckets, poisoning its table, monopolizing its slots and its seeds',
  /// and withholding every block. Three attack rounds after `start` the
  /// runner warm-reboots each victim into the entrenched swarm — the
  /// canonical reboot-then-eclipse. With `defenses` true every honest node
  /// switches EclipseDefenseOptions on (diversity caps, slot split,
  /// ping-before-evict, feelers, anchors, the isolation detector); false
  /// measures the undefended baseline. Victims and swarm hosts are
  /// churn-exempt (a victim that happens to crash is no test of an
  /// eclipse). With budget == 0 nothing here consumes rng draws, installs
  /// region oracles, or registers telemetry: eclipse-free runs replay
  /// bit-identically to builds without this layer.
  struct EclipseParams {
    std::size_t budget = 0;
    std::size_t victims = 1;
    bool defenses = true;
    double start = 30.0;
    double interval = 2.0;
  } eclipse;

  /// Availability probe: a sim-time sampler that, every `interval`
  /// seconds, scores each fork side against a quorum threshold — the side
  /// is "available" when at least `quorum_fraction` of its honest nodes
  /// are live AND within `max_head_lag` blocks of the side's best height —
  /// and buckets samples into pre-failure / during-failure / post-heal
  /// phases around [failure_start, failure_end). Disabled by default: no
  /// samples are taken, no extra fields fold into the fingerprint, and
  /// runs replay bit-identically to builds without the probe.
  struct AvailabilityProbe {
    bool enabled = false;
    double interval = 5.0;
    double quorum_fraction = 0.6;
    core::BlockNumber max_head_lag = 2;
    /// Seconds the network must stay above quorum after failure_end
    /// before the first such instant counts as "healed" (a single lucky
    /// sample is not a recovery).
    double heal_sustain = 30.0;
    /// Phase boundaries. Negative values derive them from the composed
    /// failure windows: the cut window when a cut is scheduled, else the
    /// churn window.
    double failure_start = -1.0;
    double failure_end = -1.0;
  } probe;

  /// Throws std::invalid_argument naming the offending field when a knob
  /// is out of range (probabilities outside [0,1], negative durations,
  /// an inverted churn window). ChaosRunner calls this on construction so
  /// a typo'd sweep fails loudly instead of silently running nonsense.
  void validate() const;
};

/// One availability probe sample (taken every AvailabilityProbe::interval).
struct AvailabilitySample {
  double t = 0.0;
  bool eth_ok = false;
  bool etc_ok = false;
  /// Both sides met quorum at this instant.
  bool available() const noexcept { return eth_ok && etc_ok; }
};

/// Availability accounting over one failure episode.
struct AvailabilityStats {
  /// Fraction of samples available per phase; -1 = phase had no samples.
  double pre = -1.0;
  double during_failure = -1.0;
  double post = -1.0;
  /// Total sim-time below quorum (samples * interval), whole run.
  double degraded_seconds = 0.0;
  /// Seconds from failure_end to the first instant after it where
  /// availability held for heal_sustain seconds (or through the end of
  /// sampling); -1 = never healed, 0 = quorum never lost after the
  /// failure window closed.
  double time_to_heal = -1.0;
  std::size_t samples = 0;
};

/// Pure fold of a sample timeline into per-phase stats; separated from the
/// runner so hand-built timelines can pin exact values in tests.
AvailabilityStats summarize_availability(
    const std::vector<AvailabilitySample>& samples,
    const ChaosParams::AvailabilityProbe& probe);

struct ChaosReport {
  bool converged = false;
  /// Seconds from mining stop to per-side head agreement (-1 = never).
  double time_to_convergence = -1.0;
  core::BlockNumber height_eth = 0;
  core::BlockNumber height_etc = 0;
  std::size_t survivors_eth = 0;
  std::size_t survivors_etc = 0;
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  // durability layer (all zero when ChaosParams::cold_restart_prob == 0)
  std::size_t cold_restarts = 0;
  std::uint64_t store_appends = 0;
  std::uint64_t store_records_scanned = 0;
  std::uint64_t store_corrupt_records = 0;
  std::uint64_t store_blocks_replayed = 0;
  /// Checksummed records the chain refused on replay — must stay 0: every
  /// corrupt record is caught by the scan, never imported.
  std::uint64_t store_replay_rejected = 0;
  double recovery_seconds = 0.0;  // modeled sim-time spent recovering
  std::uint64_t disk_torn_writes = 0;
  std::uint64_t disk_tail_truncations = 0;
  std::uint64_t disk_bits_flipped = 0;
  // resilience telemetry: the four sync/dial/ban counts are summed over
  // every node, running or not (a crashed node keeps what it counted);
  // messages_sent is the network's total
  std::uint64_t sync_timeouts = 0;
  std::uint64_t sync_retries = 0;
  std::uint64_t dial_attempts = 0;
  std::uint64_t peers_banned = 0;
  std::uint64_t messages_sent = 0;
  // Byzantine layer (all zero when AdversaryMix::fraction == 0)
  std::size_t adversaries = 0;
  std::uint64_t blocks_forged = 0;
  std::uint64_t phantom_announcements = 0;
  std::uint64_t txs_spammed = 0;
  std::uint64_t equivocations = 0;
  /// Adversaries score-banned by at least one honest node.
  std::size_t attackers_banned = 0;
  /// Honest-node pairs where one ever banned the other (should stay 0:
  /// defenses must not friendly-fire).
  std::uint64_t honest_ban_events = 0;
  // honest defense work, summed over honest nodes
  std::uint64_t wasted_executions = 0;
  std::uint64_t invalid_cache_hits = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t txpool_evictions = 0;
  p2p::FaultCounters faults;
  // Eclipse layer (all zero/empty when EclipseParams::budget == 0)
  std::size_t eclipse_victims = 0;
  std::size_t eclipse_sybils = 0;
  std::uint64_t eclipse_table_floods = 0;
  std::uint64_t eclipse_status_floods = 0;
  std::uint64_t eclipse_lookups_answered = 0;
  std::uint64_t eclipse_withheld_requests = 0;
  /// Isolation detector firings across honest nodes (one-shot per episode).
  std::uint64_t eclipse_suspicions = 0;
  std::uint64_t eclipse_recoveries = 0;
  /// Per-victim sim-seconds spent running with no honest active peer,
  /// indexed in victim order.
  std::vector<double> isolation_seconds;
  /// Victims still holding a sybil-only (or empty) peer set at run end —
  /// the attack's success count. Defended runs must drive this to zero.
  std::size_t victims_eclipsed_at_end = 0;
  /// Availability probe results (all -1 / 0 when the probe is disabled).
  AvailabilityStats availability;
  // Client-diversity layer (all zero/empty when scenario.clients is off).
  /// Fork-monitor totals summed over all nodes: blocks refused as disputed
  /// (header-followed, never blamed), `divergence` events raised, and
  /// consensus patches applied.
  std::uint64_t disputed_blocks = 0;
  std::uint64_t divergence_events = 0;
  std::uint64_t consensus_patches = 0;
  /// Per-family scoring (probe samples folded per family; one entry per
  /// mix slice, in mix order). divergence_seconds is the sim-time during
  /// which at least one running member of the family held a head its fork
  /// side's anchor does not consider canonical — the family was off on a
  /// competing branch.
  struct ClientFamilyReport {
    ClientFamily family = ClientFamily::kGeth;
    std::size_t nodes = 0;
    AvailabilityStats availability;
    double divergence_seconds = 0.0;
  };
  std::vector<ClientFamilyReport> client_families;
  /// Full telemetry snapshot of the run (every layer's registry metrics).
  obs::Snapshot telemetry;
  /// Digest of the end state (per-node heads, heights, counters, and the
  /// telemetry snapshot): equal across two runs iff they were
  /// bit-identical.
  Hash256 fingerprint;
};

class ChaosRunner {
 public:
  explicit ChaosRunner(ChaosParams params);

  ForkScenario& scenario() noexcept { return *scenario_; }
  p2p::FaultInjector& faults() noexcept { return *faults_; }
  const p2p::ChurnSchedule& churn() const noexcept { return churn_; }
  const std::vector<std::unique_ptr<Adversary>>& adversaries() const noexcept {
    return adversaries_;
  }
  /// Is node `i` hosting a Byzantine agent?
  bool is_adversary(std::size_t i) const {
    return adversary_hosts_.contains(i);
  }
  const std::vector<std::unique_ptr<EclipseAdversary>>& eclipse_adversaries()
      const noexcept {
    return eclipse_adversaries_;
  }
  /// Node indices under sybil attack, in victim order (empty when the
  /// eclipse layer is off).
  const std::vector<std::size_t>& eclipse_victims() const noexcept {
    return eclipse_victims_;
  }
  /// Is `id` a minted sybil of any swarm in this run?
  bool is_sybil_id(const p2p::NodeId& id) const;
  /// Is victim node `idx` currently running with no honest active peer?
  bool victim_isolated(std::size_t idx) const;
  /// Node `i`'s block store (null when the durability layer is off).
  db::BlockStore* store(std::size_t i) {
    return i < stores_.size() ? stores_[i].get() : nullptr;
  }
  /// Bootstrap list a churned node rejoins through: its own fork side's
  /// anchor, so a post-fork restart pulls toward the right network instead
  /// of burning dials on peers that will DAO-challenge it away.
  std::vector<p2p::NodeId> rejoin_bootstrap_for(std::size_t i) const;
  /// Live registry for the run (snapshot lands in ChaosReport::telemetry).
  obs::Registry& telemetry() noexcept { return registry_; }
  obs::EventTracer& tracer() noexcept { return tracer_; }
  /// Node indices severed from the rest by the scheduled partition cut
  /// (empty when the cut is disabled); test hook for partitioned_share.
  const std::vector<std::size_t>& cut_members() const noexcept {
    return cut_members_;
  }
  /// Availability samples taken so far (empty unless probe.enabled).
  const std::vector<AvailabilitySample>& availability_samples()
      const noexcept {
    return availability_samples_;
  }
  /// Per-family sample timelines, indexed like scenario.clients.mix (empty
  /// unless both the probe and the clients layer are enabled). A family
  /// sample sets eth_ok == etc_ok == "quorum of the family's honest
  /// members is live and synced to its own side's best height".
  const std::vector<std::vector<AvailabilitySample>>& family_samples()
      const noexcept {
    return family_samples_;
  }
  /// The phase window the probe actually used ([failure_start,
  /// failure_end), explicit or derived from the cut/churn windows).
  const ChaosParams::AvailabilityProbe& effective_probe() const noexcept {
    return probe_;
  }

  /// Every running node on each side shares one head and both sides have
  /// crossed the fork block (so the heads are provably per-side).
  bool converged() const;

  /// Drive the whole timeline and report.
  ChaosReport run();

 private:
  void install_cut();
  void select_adversary_hosts();
  void select_eclipse_cast();
  void install_stores();
  void install_churn();
  void install_adversaries();
  void install_eclipse();
  void eclipse_probe_tick();
  void install_probe();
  void probe_tick();
  bool side_meets_quorum(bool eth_side) const;
  bool family_meets_quorum(ClientFamily family) const;
  bool family_diverged(ClientFamily family) const;
  void set_node_mining(std::size_t node_index, bool on);
  Hash256 fingerprint(const obs::Snapshot& telemetry) const;

  ChaosParams params_;
  Rng rng_;
  // Declared before scenario_ so they outlive it: nodes emit trace events
  // from shutdown() during ~ForkScenario.
  obs::Registry registry_;
  obs::EventTracer tracer_;
  std::unique_ptr<ForkScenario> scenario_;
  std::unique_ptr<p2p::FaultInjector> faults_;
  p2p::ChurnSchedule churn_;
  std::vector<std::unique_ptr<Adversary>> adversaries_;
  std::unordered_set<std::size_t> adversary_hosts_;
  /// Eclipse layer state (all empty when EclipseParams::budget == 0).
  /// Declared after scenario_ like adversaries_: swarms detach before the
  /// nodes they ride on are destroyed.
  std::vector<std::unique_ptr<EclipseAdversary>> eclipse_adversaries_;
  std::vector<std::size_t> eclipse_victims_;
  std::vector<std::size_t> eclipse_hosts_;
  /// Victims + swarm hosts: exempt from churn.
  std::unordered_set<std::size_t> eclipse_protected_;
  std::vector<double> isolation_seconds_;
  /// Per-node durable storage, indexed by node (empty when the durability
  /// layer is off; one SimDisk per node so crash faults stay independent).
  std::vector<std::unique_ptr<db::SimDisk>> disks_;
  std::vector<std::unique_ptr<db::BlockStore>> stores_;
  std::vector<std::size_t> cut_members_;
  /// Resolved probe config (phase window derived when not explicit).
  ChaosParams::AvailabilityProbe probe_;
  std::vector<AvailabilitySample> availability_samples_;
  /// Per-family probe state, indexed like scenario.clients.mix (all empty
  /// unless both the probe and the clients layer are enabled).
  std::vector<ClientFamily> family_list_;
  std::vector<std::vector<AvailabilitySample>> family_samples_;
  std::vector<double> family_divergence_seconds_;
  std::size_t crashes_ = 0;
  std::size_t restarts_ = 0;
  /// Summed in event order (a float sum's value depends on its order), so
  /// not re-derived from the nodes' own totals at report time.
  double recovery_seconds_ = 0.0;
};

}  // namespace forksim::sim
