// A full node: blockchain + transaction pool + discovery + peer sessions +
// gossip, driven entirely by the discrete-event network. This is the
// protocol-faithful agent used in partition experiments: nodes discover
// each other via Kademlia, handshake with Status, cross-examine DAO fork
// headers, sync via GetBlocks, and gossip blocks and transactions.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/chain.hpp"
#include "core/txpool.hpp"
#include "db/blockstore.hpp"
#include "obs/trace.hpp"
#include "p2p/discovery.hpp"
#include "p2p/gossip.hpp"
#include "p2p/peers.hpp"

namespace forksim::sim {

/// Byzantine-resistance knobs. Everything here is opt-in: with `enabled`
/// false (the default) the node behaves — draw for draw — exactly like the
/// un-hardened implementation, which is what keeps adversary-free golden
/// fingerprints bit-identical. Adversarial scenarios switch it on.
struct HardeningOptions {
  bool enabled = false;
  /// Per-peer token buckets for block-bearing ingress (NewBlock pushes,
  /// unsolicited Blocks batches, NewBlockHashes announcements)…
  double blocks_per_sec = 8.0;
  double block_burst = 192.0;
  /// …and for transaction gossip (tokens are charged per transaction).
  double txs_per_sec = 64.0;
  double tx_burst = 1024.0;
  /// A single Transactions message containing at least this many hard
  /// rejects (bad signature / wrong chain / underpriced) is a spam batch:
  /// honest gossip races produce duplicates, never piles of invalid txs.
  std::size_t tx_junk_threshold = 16;
  /// Distinct children of one parent announced by one session before we
  /// call it equivocation. Honest relays forward at most the (one or two)
  /// children that actually took the head.
  std::size_t equivocation_threshold = 3;
};

/// Eclipse-resistance knobs: discovery diversity caps, an inbound/outbound
/// slot split, ping-before-evict, feeler dials, persisted anchor peers, and
/// the isolation detector. Like HardeningOptions, everything is strictly
/// opt-in: with `enabled` false (the default) the node behaves draw-for-draw
/// exactly like the unhardened implementation, keeping eclipse-free golden
/// fingerprints bit-identical.
struct EclipseDefenseOptions {
  bool enabled = false;
  /// Slot split: at most this many of NodeOptions::max_peers sessions may
  /// be inbound, so an inbound handshake flood can never exhaust the
  /// outbound dial headroom…
  std::size_t max_inbound = 8;
  /// …and at most this many inbound sessions per group (the geo/region
  /// layer standing in for IP prefixes — a sybil swarm shares a group the
  /// way a real one shares a /24).
  std::size_t inbound_group_cap = 2;
  /// Discovery diversity caps (see DiscoveryDefense).
  std::size_t bucket_group_cap = 2;
  std::size_t table_group_cap = 6;
  /// Outbound dial diversity: skip dial candidates whose group already has
  /// this many sessions — XOR-ground sybils dominate closest() ordering,
  /// so the table caps alone don't protect the dialer. 0 = uncapped.
  std::size_t dial_group_cap = 2;
  /// Maintenance ticks a ping-before-evict challenge or feeler waits.
  std::uint32_t pending_ticks = 2;
  /// Per-tick probability of one feeler ping validating a table entry.
  double feeler_chance = 0.25;
  /// Long-lived active peers persisted through the attached store and
  /// redialed after a cold restart (0 disables anchors).
  std::size_t anchor_count = 2;
  /// Isolation detector: head stale for this long AND the active peer set
  /// at least this homogeneous (largest single-group share) with at least
  /// `min_peers_for_detection` active peers -> one-shot eclipse suspicion,
  /// drop every session, flush the table, re-bootstrap from seeds+anchors.
  double stale_after = 90.0;
  double homogeneity_threshold = 0.75;
  std::size_t min_peers_for_detection = 2;
};

struct NodeOptions {
  std::size_t max_peers = 25;
  /// Keep dialing until this many active sessions.
  std::size_t target_peers = 8;
  p2p::GossipPolicy gossip;
  /// Seconds between maintenance ticks (dial candidates, refresh buckets).
  double tick_interval = 5.0;
  std::size_t sync_batch = 32;
  /// Resilient sync: a GetBlocks whose reply hasn't arrived after
  /// `sync_timeout * sync_backoff^attempt` seconds is re-sent, preferring a
  /// different active peer, up to `sync_max_retries` times. Without this a
  /// single lost reply stalls sync until some unrelated event restarts it.
  double sync_timeout = 8.0;
  double sync_backoff = 1.6;
  std::uint32_t sync_max_retries = 5;
  /// Peer scoring / banning / liveness knobs.
  p2p::PeerPolicy peer_policy;
  /// Bound on blocks parked while their ancestors are fetched; beyond it
  /// orphans are evicted — unsolicited ones (gossip pushes) first, so an
  /// orphan flood cannot evict a deep sync's legitimately buffered chain.
  std::size_t max_orphans = 4096;
  /// Genesis parameters (must match across nodes meant to share a network).
  U256 genesis_difficulty = U256(131072);
  core::Gas genesis_gas_limit = 0;  // 0 = chain config default
  /// Run geth's DAO fork-header challenge against peers (ablation A5 turns
  /// this off to show what the network looks like without it).
  bool enable_dao_challenge = true;
  /// Disconnect peers that push blocks our chain rejects as wrong-fork
  /// (the organic severing mechanism; A5 disables it together with the
  /// challenge to show the un-partitioned failure mode: sessions persist
  /// and both sides gossip at each other forever).
  bool drop_wrong_fork_peers = true;
  /// Byzantine-resistance layer (off by default; see HardeningOptions).
  HardeningOptions hardening;
  /// Eclipse-resistance layer (off by default; see EclipseDefenseOptions).
  EclipseDefenseOptions eclipse;
  /// Fork monitor: distinct disputed blocks tracked from one competing
  /// branch before the node raises a `divergence` event (persistent
  /// peer-head disagreement, not a transient race).
  std::size_t divergence_threshold = 3;
  /// Modeled cost of a cold restart: sim-seconds per block replayed from
  /// the attached store (log scan + re-execution latency stand-in). The
  /// node rejoins the network only after this much recovery time.
  double recovery_seconds_per_block = 0.002;
};

/// What one cold restart recovered and what it cost.
struct RecoveryOutcome {
  db::RecoveryStats store;            // the store's scan/repair stats
  std::uint64_t blocks_replayed = 0;  // log records re-imported into the chain
  /// Checksummed records the chain still refused — must stay 0: a valid
  /// checksum proves the record is byte-identical to a block this same
  /// chain once imported.
  std::uint64_t replay_rejected = 0;
  /// Modeled sim-seconds before the node rejoins (start() fires then).
  double resume_delay = 0.0;
};

/// Everything one FullNode counts, one plain field per event kind.
/// attach_telemetry binds these fields into a registry, which reads them at
/// snapshot time; no second copy is kept anywhere.
struct NodeCounters {
  std::uint64_t blocks_imported = 0;
  std::uint64_t txs_received = 0;
  /// Full NewBlock pushes received for blocks we already had — the
  /// redundancy cost of aggressive push gossip.
  std::uint64_t duplicate_block_pushes = 0;
  /// Resilient sync.
  std::uint64_t sync_timeouts = 0;
  std::uint64_t sync_retries = 0;
  std::uint64_t sync_gave_up = 0;
  std::uint64_t dial_attempts = 0;
  /// Orphans evicted because the buffer hit NodeOptions::max_orphans.
  std::uint64_t orphan_evictions = 0;
  /// Defense telemetry (all zero unless hardening is enabled and peers
  /// misbehave). Announcements/pushes of hashes already in the
  /// known-invalid cache — attacks absorbed without re-validation.
  std::uint64_t invalid_cache_hits = 0;
  /// Blocks rejected by the cheap structural precheck, before any header
  /// rule or execution ran.
  std::uint64_t precheck_rejections = 0;
  /// Messages dropped by a per-peer token bucket.
  std::uint64_t rate_limited = 0;
  /// Same-parent sibling floods detected (equivocation).
  std::uint64_t equivocations = 0;
  /// Fetches abandoned because nobody but the announcer ever advertised the
  /// hash — phantom announcements from a withholder.
  std::uint64_t withheld = 0;
  /// Blocks that were fully executed only to fail a body commitment
  /// (state/receipts/gas mismatch) — the work an invalid-block forger
  /// managed to waste.
  std::uint64_t wasted_executions = 0;
  /// Fork monitor: blocks our rules disputed (header-followed, never
  /// executed, never blamed on the peer), divergence events raised
  /// (persistent competing head detected), and consensus patches applied.
  std::uint64_t disputed_blocks = 0;
  std::uint64_t divergence_events = 0;
  std::uint64_t consensus_patches = 0;
  /// Eclipse defense: one-shot isolation suspicions raised and
  /// drop-and-re-bootstrap recoveries performed.
  std::uint64_t eclipse_suspicions = 0;
  std::uint64_t eclipse_recoveries = 0;
  /// Durability: totals over this node's cold restarts.
  std::uint64_t cold_restarts = 0;
  /// Sum of replay_rejected (must stay 0).
  std::uint64_t recovery_rejects = 0;
  std::uint64_t recovery_scanned = 0;
  std::uint64_t recovery_corrupt = 0;
  std::uint64_t recovery_replayed = 0;
  double recovery_seconds = 0.0;
};

class FullNode {
 public:
  FullNode(p2p::Network& network, p2p::NodeId id, core::ChainConfig config,
           core::Executor& executor, const core::GenesisAlloc& alloc,
           Rng rng, NodeOptions options = NodeOptions());
  ~FullNode();

  FullNode(const FullNode&) = delete;
  FullNode& operator=(const FullNode&) = delete;

  const p2p::NodeId& id() const noexcept { return id_; }
  p2p::Network& network() noexcept { return network_; }
  core::Blockchain& chain() noexcept { return chain_; }
  const core::Blockchain& chain() const noexcept { return chain_; }
  core::TxPool& txpool() noexcept { return pool_; }
  const p2p::PeerSet& peers() const noexcept { return peers_; }
  const p2p::DiscoveryService& discovery() const noexcept {
    return discovery_;
  }

  /// Join the network: seed the routing table and start ticking.
  void start(const std::vector<p2p::NodeId>& bootstrap);

  /// Leave the network (handler detached; peers will drop us). Models the
  /// mass node exodus at the fork.
  void shutdown();
  bool running() const noexcept { return running_; }
  /// Monotonic life counter: shutdown() bumps it so timers armed in a
  /// previous life can never fire into the next one (test hook).
  std::uint64_t generation() const noexcept { return generation_; }

  /// Attach a durable block store (must outlive the node). Every block the
  /// chain imports from now on is appended as a checksummed log record;
  /// cold_restart() recovers from it. Never consumes Rng draws.
  void attach_store(db::BlockStore* store) { store_ = store; }
  db::BlockStore* store() const noexcept { return store_; }

  /// Cold restart: the process died. The in-memory chain resets to
  /// genesis, the mempool empties, and the node recovers by scanning the
  /// attached store — verify checksums, truncate the log at the first
  /// invalid record, replay the surviving blocks through the state engine
  /// — then rejoins the network after the modeled recovery delay (start()
  /// is scheduled resume_delay sim-seconds out; the lost tail re-syncs
  /// from peers through the normal timeout/retry machinery). Without a
  /// store this is a total wipe: the node restarts from genesis.
  RecoveryOutcome cold_restart(const std::vector<p2p::NodeId>& bootstrap);

  /// Inject a locally-created transaction (adds to the pool and gossips).
  core::PoolAddResult submit_transaction(const core::Transaction& tx);

  /// A locally-mined block: import and gossip. Returns the import outcome.
  core::ImportOutcome submit_block(const core::Block& block);

  /// Fired after every canonical-head change (miners re-target on this).
  std::function<void()> on_head_changed;

  /// Install a validation-rule overlay on this node's chain (the
  /// consensus-bug fault injector; see core::ValidationRuleSet). Non-owning;
  /// never consumes Rng draws.
  void set_validation_rules(const core::ValidationRuleSet* rules) noexcept {
    chain_.set_validation_rules(rules);
  }

  /// The hotfix: clear the fork monitor's disputed-range state and pull the
  /// disputed tip from active peers so full revalidation (and the deep
  /// reorg back to the majority chain) can begin. The caller is expected to
  /// have already disabled the quirk (e.g. QuirkRuleSet::apply_patch).
  void apply_consensus_patch();

  /// Summary of the headers this node refused to execute but kept
  /// following (header-only) because its rules disputed them.
  struct DisputedRange {
    core::BlockNumber min_number = 0;
    core::BlockNumber max_number = 0;
    Hash256 tip{};          // highest disputed header seen
    std::size_t count = 0;  // distinct disputed blocks tracked
    bool divergence_raised = false;
  };
  const DisputedRange& disputed_range() const noexcept { return disputed_; }

  /// Everything this node has counted (peer-session counts live in
  /// peers()).
  const NodeCounters& counters() const noexcept { return counters_; }
  // shorthands kept for the benchmark harness
  std::uint64_t blocks_imported() const noexcept {
    return counters_.blocks_imported;
  }
  std::uint64_t txs_received() const noexcept { return counters_.txs_received; }
  std::uint64_t duplicate_block_pushes() const noexcept {
    return counters_.duplicate_block_pushes;
  }
  std::uint64_t sync_timeouts() const noexcept {
    return counters_.sync_timeouts;
  }
  std::uint64_t sync_retries() const noexcept { return counters_.sync_retries; }
  std::uint64_t peers_banned() const noexcept { return peers_.bans(); }

  std::size_t sync_inflight() const noexcept { return pending_fetch_.size(); }
  std::size_t orphan_count() const noexcept { return orphan_order_.size(); }

  /// Install the group (region/AS) oracle shared by the eclipse defenses:
  /// discovery diversity caps, the inbound group cap, the dial cap, and the
  /// isolation detector's homogeneity score all key on it. Without one the
  /// group caps never bind and the detector never fires. Never consumes
  /// Rng draws.
  void set_region_fn(std::function<std::uint32_t(const p2p::NodeId&)> fn);

  /// Current anchor set (longest-lived active peers; persisted via the
  /// attached store when the eclipse defense is on).
  const std::vector<p2p::NodeId>& anchors() const noexcept { return anchors_; }
  /// Largest single-group share of the active peer set (0 with no region
  /// oracle or no active peers) — the detector's homogeneity score,
  /// exposed for tests and probes.
  double peer_homogeneity() const;

  /// Bind counters() and the peer-session counts into `reg` as node.*,
  /// db.recovery.* and peers.* metrics (shared across nodes: named counters
  /// aggregate over the population) and, when `tracer` is given, emit
  /// sync/lifecycle instants on display lane `lane` (one lane per node
  /// keeps Chrome traces readable). Call once per registry, any time; the
  /// registry reads the live counts, so prior counts are included. The
  /// node must outlive the registry's last read. Never consumes Rng
  /// draws.
  void attach_telemetry(obs::Registry& reg, obs::EventTracer* tracer = nullptr,
                        std::uint32_t lane = 0);

 private:
  void on_message(const p2p::NodeId& from, const p2p::Payload& payload);
  /// `payload` decoded to an eth message.
  void handle_eth(const p2p::NodeId& from, const p2p::Payload& payload);
  void on_peer_active(const p2p::NodeId& peer, const p2p::Status& status);
  void tick();
  /// Eclipse-defense tick work (feelers, detector, anchors); only called
  /// when the defense is enabled.
  void eclipse_tick();
  void check_isolation();
  void recover_from_eclipse();
  void update_anchors();
  bool dial_over_group_cap(const p2p::NodeId& candidate) const;

  p2p::Status make_status() const;
  std::optional<core::BlockHeader> dao_header() const;
  bool check_dao_header(const std::optional<core::BlockHeader>& header) const;

  /// The push path: import, then relay, orphan or blame `from`.
  void import_and_relay(const p2p::NodeId& from, const core::Block& block,
                        const Hash256& hash);
  void after_head_change();
  void add_orphan(const core::Block& block, const Hash256& hash,
                  bool solicited);
  void try_orphans();
  void request_blocks(const p2p::NodeId& peer, const Hash256& head,
                      std::uint32_t count);
  void arm_fetch_timer(const Hash256& head, std::uint64_t token,
                       double timeout);
  void on_fetch_timeout(const Hash256& head, std::uint64_t token);
  void relay_block(const core::Block& block, const Hash256& hash,
                   bool became_head);
  /// Gossip `batch` to every active peer but `skip`, each peer getting the
  /// transactions it does not know yet. `hashes[i]` is the hash of
  /// `batch.transactions[i]`.
  void relay_transactions(p2p::Transactions batch,
                          const std::vector<Hash256>& hashes,
                          const std::optional<p2p::NodeId>& skip);
  void send(const p2p::NodeId& to, const p2p::Message& msg);

  /// The one import-outcome handler (only the cold-restart replay calls
  /// chain_.import directly): counts and stores an imported block, follows
  /// a disputed one — or its descendant, reported as kDisputed — header-only
  /// unless `mined_here`, and caches a wrong-fork or invalid one as
  /// rejected. `hash` is `block.hash()`.
  core::ImportOutcome import_block(const core::Block& block,
                                   const Hash256& hash,
                                   bool mined_here = false);

  p2p::Network& network_;
  p2p::NodeId id_;
  core::Blockchain chain_;
  core::TxPool pool_;
  Rng rng_;
  NodeOptions options_;
  p2p::DiscoveryService discovery_;
  p2p::PeerSet peers_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  // invalidates pending ticks on shutdown
  std::vector<p2p::NodeId> bootstrap_;

  /// Orphans waiting for ancestors, keyed by parent hash; a parent can
  /// have several orphaned children (sibling forks), and the whole buffer
  /// is bounded by NodeOptions::max_orphans with FIFO eviction.
  std::unordered_map<Hash256, std::vector<core::Block>, Hash256Hasher>
      orphans_;
  /// Insertion order for eviction; solicited = arrived in a reply to one
  /// of our own GetBlocks (sync state, evicted only as a last resort).
  struct OrphanRef {
    Hash256 parent;
    Hash256 hash;
    bool solicited = false;
  };
  std::deque<OrphanRef> orphan_order_;

  /// In-flight GetBlocks requests keyed by the requested head hash.
  struct PendingFetch {
    p2p::NodeId peer;
    /// Who announced the hash in the first place (hardening blames phantom
    /// announcements on the announcer, not on whoever we last retried).
    p2p::NodeId origin;
    std::uint32_t max_blocks = 1;
    std::uint32_t attempt = 0;
    std::uint64_t token = 0;  // invalidates superseded timeout events
  };
  std::unordered_map<Hash256, PendingFetch, Hash256Hasher> pending_fetch_;
  std::uint64_t next_fetch_token_ = 0;

  /// Hashes our rules rejected (wrong-fork / invalid blocks): never
  /// re-fetched no matter how often the other side re-announces them.
  p2p::BoundedHashSet rejected_;

  /// Fork monitor (empty unless a validation overlay disputes something).
  /// Disputed hashes are tracked separately from rejected_: both suppress
  /// re-fetching, but a dispute is a validity *disagreement* with an honest
  /// peer — it carries no blame, and the cache is cleared (not kept) by
  /// apply_consensus_patch so the blocks can be re-fetched and revalidated.
  /// Of the competing branch only the range is kept: enough to raise
  /// `divergence`, and the tip the patch pulls.
  p2p::BoundedHashSet disputed_hashes_;
  DisputedRange disputed_;
  /// Track a disputed header: header-only follow, fetch-suppress, extend
  /// the range, raise `divergence` once the competing branch persists.
  void note_disputed(const core::BlockHeader& header, const Hash256& hash);

  NodeCounters counters_;
  bool rechallenged_at_fork_ = false;

  /// Eclipse-defense state (inert while the layer is disabled).
  std::function<std::uint32_t(const p2p::NodeId&)> region_fn_;
  double last_head_change_time_ = 0.0;
  bool eclipse_suspected_ = false;  // one-shot until the head moves again
  /// When each currently-known peer first went active (anchor aging).
  std::unordered_map<p2p::NodeId, double, p2p::NodeIdHasher> peer_first_seen_;
  std::vector<p2p::NodeId> anchors_;

  /// Durability layer (null unless a store is attached).
  db::BlockStore* store_ = nullptr;

  /// Staged ingress, in order: known-invalid cache, per-peer rate limit,
  /// structural precheck, equivocation detector. Each stage rejects before
  /// the next spends anything; an unhardened node's stages admit all.
  bool hardened() const noexcept { return options_.hardening.enabled; }
  /// Hardened only: a counted hit in the known-invalid cache.
  bool known_invalid(const Hash256& hash);
  /// Charge `cost` to `session`'s `bucket` (armed only under hardening);
  /// a refusal is counted and costs `from` a spam demerit.
  bool rate_limited(p2p::PeerSession* session,
                    p2p::TokenBucket p2p::PeerSession::*bucket, double cost,
                    const p2p::NodeId& from);
  /// Hardened only: field sizes and arithmetic, no roots, no execution. A
  /// failing block is counted and cached as rejected.
  bool fails_precheck(const core::Block& block, const Hash256& hash);
  void init_session_buckets(const p2p::NodeId& peer);

  /// The one trace hook: an instant on this node's lane, if attached.
  void trace(std::string_view cat, std::string_view name,
             std::initializer_list<obs::EventTracer::Arg> args = {});

  void update_orphan_gauge();
  obs::Gauge* tm_orphan_occ_ = nullptr;
  /// Created on the first cold restart after attach: store-less runs keep
  /// their metric set. A float sum across nodes in event order, so it is
  /// added to as it happens rather than bound.
  obs::Gauge* tm_rec_seconds_ = nullptr;
  obs::Registry* reg_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  std::uint32_t lane_ = 0;
};

}  // namespace forksim::sim
