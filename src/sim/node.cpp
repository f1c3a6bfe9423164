#include "sim/node.hpp"

#include <algorithm>
#include <cmath>

namespace forksim::sim {

using namespace p2p;

namespace {

/// Keep dialing until this many active sessions.
constexpr std::size_t kTargetPeers = 8;
/// Blocks asked for per GetBlocks.
constexpr std::uint32_t kSyncBatch = 32;
/// Resilient sync: a GetBlocks whose reply hasn't arrived after
/// `kSyncTimeout * kSyncBackoff^attempt` seconds is re-sent, preferring a
/// different active peer, up to `kSyncMaxRetries` times. Without this a
/// single lost reply stalls sync until some unrelated event restarts it.
constexpr double kSyncTimeout = 8.0;
constexpr double kSyncBackoff = 1.6;
constexpr std::uint32_t kSyncMaxRetries = 5;
/// Fork monitor: distinct disputed blocks tracked from one competing
/// branch before the node raises a `divergence` event (persistent
/// peer-head disagreement, not a transient race).
constexpr std::size_t kDivergenceThreshold = 3;
/// Modeled cost of a cold restart: sim-seconds per block replayed from the
/// attached store (log scan + re-execution latency stand-in). The node
/// rejoins the network only after this much recovery time.
constexpr double kRecoverySecondsPerBlock = 0.002;

/// Hardening: refill rates of the per-peer token buckets for block-bearing
/// ingress and for transaction gossip (the bursts are HardeningOptions).
constexpr double kBlocksPerSec = 8.0;
constexpr double kTxsPerSec = 64.0;
/// A single Transactions message containing at least this many hard
/// rejects (bad signature / wrong chain / underpriced) is a spam batch:
/// honest gossip races produce duplicates, never piles of invalid txs.
constexpr std::size_t kTxJunkThreshold = 16;
/// Distinct children of one parent announced by one session before we
/// call it equivocation. Honest relays forward at most the (one or two)
/// children that actually took the head.
constexpr std::size_t kEquivocationThreshold = 3;

/// Eclipse defense: long-lived active peers persisted through the attached
/// store and redialed after a cold restart…
constexpr std::size_t kAnchorCount = 2;
/// …and the isolation detector: head stale for `stale_after` AND the
/// active peer set at least this homogeneous (largest single-group share)
/// with at least this many active peers -> one-shot eclipse suspicion.
constexpr double kHomogeneityThreshold = 0.75;
constexpr std::size_t kMinPeersForDetection = 2;

/// The eclipse defense owns the inbound slot split; fold it into the peer
/// policy before the PeerSet is constructed.
PeerPolicy effective_peer_policy(const NodeOptions& options) {
  PeerPolicy policy;
  if (options.eclipse.enabled) {
    policy.max_inbound = options.eclipse.max_inbound;
    policy.inbound_group_cap = options.eclipse.inbound_group_cap;
  }
  return policy;
}

}  // namespace

FullNode::FullNode(Network& network, NodeId id, core::ChainConfig config,
                   core::Executor& executor, const core::GenesisAlloc& alloc,
                   Rng rng, NodeOptions options)
    : network_(network),
      id_(id),
      chain_(std::move(config), executor, alloc, options.genesis_gas_limit,
             options.genesis_difficulty),
      pool_(chain_.config()),
      rng_(rng),
      options_(options),
      discovery_(id, rng_.fork(),
                 [this](const NodeId& to, const Message& m) { send(to, m); }),
      peers_(chain_.config().chain_id, chain_.genesis().hash(),
             options.max_peers,
             PeerSet::Callbacks{
                 [this](const NodeId& to, const Message& m) { send(to, m); },
                 [this] { return make_status(); },
                 [this] { return dao_header(); },
                 [this](const std::optional<core::BlockHeader>& h) {
                   return check_dao_header(h);
                 },
                 [this](const NodeId& peer, const Status& status) {
                   on_peer_active(peer, status);
                 },
                 [this](const NodeId& peer, DisconnectReason reason) {
                   // discovery is fork-agnostic (paper §2.2: Kademlia is
                   // not part of consensus) — only evict peers on a truly
                   // different network; wrong-fork and stalled peers stay
                   // in the table, exactly as on mainnet
                   if (reason == DisconnectReason::kIncompatibleNetwork)
                     discovery_.on_peer_dead(peer);
                   peer_first_seen_.erase(peer);
                 },
                 [this] { return network_.loop().now(); },
             },
             effective_peer_policy(options)) {
  discovery_.set_on_discovered([this](const NodeId& candidate) {
    if (running_ && peers_.active_count() < kTargetPeers) {
      if (dial_over_group_cap(candidate)) return;
      peers_.connect(candidate);
    }
  });
  if (options_.eclipse.enabled) {
    DiscoveryDefense defense;
    defense.enabled = true;
    defense.table_group_cap = options_.eclipse.table_group_cap;
    defense.bucket_group_cap = options_.eclipse.bucket_group_cap;
    defense.pending_ticks = options_.eclipse.pending_ticks;
    discovery_.set_defense(defense);
  }
}

void FullNode::set_region_fn(
    std::function<std::uint32_t(const p2p::NodeId&)> fn) {
  region_fn_ = fn;
  discovery_.set_group_fn(fn);
  peers_.set_group_fn(std::move(fn));
}

FullNode::~FullNode() { shutdown(); }

void FullNode::attach_telemetry(obs::Registry& reg, obs::EventTracer* tracer,
                                std::uint32_t lane) {
  const NodeCounters& c = counters_;
  reg.bind("node.blocks_imported", c.blocks_imported);
  reg.bind("node.txs_received", c.txs_received);
  reg.bind("node.duplicate_block_pushes", c.duplicate_block_pushes);
  reg.bind("node.sync_timeouts", c.sync_timeouts);
  reg.bind("node.sync_retries", c.sync_retries);
  reg.bind("node.sync_gave_up", c.sync_gave_up);
  reg.bind("node.dial_attempts", c.dial_attempts);
  reg.bind("node.orphan_evictions", c.orphan_evictions);
  // Defense, fork-monitor, eclipse and restart counters appear from their
  // first event on: attaching must not change the metric set — and so the
  // registry fingerprint — of runs without those layers.
  const auto bind_lazily = [&reg](const char* name, const std::uint64_t& f) {
    reg.bind(name, f, &f);
  };
  bind_lazily("node.ingress.invalid_cache_hits", c.invalid_cache_hits);
  bind_lazily("node.ingress.precheck_rejected", c.precheck_rejections);
  bind_lazily("node.ingress.rate_limited", c.rate_limited);
  bind_lazily("node.ingress.equivocations", c.equivocations);
  bind_lazily("node.ingress.withheld", c.withheld);
  bind_lazily("node.wasted_executions", c.wasted_executions);
  bind_lazily("node.fork_monitor.disputed_blocks", c.disputed_blocks);
  bind_lazily("node.fork_monitor.divergence_events", c.divergence_events);
  bind_lazily("node.fork_monitor.consensus_patches", c.consensus_patches);
  bind_lazily("node.eclipse.suspicions", c.eclipse_suspicions);
  bind_lazily("node.eclipse.recoveries", c.eclipse_recoveries);
  bind_lazily("node.cold_restarts", c.cold_restarts);
  // the recovery totals appear with the first cold restart, even at 0
  reg.bind("db.recovery.records_scanned", c.recovery_scanned,
           &c.cold_restarts);
  reg.bind("db.recovery.corrupt_records", c.recovery_corrupt,
           &c.cold_restarts);
  reg.bind("db.recovery.blocks_replayed", c.recovery_replayed,
           &c.cold_restarts);
  tm_orphan_occ_ = &reg.gauge("node.orphan_occupancy");
  if (c.recovery_seconds > 0.0) {
    tm_rec_seconds_ = &reg.gauge("db.recovery.seconds");
    tm_rec_seconds_->add(c.recovery_seconds);
  }
  reg_ = &reg;
  tracer_ = tracer;
  lane_ = lane;
  peers_.attach_telemetry(reg);
}

void FullNode::trace(std::string_view cat, std::string_view name,
                     std::initializer_list<obs::EventTracer::Arg> args) {
  if (tracer_ != nullptr) tracer_->instant(cat, name, lane_, args);
}

core::ImportOutcome FullNode::import_block(const core::Block& block,
                                           const Hash256& hash,
                                           bool mined_here) {
  core::ImportOutcome outcome = chain_.import(block);
  switch (outcome.result) {
    case core::ImportResult::kImported:
      ++counters_.blocks_imported;
      if (store_ != nullptr) store_->append(block);
      break;
    case core::ImportResult::kAlreadyKnown:
      break;
    case core::ImportResult::kUnknownParent:
      // a descendant of a block our rules dispute: follow the branch
      // header-only instead of chasing ancestors we would refuse to
      // execute anyway
      if (!disputed_hashes_.contains(block.header.parent_hash)) break;
      outcome.result = core::ImportResult::kDisputed;
      [[fallthrough]];
    case core::ImportResult::kDisputed:
      // validity disagreement with an honest peer: header-only following,
      // never blame (this path must not feed the ban machinery); a block
      // mined here is no evidence of a competing branch
      if (!mined_here) note_disputed(block.header, hash);
      break;
    default:
      // wrong fork or invalid: never re-fetched, and a hardened node
      // absorbs re-sends from the cache; an invalid body ran full execution
      // before a commitment (state root / receipts / gas) failed
      rejected_.insert(hash);
      if (outcome.result == core::ImportResult::kInvalidBody)
        ++counters_.wasted_executions;
      break;
  }
  return outcome;
}

RecoveryOutcome FullNode::cold_restart(
    const std::vector<p2p::NodeId>& bootstrap) {
  shutdown();
  ++counters_.cold_restarts;

  // the process is gone: in-memory chain and mempool with it
  chain_.reset_to_genesis();
  pool_.clear();
  rechallenged_at_fork_ = false;
  orphans_.clear();
  orphan_order_.clear();
  disputed_hashes_.clear();
  disputed_ = DisputedRange{};
  update_orphan_gauge();

  RecoveryOutcome out;
  if (store_ != nullptr) {
    // scan + repair the log, then replay the checksummed survivors
    const std::vector<core::Block> survivors = store_->recover(&out.store);
    for (const core::Block& block : survivors) {
      const auto outcome = chain_.import(block);
      if (outcome.result == core::ImportResult::kImported) {
        ++counters_.blocks_imported;
        ++out.blocks_replayed;
      } else {
        ++out.replay_rejected;  // should be impossible: checksummed input
      }
    }
  }
  out.resume_delay = kRecoverySecondsPerBlock *
                     static_cast<double>(out.blocks_replayed);

  counters_.recovery_scanned += out.store.records_scanned;
  counters_.recovery_corrupt += out.store.corrupt_records;
  counters_.recovery_replayed += out.blocks_replayed;
  counters_.recovery_rejects += out.replay_rejected;
  counters_.recovery_seconds += out.resume_delay;
  if (reg_ != nullptr) {
    if (tm_rec_seconds_ == nullptr)
      tm_rec_seconds_ = &reg_->gauge("db.recovery.seconds");
    tm_rec_seconds_->add(out.resume_delay);
  }
  trace("node", "cold_restart",
        {{"replayed", static_cast<std::int64_t>(out.blocks_replayed)},
         {"corrupt", static_cast<std::int64_t>(out.store.corrupt_records)}});

  // An eclipse-defended node redials its persisted anchors alongside the
  // bootstrap seeds: a reboot is exactly the moment an eclipse attacker
  // waits for, and the anchors are live peers the attacker never chose.
  std::vector<p2p::NodeId> rejoin = bootstrap;
  if (options_.eclipse.enabled && store_ != nullptr) {
    for (const Hash256& anchor : store_->load_anchors())
      if (std::find(rejoin.begin(), rejoin.end(), anchor) == rejoin.end())
        rejoin.push_back(anchor);
  }

  // Replaying happened "during the outage"; the network join waits out the
  // modeled recovery time. The generation token keeps a crash scheduled in
  // the gap from resurrecting a stale start.
  const std::uint64_t gen = generation_;
  network_.loop().schedule(out.resume_delay, [this, gen, rejoin] {
    if (gen == generation_ && !running_) start(rejoin);
  });
  return out;
}

void FullNode::start(const std::vector<NodeId>& bootstrap) {
  running_ = true;
  trace("node", "start");
  bootstrap_ = bootstrap;
  // a restart after a crash begins with a clean slate: half-open sessions
  // and in-flight fetches from the previous life are meaningless
  peers_.reset();
  pending_fetch_.clear();
  peer_first_seen_.clear();
  last_head_change_time_ = network_.loop().now();
  eclipse_suspected_ = false;
  network_.attach_payload(id_, [this](const NodeId& from,
                                       const Payload& payload) {
    on_message(from, payload);
  });
  discovery_.bootstrap(bootstrap);
  const std::uint64_t gen = generation_;
  network_.loop().schedule(options_.tick_interval, [this, gen] {
    if (gen == generation_) tick();
  });
}

void FullNode::shutdown() {
  if (!running_) return;
  running_ = false;
  trace("node", "stop");
  ++generation_;
  network_.detach(id_);
}

void FullNode::tick() {
  if (!running_) return;
  // reap sessions whose handshake got lost on the wire (allow ~3 ticks)
  peers_.reap_stalled(3);
  // a node that lost everyone re-seeds from its bootstrap list
  if (discovery_.known_nodes() == 0 && !bootstrap_.empty())
    discovery_.bootstrap(bootstrap_);
  if (options_.eclipse.enabled) eclipse_tick();
  // top up peer sessions from the routing table
  if (peers_.active_count() < kTargetPeers) {
    for (const NodeId& candidate :
         discovery_.table().closest(id_, kTargetPeers * 2)) {
      if (peers_.connected_to(candidate)) continue;
      if (dial_over_group_cap(candidate)) continue;
      if (peers_.connect(candidate)) ++counters_.dial_attempts;
      if (peers_.session_count() >= options_.max_peers) break;
    }
    if (rng_.chance(0.5)) discovery_.refresh();
  }
  // anti-entropy: re-advertise our head to one random active peer each
  // tick. Push gossip is fire-and-forget, so on a lossy network a node can
  // miss every announcement of the final block and stall forever once
  // mining stops; this periodic re-offer gives it a pull path (the
  // receiver ignores hashes it already has).
  if (chain_.height() > 0) {
    const std::vector<p2p::NodeId> active = peers_.active_peers();
    if (!active.empty()) {
      const p2p::NodeId& target = active[rng_.uniform(active.size())];
      send(target, Message{NewBlockHashes{{chain_.head().hash()}}});
    }
  }
  const std::uint64_t gen = generation_;
  network_.loop().schedule(options_.tick_interval, [this, gen] {
    if (gen == generation_) tick();
  });
}

void FullNode::eclipse_tick() {
  // age ping-before-evict challenges and feelers
  discovery_.maintain();
  // feeler dial: ping one random table entry; silence gets it removed, so
  // poisoned entries that never answer are gradually flushed
  if (rng_.chance(options_.eclipse.feeler_chance)) {
    const std::vector<NodeId> known = discovery_.table().all();
    if (!known.empty()) discovery_.send_feeler(known[rng_.uniform(known.size())]);
  }
  update_anchors();
  check_isolation();
}

bool FullNode::dial_over_group_cap(const NodeId& candidate) const {
  if (!options_.eclipse.enabled || options_.eclipse.dial_group_cap == 0 ||
      !region_fn_)
    return false;
  const std::uint32_t group = region_fn_(candidate);
  std::size_t same = 0;
  for (const NodeId& id : peers_.session_ids())
    if (region_fn_(id) == group) ++same;
  return same >= options_.eclipse.dial_group_cap;
}

double FullNode::peer_homogeneity() const {
  if (!region_fn_) return 0.0;
  const std::vector<NodeId> active = peers_.active_peers();
  if (active.empty()) return 0.0;
  std::unordered_map<std::uint32_t, std::size_t> counts;
  std::size_t worst = 0;
  for (const NodeId& peer : active)
    worst = std::max(worst, ++counts[region_fn_(peer)]);
  return static_cast<double>(worst) / static_cast<double>(active.size());
}

void FullNode::check_isolation() {
  const auto& e = options_.eclipse;
  if (eclipse_suspected_ || !region_fn_) return;
  if (network_.loop().now() - last_head_change_time_ < e.stale_after) return;
  if (peers_.active_count() < kMinPeersForDetection) return;
  const double homogeneity = peer_homogeneity();
  if (homogeneity + 1e-9 < kHomogeneityThreshold) return;
  // Stale head + a near-monoculture peer set: everything we hear comes
  // from one place, which honest topology never produces. One-shot until
  // the head moves again.
  eclipse_suspected_ = true;
  ++counters_.eclipse_suspicions;
  trace("eclipse", "suspicion",
        {{"peers", static_cast<std::int64_t>(peers_.active_count())},
         {"homogeneity_pct", static_cast<std::int64_t>(homogeneity * 100.0)}});
  recover_from_eclipse();
}

void FullNode::recover_from_eclipse() {
  ++counters_.eclipse_recoveries;
  trace("eclipse", "recovery");
  // Drop every session — disconnect, never ban: a suspicion is not proof
  // of guilt against any individual peer, and honest peers caught in the
  // set must be redialable immediately.
  for (const NodeId& peer : peers_.session_ids())
    peers_.disconnect(peer, DisconnectReason::kUselessPeer);
  // The table is presumed poisoned: rebuild from scratch rather than
  // repair in place, seeding from the configured bootstrap list plus any
  // anchors not already in it.
  discovery_.flush();
  std::vector<NodeId> seeds = bootstrap_;
  for (const NodeId& anchor : anchors_)
    if (std::find(seeds.begin(), seeds.end(), anchor) == seeds.end())
      seeds.push_back(anchor);
  discovery_.bootstrap(seeds);
}

void FullNode::update_anchors() {
  // anchors = the longest-lived currently-active peers, oldest first
  std::vector<std::pair<double, NodeId>> aged;
  for (const NodeId& peer : peers_.active_peers()) {
    auto it = peer_first_seen_.find(peer);
    if (it != peer_first_seen_.end()) aged.emplace_back(it->second, peer);
  }
  std::sort(aged.begin(), aged.end());
  if (aged.size() > kAnchorCount) aged.resize(kAnchorCount);
  std::vector<NodeId> next;
  next.reserve(aged.size());
  for (const auto& [_, peer] : aged) next.push_back(peer);
  if (next == anchors_) return;
  anchors_ = std::move(next);
  if (store_ != nullptr) store_->save_anchors(anchors_);
}

void FullNode::send(const NodeId& to, const Message& msg) {
  network_.send(id_, to, encode_message(msg));
}

void FullNode::on_message(const NodeId& from, const Payload& payload) {
  if (!running_) return;
  const Message* msg = payload.message();
  if (msg == nullptr) {
    peers_.note_garbage(from);  // malformed: count against the sender
    return;
  }
  peers_.touch(from);
  if (discovery_.handle(from, *msg)) return;
  if (peers_.handle(from, *msg)) return;
  // eth payloads require an active session
  const PeerSession* session = peers_.session(from);
  if (session == nullptr || session->state != PeerState::kActive) return;
  handle_eth(from, payload);
}

Status FullNode::make_status() const {
  Status s;
  s.network_id = chain_.config().chain_id;
  s.total_difficulty = chain_.head_total_difficulty();
  s.head_hash = chain_.head_hash();
  s.genesis_hash = chain_.genesis_hash();
  s.head_number = chain_.height();
  return s;
}

std::optional<core::BlockHeader> FullNode::dao_header() const {
  const auto& config = chain_.config();
  if (!options_.enable_dao_challenge) return std::nullopt;
  if (!config.dao_fork_block) return std::nullopt;
  const core::Block* b = chain_.block_by_number(*config.dao_fork_block);
  if (b == nullptr) return std::nullopt;
  return b->header;
}

bool FullNode::check_dao_header(
    const std::optional<core::BlockHeader>& header) const {
  const auto& config = chain_.config();
  if (!config.dao_fork_block) return true;
  if (!header) return true;  // peer hasn't reached the fork yet
  if (header->number != *config.dao_fork_block) return false;
  const bool has_marker = header->extra_data == core::dao_fork_extra_data();
  return has_marker == config.dao_fork_support;
}

void FullNode::on_peer_active(const NodeId& peer, const Status& status) {
  init_session_buckets(peer);
  if (options_.eclipse.enabled)
    peer_first_seen_.try_emplace(peer, network_.loop().now());
  // start syncing if the peer's chain is heavier
  if (status.total_difficulty > chain_.head_total_difficulty())
    request_blocks(peer, status.head_hash, kSyncBatch);
}

void FullNode::init_session_buckets(const NodeId& peer) {
  if (!hardened()) return;
  PeerSession* s = peers_.session(peer);
  if (s == nullptr) return;
  const auto& h = options_.hardening;
  const SimTime t = network_.loop().now();
  s->block_bucket = TokenBucket{kBlocksPerSec, h.block_burst, h.block_burst, t};
  s->tx_bucket = TokenBucket{kTxsPerSec, h.tx_burst, h.tx_burst, t};
}

bool FullNode::known_invalid(const Hash256& hash) {
  if (!hardened() || !rejected_.contains(hash)) return false;
  ++counters_.invalid_cache_hits;
  return true;
}

bool FullNode::rate_limited(PeerSession* session,
                            TokenBucket PeerSession::*bucket, double cost,
                            const NodeId& from) {
  if (session == nullptr ||
      (session->*bucket).take(network_.loop().now(), cost))
    return false;
  ++counters_.rate_limited;
  peers_.note_spam(from);
  return true;
}

bool FullNode::fails_precheck(const core::Block& block, const Hash256& hash) {
  if (!hardened()) return false;
  const core::BlockHeader& h = block.header;
  if (h.extra_data.size() <= 32 &&
      block.ommers.size() <= core::Blockchain::kMaxOmmers &&
      block.transactions.size() <= 1024 && h.gas_used <= h.gas_limit &&
      !h.difficulty.is_zero())
    return false;
  ++counters_.precheck_rejections;
  rejected_.insert(hash);
  return true;
}

void FullNode::note_disputed(const core::BlockHeader& header,
                             const Hash256& hash) {
  if (!disputed_hashes_.insert(hash)) return;
  ++counters_.disputed_blocks;
  if (disputed_.count == 0) {
    disputed_.min_number = header.number;
    disputed_.max_number = header.number;
    disputed_.tip = hash;
  } else {
    disputed_.min_number = std::min(disputed_.min_number, header.number);
    if (header.number >= disputed_.max_number) {
      disputed_.max_number = header.number;
      disputed_.tip = hash;
    }
  }
  ++disputed_.count;
  // Persistent competing head, not a transient race: raise `divergence`
  // once. The node keeps following the branch header-only — no execution,
  // no blame — until a consensus patch resolves which rules were right.
  if (!disputed_.divergence_raised &&
      disputed_.count >= kDivergenceThreshold) {
    disputed_.divergence_raised = true;
    ++counters_.divergence_events;
    trace("fork_monitor", "divergence",
          {{"min", static_cast<std::int64_t>(disputed_.min_number)},
           {"max", static_cast<std::int64_t>(disputed_.max_number)}});
  }
}

void FullNode::apply_consensus_patch() {
  ++counters_.consensus_patches;
  trace("fork_monitor", "patch",
        {{"disputed", static_cast<std::int64_t>(disputed_.count)}});
  const DisputedRange range = disputed_;
  // Forget the dispute entirely (unlike rejected_, which is permanent):
  // the formerly-disputed hashes must be fetchable again so full
  // revalidation — and the deep reorg back to the majority chain — can run.
  disputed_hashes_.clear();
  disputed_ = DisputedRange{};
  if (range.count == 0 || !running_) return;
  const std::vector<NodeId> active = peers_.active_peers();
  if (active.empty()) return;  // the anti-entropy tick will pull us back
  // Pull the whole formerly-disputed branch from one active peer;
  // pending_fetch_ dedups concurrent asks, timeouts retry elsewhere, and
  // the still_orphaned deepening in the Blocks handler extends the window
  // if the branch outgrew what we tracked.
  const std::uint64_t span = range.max_number - range.min_number + 1;
  const std::uint32_t want = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(span + kSyncBatch, 256));
  request_blocks(active[rng_.uniform(active.size())], range.tip, want);
}

void FullNode::request_blocks(const NodeId& peer, const Hash256& head,
                              std::uint32_t count) {
  if (chain_.contains(head) || rejected_.contains(head) ||
      disputed_hashes_.contains(head))
    return;
  // Backpressure: the in-flight table is bounded so an announcement flood
  // of never-resolving hashes can't grow it (and its timer population)
  // without limit. Honest sync needs a handful of entries.
  if (!pending_fetch_.contains(head) && pending_fetch_.size() >= 4096) return;
  auto [it, inserted] = pending_fetch_.try_emplace(head);
  PendingFetch& req = it->second;
  if (!inserted) {
    // already in flight; just widen the window if this ask is bigger
    req.max_blocks = std::max(req.max_blocks, count);
    return;
  }
  req.peer = peer;
  req.origin = peer;
  req.max_blocks = count;
  req.token = ++next_fetch_token_;
  send(peer, Message{GetBlocks{head, req.max_blocks}});
  arm_fetch_timer(head, req.token, kSyncTimeout);
}

void FullNode::arm_fetch_timer(const Hash256& head, std::uint64_t token,
                               double timeout) {
  const std::uint64_t gen = generation_;
  network_.loop().schedule(timeout, [this, head, token, gen] {
    if (gen == generation_) on_fetch_timeout(head, token);
  });
}

void FullNode::on_fetch_timeout(const Hash256& head, std::uint64_t token) {
  auto it = pending_fetch_.find(head);
  if (it == pending_fetch_.end() || it->second.token != token) return;
  if (chain_.contains(head)) {  // satisfied via another path (push gossip)
    pending_fetch_.erase(it);
    return;
  }
  ++counters_.sync_timeouts;
  trace("sync", "timeout");
  PendingFetch& req = it->second;
  peers_.note_timeout(req.peer);
  if (req.attempt >= kSyncMaxRetries) {
    ++counters_.sync_gave_up;
    trace("sync", "gave_up");
    pending_fetch_.erase(it);
    return;
  }
  if (hardened()) {
    // Inventory-aware retry: only ask peers that also advertised the hash.
    // The un-hardened path sprays retries across random peers, which a
    // withholder weaponizes — every phantom announcement makes the victim
    // hand out note_timeout demerits to innocent neighbours. If nobody else
    // ever advertised it, the announcement was a phantom: charge the
    // announcer and stop chasing it.
    std::vector<NodeId> informed;
    for (const NodeId& p : peers_.active_peers()) {
      if (p == req.peer) continue;
      const PeerSession* s = peers_.session(p);
      if (s != nullptr && s->knows(head)) informed.push_back(p);
    }
    if (informed.empty()) {
      ++counters_.withheld;
      if (peers_.session(req.origin) != nullptr)
        peers_.note_garbage(req.origin);
      ++counters_.sync_gave_up;
      trace("sync", "gave_up");
      pending_fetch_.erase(it);
      return;
    }
    req.peer = informed[rng_.uniform(informed.size())];
  } else {
    // re-request, preferring a different active peer than the one that
    // failed us; with nobody else around, retry the same peer if its
    // session survived, else give up until a new peer activates
    std::vector<NodeId> candidates = peers_.active_peers();
    std::erase(candidates, req.peer);
    if (!candidates.empty()) {
      req.peer = candidates[rng_.uniform(candidates.size())];
    } else if (peers_.session(req.peer) == nullptr) {
      pending_fetch_.erase(it);
      return;
    }
  }
  ++req.attempt;
  ++counters_.sync_retries;
  trace("sync", "retry", {{"attempt", static_cast<std::int64_t>(req.attempt)}});
  req.token = ++next_fetch_token_;
  send(req.peer, Message{GetBlocks{head, req.max_blocks}});
  arm_fetch_timer(head, req.token,
                  kSyncTimeout * std::pow(kSyncBackoff, req.attempt));
}

void FullNode::handle_eth(const NodeId& from, const Payload& payload) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        PeerSession* session = peers_.session(from);

        if constexpr (std::is_same_v<T, NewBlock>) {
          const Hash256 hash = m.block.hash();
          if (session) session->mark_known(hash);
          // staged ingress, cheapest stage first; only import executes
          if (known_invalid(hash)) {
            peers_.note_garbage(from);  // re-pushing a block we rejected
            return;
          }
          if (rate_limited(session, &PeerSession::block_bucket, 1.0, from))
            return;
          if (fails_precheck(m.block, hash)) {
            peers_.note_garbage(from);
            return;
          }
          if (hardened() && session != nullptr &&
              session->note_child(m.block.header.parent_hash, hash) >=
                  kEquivocationThreshold) {
            ++counters_.equivocations;
            peers_.note_garbage(from);
            return;
          }
          if (chain_.contains(hash)) ++counters_.duplicate_block_pushes;
          pending_fetch_.erase(hash);
          if (disputed_hashes_.contains(hash)) return;  // header-followed
          import_and_relay(from, m.block, hash);
        } else if constexpr (std::is_same_v<T, NewBlockHashes>) {
          if (rate_limited(session, &PeerSession::block_bucket,
                           static_cast<double>(m.hashes.size()), from))
            return;
          for (const Hash256& h : m.hashes) {
            if (session) session->mark_known(h);
            // never re-fetch a hash our rules already condemned
            if (known_invalid(h)) continue;
            if (!chain_.contains(h)) request_blocks(from, h, 1);
          }
        } else if constexpr (std::is_same_v<T, GetBlocks>) {
          // serve at most 256 blocks per request regardless of what was
          // asked — honest sync batches are 32, so only a resource-
          // exhaustion request ever sees the clamp
          const std::uint32_t serve_limit =
              std::min<std::uint32_t>(m.max_blocks, 256u);
          Blocks reply;
          Hash256 cursor = m.head;
          while (reply.blocks.size() < serve_limit) {
            const core::Block* b = chain_.block_by_hash(cursor);
            if (b == nullptr) break;
            reply.blocks.push_back(*b);
            if (b->header.number == 0) break;
            cursor = b->header.parent_hash;
          }
          // oldest first so the receiver can import in order
          std::reverse(reply.blocks.begin(), reply.blocks.end());
          if (!reply.blocks.empty()) send(from, Message{std::move(reply)});
        } else if constexpr (std::is_same_v<T, Blocks>) {
          bool still_orphaned = false;
          bool wrong_fork = false;
          bool useful = false;
          bool garbage = false;
          Hash256 deepest_missing;
          // each block is hashed once; the scan and the import loop share it
          std::vector<Hash256> hashes;
          hashes.reserve(m.blocks.size());
          for (const core::Block& b : m.blocks) hashes.push_back(b.hash());
          // a reply that matches one of our in-flight fetches is solicited:
          // its orphans are sync state, not flood fodder
          const bool solicited = std::any_of(
              hashes.begin(), hashes.end(),
              [&](const Hash256& h) { return pending_fetch_.contains(h); });
          // replies we asked for are exempt from the rate limit — deep sync
          // legitimately delivers large batches in bursts
          if (!solicited &&
              rate_limited(session, &PeerSession::block_bucket,
                           static_cast<double>(m.blocks.size()), from))
            return;
          for (std::size_t i = 0; i < m.blocks.size(); ++i) {
            const core::Block& b = m.blocks[i];
            const Hash256& hash = hashes[i];
            if (session) session->mark_known(hash);
            pending_fetch_.erase(hash);
            if (disputed_hashes_.contains(hash)) continue;  // header-followed
            // a cache hit is absorbed: no re-validation, no re-execution
            if (known_invalid(hash) || fails_precheck(b, hash)) {
              garbage = true;
              continue;
            }
            // no relay and no pool pruning here; the peer is credited or
            // blamed once for the whole batch
            const auto outcome = import_block(b, hash);
            const core::ImportResult result = outcome.result;
            if (result == core::ImportResult::kImported) {
              useful = true;
              if (outcome.became_head) after_head_change();
            } else if (result == core::ImportResult::kUnknownParent) {
              add_orphan(b, hash, solicited);
              if (!still_orphaned) {
                still_orphaned = true;
                deepest_missing = b.header.parent_hash;
              }
            } else if (result == core::ImportResult::kWrongFork) {
              wrong_fork = true;
            } else if (result != core::ImportResult::kAlreadyKnown &&
                       result != core::ImportResult::kDisputed) {
              garbage = true;  // invalid; a dispute is never garbage
            }
          }
          try_orphans();
          if (wrong_fork && options_.drop_wrong_fork_peers) {
            // the peer served the other side's fork block: sever the link
            peers_.disconnect(from, DisconnectReason::kWrongFork);
            return;
          }
          if (useful) peers_.note_useful(from);
          if (garbage) peers_.note_garbage(from);
          if (still_orphaned && !chain_.contains(deepest_missing)) {
            // deepen the sync window
            request_blocks(from, deepest_missing, kSyncBatch);
          }
        } else if constexpr (std::is_same_v<T, Transactions>) {
          if (rate_limited(session, &PeerSession::tx_bucket,
                           static_cast<double>(m.transactions.size()), from))
            return;
          // each transaction is hashed once per payload, whoever else
          // received it; the pool and the relay reuse that hash
          const std::vector<Hash256>& hashes = payload.tx_hashes();
          Transactions fresh;
          std::vector<Hash256> fresh_hashes;
          std::size_t junk = 0;
          for (std::size_t i = 0; i < m.transactions.size(); ++i) {
            const core::Transaction& tx = m.transactions[i];
            const Hash256& hash = hashes[i];
            if (session) session->mark_known(hash);
            const auto result =
                pool_.add(tx, hash, chain_.head_state(), chain_.height());
            ++counters_.txs_received;
            if (result == core::PoolAddResult::kAdded ||
                result == core::PoolAddResult::kReplacedExisting) {
              fresh.transactions.push_back(tx);
              fresh_hashes.push_back(hash);
            }
            // hard rejects only: duplicates and nonce races happen between
            // honest gossipers, piles of invalid transactions do not
            if (result == core::PoolAddResult::kInvalidSignature ||
                result == core::PoolAddResult::kWrongChainId ||
                result == core::PoolAddResult::kUnderpriced)
              ++junk;
          }
          if (hardened() && junk >= kTxJunkThreshold)
            peers_.note_garbage(from);  // a spam batch, not a gossip race
          if (!fresh.transactions.empty())
            relay_transactions(std::move(fresh), fresh_hashes, from);
        } else {
          // discovery / session messages never reach here
        }
      },
      *payload.message());
}

void FullNode::import_and_relay(const NodeId& from, const core::Block& block,
                                const Hash256& hash) {
  const auto outcome = import_block(block, hash);
  switch (outcome.result) {
    case core::ImportResult::kImported:
      peers_.note_useful(from);
      pool_.remove_included(block.transactions, chain_.head_state());
      relay_block(block, hash, outcome.became_head);
      try_orphans();
      if (outcome.became_head) after_head_change();
      break;
    case core::ImportResult::kUnknownParent:
      add_orphan(block, hash, /*solicited=*/false);
      request_blocks(from, block.header.parent_hash, kSyncBatch);
      break;
    case core::ImportResult::kWrongFork:
      // a peer pushing the other side's fork block is on the other network
      if (options_.drop_wrong_fork_peers)
        peers_.disconnect(from, DisconnectReason::kWrongFork);
      break;
    case core::ImportResult::kAlreadyKnown:
    // an honest peer on the other side of a consensus bug: no demerit, no
    // disconnect (the friendly-fire failure the fork monitor prevents)
    case core::ImportResult::kDisputed:
      break;
    default:
      peers_.note_garbage(from);  // structurally invalid push
      break;
  }
}

void FullNode::after_head_change() {
  // head progress is the isolation detector's liveness signal: it both
  // resets the staleness clock and re-arms the one-shot suspicion
  last_head_change_time_ = network_.loop().now();
  eclipse_suspected_ = false;
  // crossing the fork height: cross-examine every existing peer once, the
  // way geth re-checked established sessions when the DAO fork activated
  const auto& config = chain_.config();
  if (options_.enable_dao_challenge && !rechallenged_at_fork_ &&
      config.dao_fork_block && chain_.height() >= *config.dao_fork_block) {
    rechallenged_at_fork_ = true;
    for (const NodeId& peer : peers_.active_peers())
      peers_.rechallenge(peer);
  }
  trace("chain", "head",
        {{"height", static_cast<std::int64_t>(chain_.height())}});
  if (on_head_changed) on_head_changed();
}

void FullNode::update_orphan_gauge() {
  obs::set(tm_orphan_occ_, static_cast<double>(orphan_order_.size()));
}

void FullNode::add_orphan(const core::Block& block, const Hash256& hash,
                          bool solicited) {
  auto& bucket = orphans_[block.header.parent_hash];
  for (const Orphan& o : bucket)
    if (o.hash == hash) return;  // duplicate orphan
  bucket.push_back(Orphan{block, hash});
  orphan_order_.push_back(
      OrphanRef{block.header.parent_hash, hash, solicited});
  while (orphan_order_.size() > options_.max_orphans) {
    // evict the oldest unsolicited orphan (flood fodder) before touching
    // sync state; fall back to the overall oldest if everything was asked
    // for
    auto victim_it = std::find_if(
        orphan_order_.begin(), orphan_order_.end(),
        [](const OrphanRef& r) { return !r.solicited; });
    if (victim_it == orphan_order_.end()) victim_it = orphan_order_.begin();
    const OrphanRef victim = *victim_it;
    orphan_order_.erase(victim_it);
    ++counters_.orphan_evictions;
    auto it = orphans_.find(victim.parent);
    if (it == orphans_.end()) continue;  // bucket already imported/evicted
    std::erase_if(it->second,
                  [&](const Orphan& o) { return o.hash == victim.hash; });
    if (it->second.empty()) orphans_.erase(it);
  }
  update_orphan_gauge();
}

void FullNode::try_orphans() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (!chain_.contains(it->first)) {
        ++it;
        continue;
      }
      const Hash256 parent = it->first;
      const std::vector<Orphan> children = std::move(it->second);
      it = orphans_.erase(it);
      std::erase_if(orphan_order_,
                    [&](const OrphanRef& r) { return r.parent == parent; });
      for (const auto& [block, hash] : children) {
        const auto outcome = import_block(block, hash);
        if (outcome.result != core::ImportResult::kImported) continue;
        relay_block(block, hash, outcome.became_head);
        if (outcome.became_head) after_head_change();
        progress = true;
      }
    }
  }
  update_orphan_gauge();
}

void FullNode::relay_block(const core::Block& block, const Hash256& hash,
                           bool became_head) {
  // Hardened nodes only forward blocks that advanced their own head: a
  // flood of valid same-parent siblings (equivocation) dies at the first
  // honest hop instead of being amplified, and the sibling detector can
  // then never fire on an honest relay.
  if (hardened() && !became_head) return;
  std::vector<NodeId> targets;
  for (const NodeId& peer : peers_.active_peers()) {
    PeerSession* session = peers_.session(peer);
    if (session && !session->knows(hash)) targets.push_back(peer);
  }
  auto [push, announce] =
      split_for_gossip(std::move(targets), options_.gossip, rng_);
  // one payload per message kind, shared by every peer that gets it
  if (!push.empty()) {
    const U256 td = chain_.total_difficulty_of(hash);
    const PayloadPtr payload =
        make_payload(encode_message(Message{NewBlock{block, td}}));
    for (const NodeId& peer : push) {
      peers_.session(peer)->mark_known(hash);
      network_.send(id_, peer, payload);
    }
  }
  if (!announce.empty()) {
    const PayloadPtr payload =
        make_payload(encode_message(Message{NewBlockHashes{{hash}}}));
    for (const NodeId& peer : announce) {
      peers_.session(peer)->mark_known(hash);
      network_.send(id_, peer, payload);
    }
  }
}

void FullNode::relay_transactions(Transactions batch,
                                  const std::vector<Hash256>& hashes,
                                  const std::optional<NodeId>& skip) {
  const Message full{std::move(batch)};
  const std::vector<core::Transaction>& txs =
      std::get<Transactions>(full).transactions;
  // Every peer that knows none of the batch gets the same payload, so the
  // batch is encoded at most once; a peer that already knows some of it
  // gets its own encoding of the rest.
  PayloadPtr full_payload;
  std::vector<std::size_t> unknown;
  for (const NodeId& peer : peers_.active_peers()) {
    if (skip && peer == *skip) continue;
    PeerSession* session = peers_.session(peer);
    if (session == nullptr) continue;
    unknown.clear();
    for (std::size_t i = 0; i < txs.size(); ++i) {
      if (session->knows(hashes[i])) continue;
      session->mark_known(hashes[i]);
      unknown.push_back(i);
    }
    if (unknown.empty()) continue;
    if (unknown.size() == txs.size()) {
      if (!full_payload) full_payload = make_payload(encode_message(full));
      network_.send(id_, peer, full_payload);
    } else {
      Transactions rest;
      for (const std::size_t i : unknown) rest.transactions.push_back(txs[i]);
      send(peer, Message{std::move(rest)});
    }
  }
}

core::PoolAddResult FullNode::submit_transaction(const core::Transaction& tx) {
  const Hash256 hash = tx.hash();
  const auto result =
      pool_.add(tx, hash, chain_.head_state(), chain_.height());
  if (result == core::PoolAddResult::kAdded ||
      result == core::PoolAddResult::kReplacedExisting)
    relay_transactions(Transactions{{tx}}, {hash}, std::nullopt);
  return result;
}

core::ImportOutcome FullNode::submit_block(const core::Block& block) {
  const Hash256 hash = block.hash();
  const auto outcome = import_block(block, hash, /*mined_here=*/true);
  if (outcome.result == core::ImportResult::kImported) {
    pool_.remove_included(block.transactions, chain_.head_state());
    relay_block(block, hash, outcome.became_head);
    if (outcome.became_head) after_head_change();
  }
  return outcome;
}

}  // namespace forksim::sim
