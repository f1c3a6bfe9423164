// Peer session management for the eth sub-protocol.
//
// Lifecycle: candidate -> handshaking (Status sent) -> (optional DAO
// challenge) -> active -> disconnected. Sessions die on genesis/network-id
// mismatch or a failed DAO challenge — the second mechanism is how the
// partition physically manifests at the networking layer: after block
// 1,920,000, ETH nodes request the fork-height header from every new peer
// and drop those whose header lacks the fork marker (and vice versa), so
// the two populations stop exchanging blocks entirely.
//
// Each session tracks a bounded "known inventory" of block and transaction
// hashes so gossip never echoes an announcement back to its source.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "p2p/messages.hpp"

namespace forksim::p2p {

enum class PeerState {
  kHandshaking,
  kAwaitingDaoHeader,
  kActive,
};

/// Deterministic per-peer rate limiter. Refills continuously at `rate`
/// tokens per sim-second up to `capacity`; a disabled bucket (rate == 0)
/// admits everything, so un-hardened nodes pay nothing. Refill is computed
/// from sim time only — no wall clock — so same-seed runs stay bit-identical.
struct TokenBucket {
  double rate = 0.0;      // tokens per sim-second; 0 = unlimited
  double capacity = 0.0;  // burst ceiling
  double tokens = 0.0;
  SimTime last = 0.0;

  bool enabled() const noexcept { return rate > 0.0; }

  /// Refill up to `now`, then try to take `cost` tokens. Returns true if
  /// admitted. Disabled buckets always admit.
  bool take(SimTime now, double cost = 1.0);
};

/// At most kCapacity hashes, forgetting the oldest insertion first (FIFO:
/// re-inserting does not refresh), so a hash flood cannot grow it.
class BoundedHashSet {
 public:
  static constexpr std::size_t kCapacity = 4096;

  /// Returns false (and changes nothing) if `h` is already present.
  bool insert(const Hash256& h);
  bool contains(const Hash256& h) const { return set_.contains(h); }
  void clear() { set_.clear(); order_.clear(); }

 private:
  std::unordered_set<Hash256, Hash256Hasher> set_;
  std::deque<Hash256> order_;
};

struct PeerSession {
  PeerState state = PeerState::kHandshaking;
  Status remote;  // valid once past handshaking
  bool inbound = false;
  /// Maintenance ticks spent in a non-active state (handshake may be lost
  /// on the wire; stalled sessions are reaped so the dialer can retry).
  std::uint32_t stalled_ticks = 0;
  /// Behaviour score: useful blocks move it up, request timeouts and
  /// garbage move it down; at PeerPolicy::ban_score the peer is dropped
  /// and temporarily banned.
  int score = 0;
  /// Sim time of the last message received from this peer (liveness).
  SimTime last_message = 0;
  /// A keepalive ping is outstanding (sent by reap_stalled; any inbound
  /// message clears it).
  bool ping_outstanding = false;

  /// Bounded inventory of hashes this peer is known to have.
  BoundedHashSet known;

  void mark_known(const Hash256& h) { known.insert(h); }
  bool knows(const Hash256& h) const { return known.contains(h); }

  /// Ingress rate limits (disabled unless the owning node opts into
  /// hardening): one bucket for block-bearing traffic, one for transactions.
  TokenBucket block_bucket;
  TokenBucket tx_bucket;

  /// Distinct children of each parent this session has announced — the
  /// equivocation detector. Honest peers relay at most the children that
  /// became head; a peer pushing many siblings of one parent is splitting
  /// the network on purpose. Bounded to the most recent 256 parents.
  std::unordered_map<Hash256, std::vector<Hash256>, Hash256Hasher>
      children_seen;
  std::deque<Hash256> children_order;

  /// Record that this session announced `child` under `parent`; returns how
  /// many distinct children of `parent` it has now announced.
  std::size_t note_child(const Hash256& parent, const Hash256& child);
};

/// Knobs for peer scoring, banning, and liveness probing.
struct PeerPolicy {
  /// Session score at (or below) which a peer is dropped and banned.
  int ban_score = -5;
  /// Score ceiling so long-lived good peers can't bank unlimited credit.
  int max_score = 8;
  /// How long a banned peer stays un-dialable (sim seconds).
  double ban_seconds = 180.0;
  /// Active peer silent for this long -> send a keepalive ping.
  double ping_after = 30.0;
  /// Still silent this long after the ping -> drop as unresponsive. This
  /// is what unsticks sessions to crashed peers (churn): the remote never
  /// said goodbye, so only silence gives it away.
  double drop_after = 90.0;
  /// Eclipse-resistance slot split: cap on concurrent inbound sessions, so
  /// an inbound flood can never exhaust the outbound dial headroom.
  /// 0 = unlimited (the legacy behavior).
  std::size_t max_inbound = 0;
  /// Cap on inbound sessions sharing one group (the sim's region oracle
  /// standing in for IP prefixes); needs a group fn installed to bind.
  /// 0 = unlimited.
  std::size_t inbound_group_cap = 0;
};

class PeerSet {
 public:
  struct Callbacks {
    std::function<void(const NodeId& to, const Message&)> send;
    std::function<Status()> make_status;
    /// Header at the DAO fork height on our canonical chain (nullopt if not
    /// reached / no fork scheduled).
    std::function<std::optional<core::BlockHeader>()> dao_header;
    /// Validate a peer's DAO-challenge response; true = keep the peer.
    std::function<bool(const std::optional<core::BlockHeader>&)>
        check_dao_header;
    /// A peer became active (sync can start).
    std::function<void(const NodeId&, const Status&)> on_active;
    /// A peer went away (any reason).
    std::function<void(const NodeId&, DisconnectReason)> on_drop;
    /// Current sim time (ban expiry and liveness tracking).
    std::function<SimTime()> now;
  };

  PeerSet(std::uint64_t network_id, Hash256 genesis_hash,
          std::size_t max_peers, Callbacks callbacks,
          PeerPolicy policy = PeerPolicy())
      : network_id_(network_id),
        genesis_hash_(genesis_hash),
        max_peers_(max_peers),
        cb_(std::move(callbacks)),
        policy_(policy) {}

  /// Region/AS oracle for PeerPolicy::inbound_group_cap.
  using GroupFn = std::function<std::uint32_t(const NodeId&)>;
  void set_group_fn(GroupFn fn) { group_fn_ = std::move(fn); }

  std::size_t active_count() const;
  std::size_t session_count() const noexcept { return sessions_.size(); }
  std::size_t inbound_count() const;
  bool connected_to(const NodeId& id) const { return sessions_.contains(id); }
  bool has_capacity() const { return sessions_.size() < max_peers_; }

  PeerSession* session(const NodeId& id);
  const PeerSession* session(const NodeId& id) const;

  /// Active peer ids.
  std::vector<NodeId> active_peers() const;

  /// Initiate an outbound session (sends Status). Returns false (no-op) if
  /// already known, at capacity, or the peer is banned.
  bool connect(const NodeId& id);

  /// Drop a session and notify the remote.
  void disconnect(const NodeId& id, DisconnectReason reason);

  /// Record an inbound message from `id` (refreshes liveness).
  void touch(const NodeId& id);

  /// Scoring: a useful delivery (+1, capped), a request timeout (-1), or
  /// garbage on the wire (-3). Hitting PeerPolicy::ban_score drops and
  /// bans the peer.
  void note_useful(const NodeId& id);
  void note_timeout(const NodeId& id);
  void note_garbage(const NodeId& id);
  /// Mild demerit (-1) for traffic rejected by a rate limiter or flood
  /// heuristic: each event is individually benign but a sustained flood
  /// accumulates to a ban while one honest burst does not.
  void note_spam(const NodeId& id);

  bool is_banned(const NodeId& id) const;
  /// Whether `id` was ever score-banned by this set, regardless of whether
  /// the ban has since lapsed (adversary-test oracle).
  bool ever_banned(const NodeId& id) const {
    return ban_history_.contains(id);
  }

  /// Forget all sessions without notifying anyone — a crashed node's
  /// half-open sessions are meaningless after it restarts. Bans survive.
  void reset();

  /// Handle a session-layer message; returns true if consumed.
  bool handle(const NodeId& from, const Message& msg);

  /// Re-run the DAO challenge against an already-active peer (used when our
  /// own chain reaches the fork height after the session was established —
  /// geth re-examined existing peers the same way).
  void rechallenge(const NodeId& id);

  /// One maintenance pass: age non-active sessions by a tick and drop any
  /// stuck for more than `max_ticks` (lost handshakes on a lossy network);
  /// ping active sessions silent past PeerPolicy::ping_after and drop
  /// those silent past drop_after (crashed peers that never said goodbye);
  /// prune expired bans. Returns the number of sessions reaped.
  std::size_t reap_stalled(std::uint32_t max_ticks);

  /// Telemetry: how many peers were dropped for being on the wrong fork.
  std::uint64_t wrong_fork_drops() const noexcept { return wrong_fork_drops_; }
  /// Telemetry: peers score-banned as unresponsive or garbage-sending.
  std::uint64_t bans() const noexcept { return bans_; }
  /// Telemetry: active sessions dropped by the liveness probe.
  std::uint64_t liveness_drops() const noexcept { return liveness_drops_; }
  /// Telemetry: spam demerits handed out (rate-limit / flood rejections).
  std::uint64_t spam_penalties() const noexcept { return spam_penalties_; }
  /// Telemetry: inbound handshakes bounced by the slot split / group caps.
  std::uint64_t inbound_rejections() const noexcept {
    return inbound_rejections_;
  }

  /// Ids of every session, whatever its state (eclipse recovery drops the
  /// whole set, handshaking sybils included).
  std::vector<NodeId> session_ids() const;

  /// Bind the counts above into `reg` as peers.* counters. Multiple
  /// PeerSets (one per node) may attach to the same registry; the named
  /// counters then aggregate across the whole population. The spam and
  /// inbound-rejection counters appear only from their first event, so
  /// runs without adversaries or eclipse defenses keep their metric set
  /// (golden fingerprints hash every registered name).
  void attach_telemetry(obs::Registry& reg);

 private:
  void on_status(const NodeId& from, const Status& status);
  bool inbound_over_caps(const NodeId& from) const;
  void activate(const NodeId& id);
  void drop(const NodeId& id, DisconnectReason reason, bool notify_remote);
  void penalize(const NodeId& id, int amount);
  SimTime now() const { return cb_.now ? cb_.now() : 0; }

  std::uint64_t network_id_;
  Hash256 genesis_hash_;
  std::size_t max_peers_;
  Callbacks cb_;
  PeerPolicy policy_;
  std::unordered_map<NodeId, PeerSession, NodeIdHasher> sessions_;
  /// Banned peer -> sim time the ban lifts.
  std::unordered_map<NodeId, SimTime, NodeIdHasher> banned_;
  /// Every peer this set has ever score-banned (never pruned).
  std::unordered_set<NodeId, NodeIdHasher> ban_history_;
  GroupFn group_fn_;
  std::uint64_t wrong_fork_drops_ = 0;
  std::uint64_t bans_ = 0;
  std::uint64_t liveness_drops_ = 0;
  std::uint64_t spam_penalties_ = 0;
  std::uint64_t inbound_rejections_ = 0;
};

}  // namespace forksim::p2p
