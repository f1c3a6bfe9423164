// Byzantine adversary agents: hostile participants riding the same
// SimNet/FullNode machinery as honest nodes. Each adversary keeps its
// host's honest plumbing (discovery, handshakes, the DAO challenge, serving
// real blocks) so its sessions look legitimate, and injects attack traffic
// by sending raw wire messages to the host's active peers:
//
//   kInvalidForger  — pushes structurally/consensus-invalid blocks built on
//                     real ancestors at a configurable depth; the defect
//                     picks which validation stage the victim pays for
//   kWithholder     — advertises head hashes it never serves, stalling the
//                     victims' GetBlocks pipeline
//   kTxSpammer      — floods pools with admitted-but-worthless, duplicate,
//                     underpriced, and nonce-gapped transactions
//   kEquivocator    — announces conflicting siblings of the same parent to
//                     disjoint peer subsets
//
// The honest-node defenses these exercise live in sim/node.*
// (HardeningOptions), p2p/peers.* (scoring, token buckets), and
// core/txpool.* (eviction); bench/ablate_adversary.cpp measures them.
//
// EclipseAdversary (below) is the discovery-layer counterpart: instead of
// one hostile node it operates a swarm of minted sybil identities attacking
// a single victim's routing table and connection slots. Its defenses live
// in p2p/discovery.* (DiscoveryDefense), p2p/peers.* (inbound caps), and
// sim/node.* (EclipseDefenseOptions); bench/ablate_eclipse.cpp measures
// them.
#pragma once

#include <unordered_set>

#include "obs/metrics.hpp"
#include "sim/node.hpp"

namespace forksim::sim {

enum class AdversaryKind {
  kInvalidForger,
  kWithholder,
  kTxSpammer,
  kEquivocator,
};

/// Which defect a forged block carries — each targets a different stage of
/// the victim's ingress pipeline.
enum class ForgeDefect {
  /// Correct header and transactions root, garbage state root: the victim
  /// pays a full execution before the commitment check fails. The
  /// worst-case wasted work a forger can impose.
  kBadStateRoot,
  /// Difficulty that doesn't match the retarget rule: caught by the cheap
  /// header validation, no execution.
  kBadDifficulty,
  /// Oversized extra_data: a hardened victim rejects it in the structural
  /// precheck before any consensus rule runs; an un-hardened one executes
  /// the body first (the state root is garbage too) — the precheck's value
  /// in one defect.
  kBadStructure,
};

struct AdversaryOptions {
  AdversaryKind kind = AdversaryKind::kInvalidForger;
  /// Sim seconds between attack rounds.
  double interval = 10.0;
  /// Forger: what is wrong with the forged block.
  ForgeDefect defect = ForgeDefect::kBadStateRoot;
  /// Spammer: transactions per round.
  std::size_t spam_batch = 48;
};

struct AdversaryCounters {
  std::uint64_t rounds = 0;
  std::uint64_t blocks_forged = 0;
  std::uint64_t phantom_announcements = 0;
  std::uint64_t txs_spammed = 0;
  std::uint64_t equivocations = 0;
};

class Adversary {
 public:
  Adversary(FullNode& host, AdversaryOptions options, Rng rng);

  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  FullNode& host() noexcept { return host_; }
  const AdversaryOptions& options() const noexcept { return options_; }
  const AdversaryCounters& counters() const noexcept { return counters_; }

  /// Bind counters() into `reg` as adversary.* metrics. Only attack runs
  /// call this, so honest registries (and their golden fingerprints) keep
  /// exactly the pre-existing metric set.
  void attach_telemetry(obs::Registry& reg);

 private:
  void tick();
  void schedule_next();
  std::vector<p2p::NodeId> targets() const;
  void send_raw(const std::vector<p2p::NodeId>& to, const p2p::Message& msg);

  void run_forger();
  void run_withholder();
  void run_spammer();
  void run_equivocator();

  core::Block forge_block();

  FullNode& host_;
  AdversaryOptions options_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  // invalidates pending ticks on stop()
  AdversaryCounters counters_;
  /// Recently forged blocks, kept for re-pushes (bounded ring).
  std::vector<core::Block> forged_;
  std::size_t repush_cursor_ = 0;
  std::vector<PrivateKey> spam_keys_;
  std::vector<std::uint64_t> spam_nonces_;
  std::vector<core::Transaction> last_fillers_;
  std::uint64_t spam_seq_ = 0;
  std::uint64_t forge_seq_ = 0;
  std::uint64_t phantom_seq_ = 0;
};

// ------------------------------------------------------------------ eclipse

struct EclipseOptions {
  /// The node under attack.
  p2p::NodeId victim;
  /// Honest nodes whose inbound slots the swarm also floods — the victim's
  /// bootstrap seeds, so its outbound dials bounce with kTooManyPeers.
  std::vector<p2p::NodeId> slot_targets;
  /// Sybil identities minted against the victim's buckets.
  std::size_t sybil_budget = 32;
  /// Sim seconds between attack rounds.
  double interval = 2.0;
};

struct EclipseCounters {
  std::uint64_t rounds = 0;
  /// Ping / unsolicited-Neighbors messages poisoning the victim's table.
  std::uint64_t table_floods = 0;
  /// Status handshakes pushed at the victim and the slot targets.
  std::uint64_t status_floods = 0;
  /// FIND_NODE queries answered with sybil-only candidate sets.
  std::uint64_t lookups_answered = 0;
  /// GetBlocks requests silently dropped (the starvation half of the
  /// attack: sybil peers never serve a block).
  std::uint64_t withheld_requests = 0;
};

/// A sybil swarm eclipsing one victim. The agent mints `sybil_budget`
/// NodeIds keccak-ground into the victim's near buckets (XOR-closer than
/// any random honest id, so the victim's own closest()-ordered dialer
/// prefers them), attaches each as a live transport on the host's network,
/// floods Ping/Neighbors to poison the table, answers lookups with only
/// sybil ids, pushes handshakes to monopolize connection slots at the
/// victim and its seeds, and withholds every block. Minting and attack
/// traffic are pure keccak + schedule — the agent draws no Rng at all, so
/// eclipse-free configurations replay bit-identically.
class EclipseAdversary {
 public:
  /// `host` supplies the network, event loop, and the chain whose genesis
  /// the sybils impersonate; it keeps behaving honestly under its own id.
  EclipseAdversary(FullNode& host, EclipseOptions options);
  ~EclipseAdversary();

  EclipseAdversary(const EclipseAdversary&) = delete;
  EclipseAdversary& operator=(const EclipseAdversary&) = delete;

  /// Attach the sybil transports and start attack rounds.
  void start();
  /// Detach every sybil and stop.
  void stop();
  bool running() const noexcept { return running_; }

  /// Forget every engagement and push fresh handshakes immediately (not at
  /// the next tick). The runner calls this when it reboots a victim: the
  /// canonical eclipse lands at (re)start, when the victim's slots are
  /// empty — the swarm must claim them before any honest dial does.
  void reengage();

  FullNode& host() noexcept { return host_; }
  const EclipseOptions& options() const noexcept { return options_; }
  const EclipseCounters& counters() const noexcept { return counters_; }
  const std::vector<p2p::NodeId>& sybils() const noexcept { return sybils_; }
  bool is_sybil(const p2p::NodeId& id) const {
    return sybil_index_.contains(id);
  }

  /// Bind counters() as adversary.eclipse.* metrics (attack runs only,
  /// like Adversary::attach_telemetry).
  void attach_telemetry(obs::Registry& reg);

  /// Deterministic sybil minting, exposed for tests: grind a keccak nonce
  /// until keccak("forksim/sybil" || victim || k || nonce) lands in bucket
  /// 240 + (k % 8) of the victim's table. A random honest id sits in
  /// bucket ~255; one below 248 is a ~2^-8 event, so every minted id is
  /// XOR-closer to the victim than essentially all honest nodes.
  static p2p::NodeId mint_sybil(const p2p::NodeId& victim, std::uint64_t k);

 private:
  void tick();
  void schedule_next();
  void on_sybil_message(std::size_t index, const p2p::NodeId& from,
                        const p2p::Payload& payload);
  void send_from(const p2p::NodeId& sybil, const p2p::NodeId& to,
                 const p2p::Message& msg);
  /// Handshake-flood `target` from sybil `index` unless already engaged.
  void push_handshake(std::size_t index, const p2p::NodeId& target);
  p2p::Status crafted_status() const;
  std::vector<p2p::NodeId> sybils_closest_to(const p2p::NodeId& target) const;

  FullNode& host_;
  EclipseOptions options_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  // invalidates pending ticks on stop()
  EclipseCounters counters_;
  std::vector<p2p::NodeId> sybils_;
  std::unordered_map<p2p::NodeId, std::size_t, p2p::NodeIdHasher>
      sybil_index_;
  /// Per-sybil set of peers this sybil already pushed (or answered) a
  /// Status to. Gates the handshake flood — and, critically, stops a sybil
  /// from answering Status with Status forever (the re-handshake path on
  /// an active session would echo indefinitely). Cleared every few
  /// rounds (adversary.cpp) so reaped sessions get re-established.
  std::vector<std::unordered_set<p2p::NodeId, p2p::NodeIdHasher>> engaged_;
};

}  // namespace forksim::sim
