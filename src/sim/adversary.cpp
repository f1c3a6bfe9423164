#include "sim/adversary.hpp"

#include <algorithm>

#include "core/difficulty.hpp"
#include "crypto/keccak.hpp"

namespace forksim::sim {

using namespace p2p;

namespace {

/// Forger: how many blocks below the host's head the forged block's parent
/// sits, and previously-forged blocks re-pushed per round (a hardened
/// victim absorbs these from its known-invalid cache at zero cost).
constexpr core::BlockNumber kForgeDepth = 0;
constexpr std::size_t kForgeRepush = 2;
/// Spammer: distinct junk sender keys.
constexpr std::size_t kSpamAccounts = 8;
/// Equivocator: conflicting siblings announced per round.
constexpr std::size_t kEquivocationFanout = 6;
/// Withholder: phantom hashes announced per round.
constexpr std::size_t kWithholdBatch = 4;
/// Eclipse swarm: attack rounds between engagement resets — the swarm
/// re-floods Status at its targets this often, re-establishing any session
/// the victim reaped.
constexpr std::uint64_t kReengageRounds = 8;

}  // namespace

Adversary::Adversary(FullNode& host, AdversaryOptions options, Rng rng)
    : host_(host), options_(options), rng_(rng) {
  spam_keys_.reserve(kSpamAccounts);
  for (std::size_t i = 0; i < kSpamAccounts; ++i)
    spam_keys_.push_back(PrivateKey::from_seed(rng_.next()));
  spam_nonces_.assign(spam_keys_.size(), 0);
}

void Adversary::attach_telemetry(obs::Registry& reg) {
  reg.bind("adversary.rounds", counters_.rounds);
  reg.bind("adversary.blocks_forged", counters_.blocks_forged);
  reg.bind("adversary.phantom_announcements", counters_.phantom_announcements);
  reg.bind("adversary.txs_spammed", counters_.txs_spammed);
  reg.bind("adversary.equivocations", counters_.equivocations);
}

void Adversary::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void Adversary::stop() {
  running_ = false;
  ++generation_;
}

void Adversary::schedule_next() {
  const std::uint64_t gen = generation_;
  host_.network().loop().schedule(options_.interval, [this, gen] {
    if (gen != generation_ || !running_) return;
    tick();
  });
}

void Adversary::tick() {
  if (host_.running()) {
    ++counters_.rounds;
    switch (options_.kind) {
      case AdversaryKind::kInvalidForger: run_forger(); break;
      case AdversaryKind::kWithholder: run_withholder(); break;
      case AdversaryKind::kTxSpammer: run_spammer(); break;
      case AdversaryKind::kEquivocator: run_equivocator(); break;
    }
  }
  schedule_next();
}

std::vector<NodeId> Adversary::targets() const {
  return host_.peers().active_peers();
}

void Adversary::send_raw(const std::vector<NodeId>& to, const Message& msg) {
  // straight onto the wire, bypassing the host's honest send paths and
  // inventory bookkeeping — exactly what a modified client would do; one
  // payload for every target
  if (to.empty()) return;
  const PayloadPtr payload = make_payload(encode_message(msg));
  for (const NodeId& peer : to)
    host_.network().send(host_.id(), peer, payload);
}

core::Block Adversary::forge_block() {
  const auto& chain = host_.chain();
  const core::BlockNumber head_height = chain.height();
  const core::BlockNumber parent_height =
      head_height > kForgeDepth ? head_height - kForgeDepth : 0;
  const core::Block* parent = chain.block_by_number(parent_height);
  const auto& config = chain.config();
  ++forge_seq_;

  core::Block block;
  core::BlockHeader& h = block.header;
  h.parent_hash = parent->hash();
  h.number = parent->header.number + 1;
  // unique timestamp per forgery so every round yields a fresh hash
  h.timestamp = parent->header.timestamp + 13 + forge_seq_;
  h.gas_limit = parent->header.gas_limit;
  h.gas_used = 0;
  h.difficulty =
      core::next_difficulty(config, h.number, h.timestamp,
                            parent->header.difficulty,
                            parent->header.timestamp);
  if (config.dao_fork_block && h.number == *config.dao_fork_block &&
      config.dao_fork_support)
    h.extra_data = core::dao_fork_extra_data();
  // Garbage state/receipts commitments: producing the real ones would mean
  // doing the execution work the forger is trying to push onto victims.
  Keccak256 sr;
  sr.update(std::string_view("forksim/forged-state"));
  const auto be = be_fixed64(forge_seq_);
  sr.update(BytesView(be.data(), be.size()));
  h.state_root = sr.digest();
  h.receipts_root = h.state_root;
  // correct body commitments (empty body), so nothing cheaper than
  // execution can expose the kBadStateRoot defect
  h.transactions_root = block.compute_transactions_root();
  h.ommers_hash = block.compute_ommers_hash();

  switch (options_.defect) {
    case ForgeDefect::kBadStateRoot:
      break;  // the garbage state root above is the defect
    case ForgeDefect::kBadDifficulty:
      h.difficulty = h.difficulty + U256(1'000'003);
      break;
    case ForgeDefect::kBadStructure:
      h.extra_data.assign(64, 0xad);
      break;
  }
  return block;
}

void Adversary::run_forger() {
  const std::vector<NodeId> t = targets();
  if (t.empty()) return;
  const core::Block block = forge_block();
  ++counters_.blocks_forged;
  const U256 td =
      host_.chain().total_difficulty_of(block.header.parent_hash) +
      block.header.difficulty;
  send_raw(t, Message{NewBlock{block, td}});
  forged_.push_back(block);
  if (forged_.size() > 8) forged_.erase(forged_.begin());
  // re-push earlier forgeries: a hardened victim absorbs them from its
  // known-invalid cache; an un-hardened one re-validates every time
  for (std::size_t i = 0; i < kForgeRepush; ++i) {
    const core::Block& old = forged_[repush_cursor_++ % forged_.size()];
    const U256 old_td =
        host_.chain().total_difficulty_of(old.header.parent_hash) +
        old.header.difficulty;
    send_raw(t, Message{NewBlock{old, old_td}});
  }
}

void Adversary::run_withholder() {
  const std::vector<NodeId> t = targets();
  if (t.empty()) return;
  NewBlockHashes ann;
  for (std::size_t i = 0; i < kWithholdBatch; ++i) {
    Keccak256 k;
    k.update(std::string_view("forksim/phantom"));
    k.update(host_.id().view());
    const auto be = be_fixed64(++phantom_seq_);
    k.update(BytesView(be.data(), be.size()));
    ann.hashes.push_back(k.digest());
  }
  counters_.phantom_announcements += ann.hashes.size();
  send_raw(t, Message{ann});
}

void Adversary::run_spammer() {
  const std::vector<NodeId> t = targets();
  if (t.empty()) return;
  const Address sink = derive_address(spam_keys_[0]);
  const std::size_t third = options_.spam_batch / 3;
  Transactions batch;
  // (a) admitted-but-worthless: floor-priced, from unfunded junk accounts —
  // these occupy pool slots until honest traffic evicts them
  std::vector<core::Transaction> fillers;
  for (std::size_t i = 0; i < third; ++i) {
    const std::size_t k = spam_seq_++ % spam_keys_.size();
    fillers.push_back(core::make_transaction(
        spam_keys_[k], spam_nonces_[k]++, sink, core::Wei(1),
        /*chain_id=*/std::nullopt, /*gas_price=*/core::Wei(1)));
  }
  for (const auto& tx : fillers) batch.transactions.push_back(tx);
  // (b) duplicates: last round's fillers verbatim (kAlreadyKnown churn)
  for (const auto& tx : last_fillers_) batch.transactions.push_back(tx);
  // (c) underpriced: below the pool floor, hard-rejected on sight — this is
  // what trips the victim's junk-batch detector
  for (std::size_t i = 0; i < third; ++i) {
    const std::size_t k = spam_seq_++ % spam_keys_.size();
    batch.transactions.push_back(core::make_transaction(
        spam_keys_[k], 0, sink, core::Wei(1),
        /*chain_id=*/std::nullopt, /*gas_price=*/core::Wei(0)));
  }
  last_fillers_ = std::move(fillers);
  counters_.txs_spammed += batch.transactions.size();
  send_raw(t, Message{batch});
}

void Adversary::run_equivocator() {
  auto& chain = host_.chain();
  if (chain.height() == 0) return;  // genesis has no siblings
  const std::vector<NodeId> t = targets();
  if (t.empty()) return;
  const core::Block& head = chain.head();
  // Siblings of the current head: same parent, same difficulty, different
  // pow nonce. Each is fully valid (the nonce is outside the state
  // transition), so victims pay a complete execution per clone, but a total-
  // difficulty tie never takes over a head — equivocation splits views
  // without requiring any real hashpower.
  const U256 td = chain.total_difficulty_of(head.hash());
  for (std::size_t k = 0; k < kEquivocationFanout; ++k) {
    core::Block clone = head;
    clone.header.nonce = rng_.next();
    ++counters_.equivocations;
    // disjoint halves of the peer set get alternating clones
    std::vector<NodeId> half;
    for (std::size_t i = k % 2; i < t.size(); i += 2) half.push_back(t[i]);
    send_raw(half, Message{NewBlock{clone, td}});
  }
}

// ------------------------------------------------------------------ eclipse

NodeId EclipseAdversary::mint_sybil(const NodeId& victim, std::uint64_t k) {
  const int target_bucket = 240 + static_cast<int>(k % 8);
  const auto bk = be_fixed64(k);
  for (std::uint64_t nonce = 0;; ++nonce) {
    Keccak256 h;
    h.update(std::string_view("forksim/sybil"));
    h.update(victim.view());
    h.update(BytesView(bk.data(), bk.size()));
    const auto bn = be_fixed64(nonce);
    h.update(BytesView(bn.data(), bn.size()));
    const NodeId id = h.digest();
    // Expected 2^(255-target_bucket) keccaks per sybil (2^8..2^15): cheap,
    // which is exactly the point — grinding ids into a victim's near
    // buckets costs an attacker almost nothing.
    if (distance_bucket(victim, id) == target_bucket) return id;
  }
}

EclipseAdversary::EclipseAdversary(FullNode& host, EclipseOptions options)
    : host_(host), options_(std::move(options)) {
  sybils_.reserve(options_.sybil_budget);
  for (std::uint64_t k = 0; k < options_.sybil_budget; ++k) {
    const NodeId id = mint_sybil(options_.victim, k);
    sybil_index_.emplace(id, sybils_.size());
    sybils_.push_back(id);
  }
  engaged_.resize(sybils_.size());
}

EclipseAdversary::~EclipseAdversary() { stop(); }

void EclipseAdversary::attach_telemetry(obs::Registry& reg) {
  reg.bind("adversary.eclipse.rounds", counters_.rounds);
  reg.bind("adversary.eclipse.table_floods", counters_.table_floods);
  reg.bind("adversary.eclipse.status_floods", counters_.status_floods);
  reg.bind("adversary.eclipse.lookups_answered", counters_.lookups_answered);
  reg.bind("adversary.eclipse.withheld_requests", counters_.withheld_requests);
}

void EclipseAdversary::start() {
  if (running_) return;
  running_ = true;
  Network& net = host_.network();
  for (std::size_t i = 0; i < sybils_.size(); ++i) {
    const NodeId sybil = sybils_[i];
    if (net.is_attached(sybil)) continue;  // paranoia: minted collision
    net.attach_payload(sybil, [this, i](const NodeId& from,
                                        const Payload& payload) {
      on_sybil_message(i, from, payload);
    });
  }
  schedule_next();
}

void EclipseAdversary::stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;
  Network& net = host_.network();
  for (const NodeId& sybil : sybils_) net.detach(sybil);
  for (auto& set : engaged_) set.clear();
}

void EclipseAdversary::schedule_next() {
  const std::uint64_t gen = generation_;
  host_.network().loop().schedule(options_.interval, [this, gen] {
    if (gen != generation_ || !running_) return;
    tick();
  });
}

void EclipseAdversary::send_from(const NodeId& sybil, const NodeId& to,
                                 const Message& msg) {
  host_.network().send(sybil, to, encode_message(msg));
}

Status EclipseAdversary::crafted_status() const {
  // The genesis persona: chain-id and genesis hash are real (so the
  // network check and the DAO challenge pass) but the claimed head is
  // genesis itself. A victim therefore never requests blocks from a sybil
  // — and never sees it time out or misbehave, so peer scoring has nothing
  // to penalize. The eclipse starves quietly.
  const auto& chain = host_.chain();
  const core::Block& genesis = chain.genesis();
  Status s;
  s.network_id = chain.config().chain_id;
  s.genesis_hash = genesis.hash();
  s.head_hash = genesis.hash();
  s.head_number = 0;
  s.total_difficulty = chain.total_difficulty_of(genesis.hash());
  return s;
}

std::vector<NodeId> EclipseAdversary::sybils_closest_to(
    const NodeId& target) const {
  std::vector<NodeId> out = sybils_;
  std::sort(out.begin(), out.end(), [&](const NodeId& a, const NodeId& b) {
    return closer_to(target, a, b);
  });
  if (out.size() > RoutingTable::kBucketSize)
    out.resize(RoutingTable::kBucketSize);
  return out;
}

void EclipseAdversary::on_sybil_message(std::size_t index, const NodeId& from,
                                        const Payload& payload) {
  if (!running_) return;
  const NodeId& sybil = sybils_[index];
  const Message* msg = payload.message();
  if (msg == nullptr) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Ping>) {
          // answer liveness probes: sybils must look alive to survive
          // ping-before-evict challenges and feeler dials
          send_from(sybil, from, Message{Pong{}});
        } else if constexpr (std::is_same_v<T, FindNode>) {
          ++counters_.lookups_answered;
          Neighbors reply;
          reply.nodes = sybils_closest_to(m.target);
          std::erase(reply.nodes, from);  // never echo the asker back
          send_from(sybil, from, Message{std::move(reply)});
        } else if constexpr (std::is_same_v<T, Status>) {
          // Reply only to a handshake we did not initiate this engagement
          // cycle (the victim dialing us). Answering every Status would
          // echo against the victim's re-handshake path forever.
          if (engaged_[index].insert(from).second) {
            ++counters_.status_floods;
            send_from(sybil, from, Message{crafted_status()});
          }
        } else if constexpr (std::is_same_v<T, GetDaoHeader>) {
          engaged_[index].insert(from);
          // A node honestly parked at genesis has not reached the fork
          // height; "no header yet" passes the cross-examination on either
          // side of the partition.
          send_from(sybil, from, Message{DaoHeader{}});
        } else if constexpr (std::is_same_v<T, GetBlocks>) {
          ++counters_.withheld_requests;
          // never served: the starvation half of the eclipse
        }
      },
      *msg);
}

void EclipseAdversary::tick() {
  ++counters_.rounds;
  // Periodically forget who we already handshook so reaped sessions get
  // re-established; without this one unlucky loss would free a victim slot
  // for an honest peer permanently.
  if (counters_.rounds % kReengageRounds == 0)
    for (auto& set : engaged_) set.clear();

  const NodeId& victim = options_.victim;
  // Table poisoning: every sybil pings the victim (observe() on the Pong
  // path inserts the sender), and one rotating "teller" pushes an
  // unsolicited Neighbors packet of the sybils nearest the victim's own id
  // — the ids its dialer will prefer.
  for (const NodeId& sybil : sybils_) {
    send_from(sybil, victim, Message{Ping{}});
    ++counters_.table_floods;
  }
  if (!sybils_.empty()) {
    const NodeId& teller = sybils_[counters_.rounds % sybils_.size()];
    Neighbors n;
    n.nodes = sybils_closest_to(victim);
    send_from(teller, victim, Message{std::move(n)});
    ++counters_.table_floods;
  }
  // Slot monopoly: un-engaged sybils push handshakes at the victim (filling
  // its inbound slots) and at its seeds (so the victim's own outbound dials
  // bounce with kTooManyPeers).
  for (std::size_t i = 0; i < sybils_.size(); ++i) {
    push_handshake(i, victim);
    for (const NodeId& seed : options_.slot_targets) push_handshake(i, seed);
  }
  schedule_next();
}

void EclipseAdversary::push_handshake(std::size_t index,
                                      const NodeId& target) {
  if (!engaged_[index].insert(target).second) return;
  ++counters_.status_floods;
  send_from(sybils_[index], target, Message{crafted_status()});
}

void EclipseAdversary::reengage() {
  if (!running_) return;
  for (auto& set : engaged_) set.clear();
  for (std::size_t i = 0; i < sybils_.size(); ++i) {
    push_handshake(i, options_.victim);
    for (const NodeId& seed : options_.slot_targets) push_handshake(i, seed);
  }
}

}  // namespace forksim::sim
