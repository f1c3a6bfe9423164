#include "core/txpool.hpp"

#include <algorithm>
#include <cassert>

namespace forksim::core {

namespace {

/// Metric-name slug per admission outcome.
const char* result_slug(PoolAddResult r) {
  switch (r) {
    case PoolAddResult::kAdded: return "added";
    case PoolAddResult::kAlreadyKnown: return "already_known";
    case PoolAddResult::kInvalidSignature: return "invalid_signature";
    case PoolAddResult::kWrongChainId: return "wrong_chain_id";
    case PoolAddResult::kNonceTooLow: return "nonce_too_low";
    case PoolAddResult::kUnderpriced: return "underpriced";
    case PoolAddResult::kPoolFull: return "pool_full";
    case PoolAddResult::kReplacedExisting: return "replaced_existing";
  }
  return "unknown";
}

}  // namespace

void TxPool::attach_telemetry(obs::Registry& reg) {
  for (std::size_t i = 0; i < tm_results_.size(); ++i) {
    const auto r = static_cast<PoolAddResult>(i);
    tm_results_[i] =
        &reg.counter(std::string("txpool.") + result_slug(r));
  }
  tm_size_ = &reg.gauge("txpool.size");
  reg.bind("txpool.evicted", evictions_, &evictions_);
}

PoolAddResult TxPool::add(const Transaction& tx, const Hash256& hash,
                          const State& state, BlockNumber head_number) {
  assert(hash == tx.hash());
  const PoolAddResult r = add_impl(tx, hash, state, head_number);
  obs::inc(tm_results_[static_cast<std::size_t>(r)]);
  obs::set(tm_size_, static_cast<double>(by_hash_.size()));
  return r;
}

PoolAddResult TxPool::add_impl(const Transaction& tx, const Hash256& hash,
                               const State& state, BlockNumber head_number) {
  if (by_hash_.contains(hash)) return PoolAddResult::kAlreadyKnown;

  const auto sender = tx.sender();
  if (!sender) return PoolAddResult::kInvalidSignature;

  // EIP-155 enforcement happens here, at the network edge: once the fork is
  // active, a transaction protected for another chain never enters the pool.
  if (!replay_valid_on(tx, config_.chain_id, config_.is_eip155(head_number)))
    return PoolAddResult::kWrongChainId;

  if (tx.gas_price < options_.min_gas_price)
    return PoolAddResult::kUnderpriced;

  const std::uint64_t account_nonce = state.nonce(*sender);
  if (tx.nonce < account_nonce) return PoolAddResult::kNonceTooLow;
  if (tx.nonce > account_nonce + options_.max_nonce_gap)
    return PoolAddResult::kPoolFull;  // unusable for a long time; refuse

  auto& sender_slots = by_sender_[*sender];
  auto slot = sender_slots.find(tx.nonce);
  if (slot != sender_slots.end()) {
    // same sender+nonce: replace only if strictly better priced
    const Entry& existing = by_hash_.at(slot->second);
    if (tx.gas_price <= existing.tx.gas_price)
      return PoolAddResult::kUnderpriced;
    by_hash_.erase(slot->second);
    slot->second = hash;
    by_hash_.emplace(hash, Entry{tx, *sender});
    return PoolAddResult::kReplacedExisting;
  }

  if (by_hash_.size() >= options_.capacity) {
    // Backpressure: a full pool evicts its strictly cheapest pending entry
    // to admit a better-paying newcomer. Equal or worse price is refused, so
    // floor-price spam can never displace honest transactions. The victim is
    // chosen by (lowest gas price, then smallest hash) — a deterministic
    // function of the pool's contents, independent of map iteration order.
    auto victim = by_hash_.end();
    for (auto it = by_hash_.begin(); it != by_hash_.end(); ++it) {
      if (it->second.tx.gas_price >= tx.gas_price) continue;
      if (victim == by_hash_.end() ||
          it->second.tx.gas_price < victim->second.tx.gas_price ||
          (it->second.tx.gas_price == victim->second.tx.gas_price &&
           it->first < victim->first))
        victim = it;
    }
    if (victim == by_hash_.end()) return PoolAddResult::kPoolFull;
    auto s_it = by_sender_.find(victim->second.sender);
    if (s_it != by_sender_.end()) {
      s_it->second.erase(victim->second.tx.nonce);
      if (s_it->second.empty()) by_sender_.erase(s_it);
    }
    by_hash_.erase(victim);
    ++evictions_;
  }

  // re-lookup: eviction may have erased this sender's (now-empty) slot map,
  // invalidating `sender_slots`
  by_sender_[*sender].emplace(tx.nonce, hash);
  by_hash_.emplace(hash, Entry{tx, *sender});
  return PoolAddResult::kAdded;
}

std::vector<Transaction> TxPool::collect(std::size_t max_count,
                                         const State& state) const {
  // Gather the nonce-contiguous run of each sender, then repeatedly take the
  // best-priced *head* among all runs — a sender's later transactions only
  // become eligible once its earlier ones are selected, preserving nonce
  // order while maximizing fee income (the geth "price heap" strategy).
  struct Run {
    std::vector<const Transaction*> txs;  // contiguous nonces, ascending
    std::size_t next = 0;

    const Transaction* head() const {
      return next < txs.size() ? txs[next] : nullptr;
    }
  };
  std::vector<Run> runs;
  for (const auto& [sender, slots] : by_sender_) {
    Run run;
    std::uint64_t expected = state.nonce(sender);
    for (const auto& [nonce, hash] : slots) {
      if (nonce < expected) continue;
      if (nonce != expected) break;  // gap: later nonces unusable
      run.txs.push_back(&by_hash_.at(hash).tx);
      ++expected;
    }
    if (!run.txs.empty()) runs.push_back(std::move(run));
  }

  std::vector<Transaction> out;
  while (out.size() < max_count) {
    Run* best = nullptr;
    for (Run& run : runs) {
      const Transaction* head = run.head();
      if (head == nullptr) continue;
      if (best == nullptr || head->gas_price > best->head()->gas_price)
        best = &run;
    }
    if (best == nullptr) break;
    out.push_back(*best->head());
    ++best->next;
  }
  return out;
}

void TxPool::remove_included(const std::vector<Transaction>& included,
                             const State& new_state) {
  for (const Transaction& tx : included) by_hash_.erase(tx.hash());

  // drop any pending tx whose nonce is now stale
  for (auto sender_it = by_sender_.begin(); sender_it != by_sender_.end();) {
    auto& [sender, slots] = *sender_it;
    const std::uint64_t account_nonce = new_state.nonce(sender);
    for (auto it = slots.begin(); it != slots.end();) {
      const bool stale = it->first < account_nonce;
      const bool gone = !by_hash_.contains(it->second);
      if (stale && !gone) by_hash_.erase(it->second);
      it = (stale || gone) ? slots.erase(it) : ++it;
    }
    sender_it = slots.empty() ? by_sender_.erase(sender_it) : ++sender_it;
  }
}

std::vector<Hash256> TxPool::hashes() const {
  std::vector<Hash256> out;
  out.reserve(by_hash_.size());
  for (const auto& [hash, _] : by_hash_) out.push_back(hash);
  return out;
}

const Transaction* TxPool::by_hash(const Hash256& h) const {
  auto it = by_hash_.find(h);
  return it == by_hash_.end() ? nullptr : &it->second.tx;
}

}  // namespace forksim::core
