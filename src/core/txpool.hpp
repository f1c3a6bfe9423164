// Transaction pool: pending transactions a node has heard via gossip,
// validated against the current head state, ordered by gas price for block
// assembly. This is also where replay ("echo") transactions enter a chain:
// a legacy transaction rebroadcast from the other network passes every check
// here as long as the sender's pre-fork account still has the funds.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/state.hpp"
#include "core/transaction.hpp"
#include "obs/metrics.hpp"

namespace forksim::core {

enum class PoolAddResult {
  kAdded,
  kAlreadyKnown,
  kInvalidSignature,
  kWrongChainId,   // EIP-155 rejected a cross-chain replay at the pool edge
  kNonceTooLow,
  kUnderpriced,    // below the pool's min gas price
  kPoolFull,
  kReplacedExisting,  // same sender+nonce with a better price
};

class TxPool {
 public:
  struct Options {
    std::size_t capacity = 16384;
    Wei min_gas_price = Wei(1);
    /// Allow at most this many queued nonces ahead of the account nonce.
    std::uint64_t max_nonce_gap = 64;
  };

  TxPool(const ChainConfig& config, Options options)
      : config_(config), options_(options) {}
  explicit TxPool(const ChainConfig& config) : TxPool(config, Options()) {}

  /// Validate against `state` at height `head_number` and admit.
  PoolAddResult add(const Transaction& tx, const State& state,
                    BlockNumber head_number) {
    return add(tx, tx.hash(), state, head_number);
  }

  /// The same admission for a caller that already holds the transaction's
  /// hash (gossip hashes each received transaction once and reuses it).
  /// `hash` must be `tx.hash()`; builds without NDEBUG assert it.
  PoolAddResult add(const Transaction& tx, const Hash256& hash,
                    const State& state, BlockNumber head_number);

  bool contains(const Hash256& tx_hash) const {
    return by_hash_.contains(tx_hash);
  }

  std::size_t size() const noexcept { return by_hash_.size(); }

  /// Best candidates for a new block: price-ordered, nonce-contiguous per
  /// sender, up to `max_count`.
  std::vector<Transaction> collect(std::size_t max_count,
                                   const State& state) const;

  /// Drop everything included in a new block (and anything whose nonce the
  /// block made stale).
  void remove_included(const std::vector<Transaction>& included,
                       const State& new_state);

  /// Drop every pending transaction (a cold-restarted process lost its
  /// mempool). Telemetry counters survive; only the content is gone.
  void clear() {
    by_hash_.clear();
    by_sender_.clear();
    obs::set(tm_size_, 0.0);
  }

  /// All pending hashes (for gossip inventory).
  std::vector<Hash256> hashes() const;

  const Transaction* by_hash(const Hash256& h) const;

  /// How many pending transactions a full pool evicted to admit
  /// better-priced newcomers (backpressure under spam).
  std::uint64_t evictions() const noexcept { return evictions_; }

  /// Register one txpool.<result> counter per admission outcome plus a
  /// txpool.size gauge in `reg`, and bind evictions() as txpool.evicted
  /// from its first eviction on (adversary-free runs keep their metric
  /// set). Shared registries aggregate across pools.
  void attach_telemetry(obs::Registry& reg);

 private:
  PoolAddResult add_impl(const Transaction& tx, const Hash256& hash,
                         const State& state, BlockNumber head_number);

  struct Entry {
    Transaction tx;
    Address sender;
  };

  const ChainConfig& config_;
  Options options_;
  std::unordered_map<Hash256, Entry, Hash256Hasher> by_hash_;
  /// sender -> nonce -> tx hash (for replacement and contiguity checks)
  std::unordered_map<Address, std::map<std::uint64_t, Hash256>, AddressHasher>
      by_sender_;
  std::uint64_t evictions_ = 0;
  std::array<obs::Counter*, 8> tm_results_{};
  obs::Gauge* tm_size_ = nullptr;
};

}  // namespace forksim::core
