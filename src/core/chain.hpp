// The blockchain: block store, header/body validation, transaction
// execution on import, total-difficulty fork choice with reorg support, and
// block production.
//
// Fork choice follows Ethereum's 2016 rule: the canonical head is the block
// with the greatest total difficulty (sum of difficulties from genesis).
// Transient forks (paper §2.1) resolve automatically when one branch's TD
// pulls ahead; the DAO partition does not, because each side *rejects the
// other's fork block* — ETH requires the DAO refund state change, ETC
// forbids it.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/block.hpp"
#include "core/config.hpp"
#include "core/difficulty.hpp"
#include "core/hashcache.hpp"
#include "core/receipt.hpp"
#include "obs/metrics.hpp"

namespace forksim::core {

enum class ImportResult {
  kImported,         // valid, appended (and possibly the new head)
  kAlreadyKnown,
  kUnknownParent,    // orphan; caller may fetch ancestors and retry
  kInvalidHeader,    // structural/consensus failure
  kInvalidBody,      // tx root mismatch or tx execution mismatch
  kInvalidOmmers,    // ommer rules violated (count, kinship, reuse)
  kWrongFork,        // DAO fork-block rule violated (the partition rule)
  /// A validation-rule overlay overturned an otherwise-valid verdict: the
  /// block is consensus-valid to the rest of the network but this
  /// implementation's (buggy) rules refuse it. Distinct from
  /// kInvalidHeader so callers can treat validity *disagreement* — an
  /// honest peer on the other side of a consensus bug — differently from
  /// forged garbage (it must never feed the ban machinery).
  kDisputed,
};

std::string to_string(ImportResult r);

/// Pluggable validation overlay — the consensus-bug fault injector,
/// analogous to db::SimDisk for storage faults. Installed on a chain via
/// Blockchain::set_validation_rules, it reviews every header verdict the
/// built-in rules produce and may overturn it; a quirk flipping an
/// otherwise-valid rule returns kDisputed inside its bug window. With no
/// overlay installed (the default) import behavior is byte-identical to
/// builds without this hook.
class ValidationRuleSet {
 public:
  virtual ~ValidationRuleSet() = default;
  /// `hash` is the header's hash (memoized by the chain), `builtin` the
  /// built-in rules' verdict. Return the verdict the chain should use.
  virtual ImportResult review_header(const BlockHeader& header,
                                     const Hash256& hash,
                                     ImportResult builtin) const = 0;
};

struct ImportOutcome {
  ImportResult result;
  bool became_head = false;
  /// Number of blocks rolled back from the old canonical chain (0 for a
  /// simple head extension).
  std::size_t reorg_depth = 0;
};

/// Genesis allocation: address -> initial balance.
using GenesisAlloc = std::vector<std::pair<Address, Wei>>;

class Blockchain {
 public:
  /// `executor` must outlive the chain.
  Blockchain(ChainConfig config, Executor& executor,
             const GenesisAlloc& alloc = {},
             Gas genesis_gas_limit = 0 /* 0 = config default */,
             U256 genesis_difficulty = U256(131072));

  const ChainConfig& config() const noexcept { return config_; }

  // ---- queries ----------------------------------------------------------
  const Block& genesis() const { return *block_by_number(0); }
  const Block& head() const;
  /// Hashes the chain already holds: no header re-encode or re-hash.
  const Hash256& head_hash() const noexcept { return head_hash_; }
  const Hash256& genesis_hash() const { return canonical_.at(0); }
  BlockNumber height() const noexcept;
  U256 head_total_difficulty() const;
  U256 total_difficulty_of(const Hash256& hash) const;

  bool contains(const Hash256& hash) const;
  const Block* block_by_hash(const Hash256& hash) const;
  /// Canonical-chain lookup.
  const Block* block_by_number(BlockNumber n) const;
  /// Post-execution state of the canonical head.
  const State& head_state() const;
  /// Receipts of a block (empty if unknown).
  const std::vector<Receipt>* receipts_of(const Hash256& hash) const;

  /// The canonical hash at height n (nullopt above head).
  std::optional<Hash256> canonical_hash(BlockNumber n) const;
  /// True if `hash` is on the canonical chain.
  bool is_canonical(const Hash256& hash) const;

  // ---- mutation -----------------------------------------------------------
  ImportOutcome import(const Block& block);

  /// Install (or clear, with nullptr) a validation-rule overlay. Non-owning:
  /// `rules` must outlive the chain or be cleared first. The overlay is
  /// consulted on every header the built-in rules judge during import; a
  /// null overlay leaves import behavior byte-identical to builds without
  /// the hook. Survives reset_to_genesis (the implementation's rules are
  /// code, not process state).
  void set_validation_rules(const ValidationRuleSet* rules) noexcept {
    rules_ = rules;
  }
  const ValidationRuleSet* validation_rules() const noexcept { return rules_; }

  /// Forget every block except genesis — the cold-restart primitive: a
  /// crashed process lost its in-memory chain, and recovery re-imports
  /// whatever the durable store's checksums vouch for. Config, executor,
  /// genesis state, and the DAO account list all survive (they are code
  /// and configuration, not process state).
  void reset_to_genesis();

  /// Assemble, execute and seal a block on top of the current head.
  /// Transactions that fail validation are skipped (as a miner would skip
  /// them); eligible ommers known to this chain are included automatically
  /// (up to kMaxOmmers). The DAO activation block automatically carries the
  /// fork extra_data marker (and refund edit) when the config supports it.
  Block produce_block(const Address& coinbase, Timestamp timestamp,
                      const std::vector<Transaction>& candidate_txs,
                      std::uint64_t pow_nonce = 0);

  static constexpr std::size_t kMaxOmmers = 2;
  /// How many generations back an ommer's parent may sit (Yellow Paper: 6).
  static constexpr BlockNumber kOmmerWindow = 6;

  /// Stale-but-valid headers eligible as ommers of a child of the current
  /// head: known non-canonical blocks within the window whose headers were
  /// not already included as ommers.
  std::vector<BlockHeader> collect_ommers() const;

  /// Total blocks known that are not on the canonical chain (transient fork
  /// telemetry).
  std::size_t stale_block_count() const;

  /// Expected difficulty for a child of the current head at `timestamp`.
  U256 next_block_difficulty(Timestamp timestamp) const;

  /// Accounts the DAO refund drains at the fork block (settable before the
  /// fork activates; both sides must agree on the list — only `support`
  /// decides whether the edit is applied).
  void set_dao_accounts(std::vector<Address> accounts, Address refund);

  std::size_t block_count() const noexcept { return records_.size(); }

  /// Register chain.import.<result> counters, a chain.reorg_depth
  /// histogram, and a chain.blocks_produced counter in `reg`. Shared
  /// registries aggregate across chains (all nodes in a sim).
  void attach_telemetry(obs::Registry& reg);

 private:
  ImportOutcome import_impl(const Block& block);

  struct Record {
    Block block;
    U256 total_difficulty;
    std::shared_ptr<const State> post_state;
    std::vector<Receipt> receipts;
  };

  const Record* record(const Hash256& hash) const;
  /// Header hash through the LRU memo — every hash the chain computes for
  /// fork-choice, ommer validation, and import goes through here.
  Hash256 header_hash(const BlockHeader& header) const {
    return header_hashes_.hash_of(header);
  }
  ImportResult validate_header(const BlockHeader& header,
                               const Record& parent) const;
  ImportResult validate_ommers(const Block& block) const;
  /// Executes the block body on top of `pre`; returns nullopt + error on any
  /// mismatch with the header commitments.
  std::optional<std::pair<State, std::vector<Receipt>>> execute_body(
      const Block& block, const State& pre) const;
  void update_canonical(const Hash256& new_head, ImportOutcome& outcome);

  ChainConfig config_;
  Executor& executor_;
  const ValidationRuleSet* rules_ = nullptr;  // non-owning overlay (nullable)
  std::unordered_map<Hash256, Record, Hash256Hasher> records_;
  std::map<BlockNumber, Hash256> canonical_;
  Hash256 head_hash_;
  std::vector<Address> dao_accounts_;
  Address dao_refund_;
  /// Memoized header hashes (mutable: hashing is pure; the cache is not
  /// observable state). Sized for the ancestry windows partitions re-walk.
  mutable HeaderHashCache header_hashes_{4096};
  /// Eager counters for the seven pre-overlay outcomes; kDisputed is
  /// lazily registered on the first dispute (see tm_disputed_) so the
  /// metric set — and golden registry fingerprints — of overlay-free runs
  /// stays unchanged.
  std::array<obs::Counter*, 7> tm_results_{};
  obs::Counter* tm_disputed_ = nullptr;  // lazily registered
  obs::Registry* tm_reg_ = nullptr;
  obs::Histogram* tm_reorg_ = nullptr;
  obs::Counter* tm_produced_ = nullptr;
};

}  // namespace forksim::core
