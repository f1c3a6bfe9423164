// World state: accounts, balances, nonces, contract code and storage, with
// snapshot/revert (for EVM call frames and failed transactions) and the
// Merkle-Patricia state root committed to in block headers.
//
// The engine is journaled: every mutation appends an undo entry, so
// snapshot() is an O(1) journal mark and revert(mark) unwinds entries in
// reverse — nested EVM call frames cost nothing per frame instead of a
// whole-map copy. State roots commit incrementally: accounts dirtied since
// the last root() are patched into a persistent cached trie (whose nodes
// memoize their hashes), falling back to a full rebuild only on first use
// or after a copy.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"
#include "crypto/keccak.hpp"
#include "trie/trie.hpp"

namespace forksim::core {

/// keccak256 of empty code — the code_hash of plain accounts.
Hash256 empty_code_hash();

/// Process-wide state-engine tallies (the simulator is single-threaded),
/// mirroring the trie::TrieCounters pattern: unconditional increments, no
/// Rng draws, cheap enough to leave always on.
struct EngineCounters {
  std::uint64_t snapshots = 0;        // journal marks taken
  std::uint64_t reverts = 0;          // revert(mark) calls
  std::uint64_t journal_entries = 0;  // undo entries recorded
  std::uint64_t journal_entries_unwound = 0;
  std::uint64_t journal_max_depth = 0;      // deepest journal seen
  std::uint64_t root_commits_full = 0;      // trie-cache misses (rebuilds)
  std::uint64_t root_commits_incremental = 0;  // trie-cache hits
  std::uint64_t header_cache_hits = 0;   // core::HeaderHashCache
  std::uint64_t header_cache_misses = 0;
};

const EngineCounters& engine_counters() noexcept;
void reset_engine_counters() noexcept;
/// Mutable access for the engine's own instrumentation sites (state.cpp,
/// chain.cpp). Not meant for user code.
EngineCounters& engine_counters_mut() noexcept;

struct Account {
  std::uint64_t nonce = 0;
  Wei balance;
  Bytes code;
  std::unordered_map<U256, U256, U256Hasher> storage;

  bool is_contract() const noexcept { return !code.empty(); }
  Hash256 code_hash() const {
    return code.empty() ? empty_code_hash() : keccak256(code);
  }
  bool is_empty() const noexcept {
    return nonce == 0 && balance.is_zero() && code.empty() && storage.empty();
  }

  bool operator==(const Account& other) const {
    return nonce == other.nonce && balance == other.balance &&
           code == other.code && storage == other.storage;
  }
};

class State {
 public:
  State() = default;
  /// Copies the account map only. The undo journal and the cached root trie
  /// do not transfer: marks taken on the source cannot revert the copy, and
  /// the copy's first root() falls back to a full rebuild. Nothing assigns
  /// one State over another by copy, so copy assignment is not offered.
  State(const State& other);
  State& operator=(const State& other) = delete;
  State(State&&) noexcept = default;
  State& operator=(State&&) noexcept = default;

  bool exists(const Address& addr) const {
    return accounts_.contains(addr);
  }

  /// Read-only view; nullptr if absent.
  const Account* account(const Address& addr) const;

  /// Mutable accessor, creating (and journaling) the account if needed.
  /// The returned reference allows direct field edits that bypass the undo
  /// journal — inside snapshot scopes use the typed mutators instead.
  Account& touch(const Address& addr);

  Wei balance(const Address& addr) const;
  void add_balance(const Address& addr, const Wei& amount);
  /// Returns false (and leaves state unchanged) on insufficient funds.
  [[nodiscard]] bool sub_balance(const Address& addr, const Wei& amount);

  std::uint64_t nonce(const Address& addr) const;
  void set_nonce(const Address& addr, std::uint64_t nonce);
  void increment_nonce(const Address& addr);

  const Bytes& code(const Address& addr) const;
  void set_code(const Address& addr, Bytes code);

  U256 storage_at(const Address& addr, const U256& key) const;
  void set_storage(const Address& addr, const U256& key, const U256& value);

  /// Remove an account entirely (SELFDESTRUCT). Journaled: a revert past
  /// this point resurrects the account with all its storage and code.
  void destroy(const Address& addr);

  std::size_t account_count() const noexcept { return accounts_.size(); }

  /// All addresses (analysis/debug; unordered).
  std::vector<Address> addresses() const;

  // ---- snapshot / revert ------------------------------------------------
  /// A snapshot is an O(1) mark into the undo journal (legacy name kept for
  /// the call sites; the whole-map copy type it used to alias is gone).
  using Snapshot = std::size_t;
  Snapshot snapshot() const;
  /// Unwind every mutation journaled after `mark`, newest first. Marks
  /// nest: reverting to an outer mark discards the inner ones.
  void revert(Snapshot mark);

  /// Entries currently in the undo journal (telemetry/debug).
  std::size_t journal_depth() const noexcept { return journal_.size(); }
  /// Drop all undo history (marks become invalid). Useful for long-lived
  /// states at a commit boundary no revert can cross.
  void clear_journal();

  // ---- commitments --------------------------------------------------------
  /// Merkle-Patricia state root: trie of keccak(address) ->
  /// rlp([nonce, balance, storage_root, code_hash]). Incremental: only
  /// accounts dirtied since the previous root() are re-committed into the
  /// cached trie; the first call (or the first after a copy) rebuilds.
  Hash256 root() const;

  /// Discard the cached root trie; the next root() rebuilds from scratch
  /// (benchmarks and tests of the incremental engine).
  void invalidate_root_cache() const;

  /// Storage root of one account (empty-trie root when no storage).
  static Hash256 storage_root(const Account& account);

 private:
  struct JournalEntry {
    enum class Kind : std::uint8_t {
      kCreated,    // undo: erase the account
      kBalance,    // undo: restore prev_word as balance
      kNonce,      // undo: restore prev_nonce
      kCode,       // undo: restore prev_code
      kStorage,    // undo: restore prev_word at key (zero = erase slot)
      kDestroyed,  // undo: reinsert *prev_account
    };
    Kind kind;
    Address addr;
    U256 key;                                // kStorage
    U256 prev_word;                          // kBalance / kStorage
    std::uint64_t prev_nonce = 0;            // kNonce
    Bytes prev_code;                         // kCode
    std::unique_ptr<Account> prev_account;   // kDestroyed
  };

  JournalEntry& journal(JournalEntry::Kind kind, const Address& addr);
  void undo(JournalEntry& entry);
  /// Record that `addr`'s trie leaf may differ from the committed root.
  void mark_dirty(const Address& addr) const;

  std::unordered_map<Address, Account, AddressHasher> accounts_;
  std::vector<JournalEntry> journal_;

  // Cached account trie for incremental root commits. Mutable: root() is
  // logically const (callers hold shared_ptr<const State>), the cache is
  // pure memoization. `root_cache_valid_` false => full rebuild next root().
  mutable trie::Trie root_trie_;
  mutable bool root_cache_valid_ = false;
  mutable std::unordered_set<Address, AddressHasher> dirty_;
};

/// The DAO irregular state change: move the full balance of every account in
/// `dao_accounts` to `refund`. ETH applied exactly this edit at block
/// 1,920,000; ETC refused it — the paper's partition.
void apply_dao_refund(State& state, const std::vector<Address>& dao_accounts,
                      const Address& refund);

}  // namespace forksim::core
