#include "core/state.hpp"

#include <algorithm>

#include "rlp/rlp.hpp"

namespace forksim::core {

namespace {
EngineCounters g_engine_counters;
}  // namespace

const EngineCounters& engine_counters() noexcept { return g_engine_counters; }

void reset_engine_counters() noexcept { g_engine_counters = EngineCounters{}; }

EngineCounters& engine_counters_mut() noexcept { return g_engine_counters; }

Hash256 empty_code_hash() {
  static const Hash256 kHash = keccak256(BytesView{});
  return kHash;
}

State::State(const State& other) : accounts_(other.accounts_) {}

State& State::operator=(const State& other) {
  if (this == &other) return *this;
  accounts_ = other.accounts_;
  journal_.clear();
  root_trie_ = trie::Trie();
  root_cache_valid_ = false;
  dirty_.clear();
  return *this;
}

const Account* State::account(const Address& addr) const {
  auto it = accounts_.find(addr);
  return it == accounts_.end() ? nullptr : &it->second;
}

State::JournalEntry& State::journal(JournalEntry::Kind kind,
                                    const Address& addr) {
  ++g_engine_counters.journal_entries;
  JournalEntry& e = journal_.emplace_back();
  e.kind = kind;
  e.addr = addr;
  g_engine_counters.journal_max_depth = std::max<std::uint64_t>(
      g_engine_counters.journal_max_depth, journal_.size());
  return e;
}

void State::mark_dirty(const Address& addr) const {
  if (root_cache_valid_) dirty_.insert(addr);
}

Account& State::touch(const Address& addr) {
  auto [it, inserted] = accounts_.try_emplace(addr);
  if (inserted) journal(JournalEntry::Kind::kCreated, addr);
  mark_dirty(addr);
  return it->second;
}

Wei State::balance(const Address& addr) const {
  const Account* a = account(addr);
  return a ? a->balance : Wei(0);
}

void State::add_balance(const Address& addr, const Wei& amount) {
  Account& a = touch(addr);
  journal(JournalEntry::Kind::kBalance, addr).prev_word = a.balance;
  a.balance += amount;
}

bool State::sub_balance(const Address& addr, const Wei& amount) {
  auto it = accounts_.find(addr);
  if (it == accounts_.end() || it->second.balance < amount) return false;
  journal(JournalEntry::Kind::kBalance, addr).prev_word = it->second.balance;
  it->second.balance -= amount;
  mark_dirty(addr);
  return true;
}

std::uint64_t State::nonce(const Address& addr) const {
  const Account* a = account(addr);
  return a ? a->nonce : 0;
}

void State::set_nonce(const Address& addr, std::uint64_t nonce) {
  Account& a = touch(addr);
  journal(JournalEntry::Kind::kNonce, addr).prev_nonce = a.nonce;
  a.nonce = nonce;
}

void State::increment_nonce(const Address& addr) {
  Account& a = touch(addr);
  journal(JournalEntry::Kind::kNonce, addr).prev_nonce = a.nonce;
  ++a.nonce;
}

const Bytes& State::code(const Address& addr) const {
  static const Bytes kEmpty;
  const Account* a = account(addr);
  return a ? a->code : kEmpty;
}

void State::set_code(const Address& addr, Bytes code) {
  Account& a = touch(addr);
  journal(JournalEntry::Kind::kCode, addr).prev_code = std::move(a.code);
  a.code = std::move(code);
}

U256 State::storage_at(const Address& addr, const U256& key) const {
  const Account* a = account(addr);
  if (a == nullptr) return U256(0);
  auto it = a->storage.find(key);
  return it == a->storage.end() ? U256(0) : it->second;
}

void State::set_storage(const Address& addr, const U256& key,
                        const U256& value) {
  Account& a = touch(addr);
  auto slot = a.storage.find(key);
  JournalEntry& e = journal(JournalEntry::Kind::kStorage, addr);
  e.key = key;
  e.prev_word = slot == a.storage.end() ? U256(0) : slot->second;
  if (value.is_zero()) {
    if (slot != a.storage.end()) a.storage.erase(slot);
  } else if (slot != a.storage.end()) {
    slot->second = value;
  } else {
    a.storage.emplace(key, value);
  }
}

void State::destroy(const Address& addr) {
  auto it = accounts_.find(addr);
  if (it == accounts_.end()) return;
  journal(JournalEntry::Kind::kDestroyed, addr).prev_account =
      std::make_unique<Account>(std::move(it->second));
  accounts_.erase(it);
  mark_dirty(addr);
}

std::vector<Address> State::addresses() const {
  std::vector<Address> out;
  out.reserve(accounts_.size());
  for (const auto& [addr, _] : accounts_) out.push_back(addr);
  return out;
}

State::Snapshot State::snapshot() const {
  ++g_engine_counters.snapshots;
  return journal_.size();
}

void State::undo(JournalEntry& e) {
  mark_dirty(e.addr);
  switch (e.kind) {
    case JournalEntry::Kind::kCreated:
      accounts_.erase(e.addr);
      return;
    case JournalEntry::Kind::kBalance:
      accounts_.find(e.addr)->second.balance = e.prev_word;
      return;
    case JournalEntry::Kind::kNonce:
      accounts_.find(e.addr)->second.nonce = e.prev_nonce;
      return;
    case JournalEntry::Kind::kCode:
      accounts_.find(e.addr)->second.code = std::move(e.prev_code);
      return;
    case JournalEntry::Kind::kStorage: {
      Account& a = accounts_.find(e.addr)->second;
      if (e.prev_word.is_zero())
        a.storage.erase(e.key);
      else
        a.storage[e.key] = e.prev_word;
      return;
    }
    case JournalEntry::Kind::kDestroyed:
      accounts_.emplace(e.addr, std::move(*e.prev_account));
      return;
  }
}

void State::revert(Snapshot mark) {
  ++g_engine_counters.reverts;
  while (journal_.size() > mark) {
    undo(journal_.back());
    journal_.pop_back();
    ++g_engine_counters.journal_entries_unwound;
  }
}

void State::clear_journal() { journal_.clear(); }

Hash256 State::storage_root(const Account& account) {
  if (account.storage.empty()) return trie::empty_trie_root();
  trie::Trie t;
  for (const auto& [key, value] : account.storage) {
    const auto key_bytes = key.to_be();
    const Hash256 hashed = keccak256(BytesView(key_bytes.data(), 32));
    t.put(hashed.view(), rlp::encode(rlp::Item::u256(value)));
  }
  return t.root_hash();
}

namespace {

/// rlp([nonce, balance, storage_root, code_hash]) — the account leaf.
Bytes account_leaf(const Account& account) {
  const rlp::Item body = rlp::Item::list({
      rlp::Item::u64(account.nonce),
      rlp::Item::u256(account.balance),
      rlp::Item::str(State::storage_root(account).view()),
      rlp::Item::str(account.code_hash().view()),
  });
  return rlp::encode(body);
}

}  // namespace

Hash256 State::root() const {
  if (!root_cache_valid_) {
    // first use (or first after a copy): full rebuild into the cached trie
    ++g_engine_counters.root_commits_full;
    root_trie_ = trie::Trie();
    for (const auto& [addr, account] : accounts_) {
      if (account.is_empty()) continue;  // empty accounts are not committed
      root_trie_.put(keccak256(addr.view()).view(), account_leaf(account));
    }
    root_cache_valid_ = true;
    dirty_.clear();
    return root_trie_.root_hash();
  }

  // incremental commit: patch only the leaves of accounts dirtied since the
  // previous root(); the trie re-hashes just the touched paths
  ++g_engine_counters.root_commits_incremental;
  for (const Address& addr : dirty_) {
    const Hash256 key = keccak256(addr.view());
    auto it = accounts_.find(addr);
    if (it == accounts_.end() || it->second.is_empty())
      root_trie_.erase(key.view());
    else
      root_trie_.put(key.view(), account_leaf(it->second));
  }
  dirty_.clear();
  return root_trie_.root_hash();
}

void State::invalidate_root_cache() const {
  root_cache_valid_ = false;
  root_trie_ = trie::Trie();
  dirty_.clear();
}

void apply_dao_refund(State& state, const std::vector<Address>& dao_accounts,
                      const Address& refund) {
  for (const Address& addr : dao_accounts) {
    const Wei amount = state.balance(addr);
    if (amount.is_zero()) continue;
    const bool ok = state.sub_balance(addr, amount);
    (void)ok;  // amount just read from the same account; cannot fail
    state.add_balance(refund, amount);
  }
}

}  // namespace forksim::core
