// Differential test of the journaled state engine: core::State (undo
// journal, O(1) snapshot marks, incremental root commits) is driven through
// seeded random operation sequences with nested snapshot/revert scopes, in
// lockstep with a whole-copy reference implementation that snapshots by
// cloning its entire account map — the engine the journal replaced. After
// every revert and at every commit point, the two must agree on the full
// account map and on the Merkle-Patricia state root (the reference root is
// built from scratch each time, independently of State's cached trie).
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/state.hpp"
#include "crypto/keccak.hpp"
#include "rlp/rlp.hpp"
#include "support/rng.hpp"
#include "trie/trie.hpp"

namespace forksim::core {
namespace {

using AccountMap = std::unordered_map<Address, Account, AddressHasher>;

/// The pre-journal engine, reconstructed as an oracle: every mutator edits a
/// plain map, and a snapshot is a full copy of it. Semantics mirror the
/// documented State contract (touch creates, zero storage erases the slot,
/// sub_balance fails without mutating on insufficient funds, destroy removes
/// the whole account).
class ReferenceState {
 public:
  void touch(const Address& addr) { accounts_.try_emplace(addr); }

  void add_balance(const Address& addr, const Wei& amount) {
    accounts_.try_emplace(addr).first->second.balance += amount;
  }

  bool sub_balance(const Address& addr, const Wei& amount) {
    auto it = accounts_.find(addr);
    if (it == accounts_.end() || it->second.balance < amount) return false;
    it->second.balance -= amount;
    return true;
  }

  void set_nonce(const Address& addr, std::uint64_t nonce) {
    accounts_.try_emplace(addr).first->second.nonce = nonce;
  }

  void increment_nonce(const Address& addr) {
    ++accounts_.try_emplace(addr).first->second.nonce;
  }

  void set_code(const Address& addr, Bytes code) {
    accounts_.try_emplace(addr).first->second.code = std::move(code);
  }

  void set_storage(const Address& addr, const U256& key, const U256& value) {
    Account& a = accounts_.try_emplace(addr).first->second;
    if (value.is_zero())
      a.storage.erase(key);
    else
      a.storage[key] = value;
  }

  void destroy(const Address& addr) { accounts_.erase(addr); }

  /// Whole-map snapshot — the O(n) cost the journal eliminates.
  AccountMap snapshot() const { return accounts_; }
  void revert(AccountMap snapshot) { accounts_ = std::move(snapshot); }

  const AccountMap& accounts() const { return accounts_; }

  /// State root built from scratch, straight from the spec: a fresh trie of
  /// keccak(address) -> rlp([nonce, balance, storage_root, code_hash]),
  /// skipping empty accounts. No shared code with State's cached trie path
  /// beyond the trie structure itself.
  Hash256 root() const {
    trie::Trie t;
    for (const auto& [addr, account] : accounts_) {
      if (account.is_empty()) continue;
      const rlp::Item leaf = rlp::Item::list({
          rlp::Item::u64(account.nonce),
          rlp::Item::u256(account.balance),
          rlp::Item::str(State::storage_root(account).view()),
          rlp::Item::str(account.code_hash().view()),
      });
      t.put(keccak256(addr.view()).view(), rlp::encode(leaf));
    }
    return t.root_hash();
  }

 private:
  AccountMap accounts_;
};

void expect_equivalent(const State& state, const ReferenceState& ref,
                       const char* where) {
  const AccountMap& expected = ref.accounts();
  ASSERT_EQ(state.account_count(), expected.size()) << where;
  for (const auto& [addr, account] : expected) {
    const Account* actual = state.account(addr);
    ASSERT_NE(actual, nullptr) << where;
    EXPECT_EQ(*actual, account) << where;
  }
}

class StateJournalDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateJournalDifferentialTest, MatchesWholeCopyReference) {
  Rng rng(GetParam());

  std::vector<Address> pool;
  for (std::uint64_t i = 0; i < 12; ++i) {
    Bytes seed{static_cast<std::uint8_t>(0xA0 + i)};
    pool.push_back(Address::left_padded(seed));
  }
  auto pick = [&] { return pool[rng.uniform(pool.size())]; };

  State state;
  ReferenceState ref;
  // Open snapshot scopes, innermost last. Marks nest exactly like EVM call
  // frames: reverting to an outer mark discards the inner ones.
  std::vector<std::pair<State::Snapshot, AccountMap>> scopes;

  constexpr int kOps = 2000;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.uniform(10)) {
      case 0:  // open a nested scope
        scopes.emplace_back(state.snapshot(), ref.snapshot());
        break;
      case 1: {  // revert to a random open scope (possibly skipping several)
        if (scopes.empty()) break;
        const std::size_t target = rng.uniform(scopes.size());
        state.revert(scopes[target].first);
        ref.revert(std::move(scopes[target].second));
        scopes.resize(target);
        ASSERT_NO_FATAL_FAILURE(expect_equivalent(state, ref, "after revert"));
        break;
      }
      case 2: {
        const Address a = pick();
        const Wei amount(rng.uniform(1000));
        state.add_balance(a, amount);
        ref.add_balance(a, amount);
        break;
      }
      case 3: {
        const Address a = pick();
        const Wei amount(rng.uniform(1500));
        EXPECT_EQ(state.sub_balance(a, amount), ref.sub_balance(a, amount));
        break;
      }
      case 4: {
        const Address a = pick();
        const std::uint64_t nonce = rng.uniform(100);
        state.set_nonce(a, nonce);
        ref.set_nonce(a, nonce);
        break;
      }
      case 5: {
        const Address a = pick();
        state.increment_nonce(a);
        ref.increment_nonce(a);
        break;
      }
      case 6: {
        const Address a = pick();
        const std::size_t len = rng.uniform(8);
        const auto fill = static_cast<std::uint8_t>(rng.next());
        Bytes code(len, fill);
        state.set_code(a, code);
        ref.set_code(a, std::move(code));
        break;
      }
      case 7: {  // storage write; ~1/3 zero, exercising slot deletion
        const Address a = pick();
        const U256 key(rng.uniform(6));
        const U256 value(rng.uniform(3) == 0 ? 0 : rng.uniform(1000));
        state.set_storage(a, key, value);
        ref.set_storage(a, key, value);
        break;
      }
      case 8: {
        const Address a = pick();
        state.destroy(a);
        ref.destroy(a);
        break;
      }
      case 9: {  // commit point: roots must agree (incremental vs fresh)
        EXPECT_EQ(state.root(), ref.root()) << "op " << op;
        break;
      }
    }
    if (op % 250 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_equivalent(state, ref, "periodic"));
    }
  }

  // Unwind every remaining scope, outermost last, checking at each step.
  while (!scopes.empty()) {
    state.revert(scopes.back().first);
    ref.revert(std::move(scopes.back().second));
    scopes.pop_back();
    ASSERT_NO_FATAL_FAILURE(expect_equivalent(state, ref, "final unwind"));
  }
  EXPECT_EQ(state.root(), ref.root());

  // the journal reaches back to construction: mark 0 is the empty state
  state.revert(0);
  EXPECT_EQ(state.account_count(), 0u);
  EXPECT_EQ(state.journal_depth(), 0u);
  EXPECT_EQ(state.root(), trie::empty_trie_root());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateJournalDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---- targeted journal semantics ------------------------------------------

Address addr_of(std::uint8_t tag) {
  return Address::left_padded(Bytes{tag});
}

TEST(StateJournalTest, SnapshotIsOrdinalMarkNotACopy) {
  State s;
  const State::Snapshot empty = s.snapshot();
  EXPECT_EQ(empty, 0u);
  s.add_balance(addr_of(1), Wei(5));
  EXPECT_GT(s.journal_depth(), 0u);
  const State::Snapshot later = s.snapshot();
  EXPECT_GT(later, empty);
}

TEST(StateJournalTest, NestedRevertsUnwindInReverse) {
  State s;
  const Address a = addr_of(1);
  s.add_balance(a, Wei(10));

  const auto outer = s.snapshot();
  s.set_storage(a, U256(1), U256(100));
  const auto inner = s.snapshot();
  s.set_storage(a, U256(1), U256(200));
  s.set_storage(a, U256(2), U256(300));

  s.revert(inner);
  EXPECT_EQ(s.storage_at(a, U256(1)), U256(100));
  EXPECT_EQ(s.storage_at(a, U256(2)), U256(0));

  s.revert(outer);
  EXPECT_EQ(s.storage_at(a, U256(1)), U256(0));
  EXPECT_EQ(s.balance(a), Wei(10));
}

TEST(StateJournalTest, RevertToOuterMarkDiscardsInnerMarks) {
  State s;
  const Address a = addr_of(1);
  const auto outer = s.snapshot();
  s.add_balance(a, Wei(1));
  s.snapshot();  // inner mark, deliberately abandoned
  s.add_balance(a, Wei(2));
  s.revert(outer);
  EXPECT_FALSE(s.exists(a));
  EXPECT_EQ(s.journal_depth(), 0u);
}

TEST(StateJournalTest, AccountCreationRevertsToAbsence) {
  State s;
  const Address a = addr_of(7);
  const auto mark = s.snapshot();
  s.increment_nonce(a);
  EXPECT_TRUE(s.exists(a));
  s.revert(mark);
  EXPECT_FALSE(s.exists(a));
}

TEST(StateJournalTest, DestroyRevertsToFullResurrection) {
  State s;
  const Address a = addr_of(3);
  s.add_balance(a, Wei(42));
  s.set_nonce(a, 7);
  s.set_code(a, Bytes{0x60, 0x01});
  s.set_storage(a, U256(1), U256(99));

  const auto mark = s.snapshot();
  s.destroy(a);
  EXPECT_FALSE(s.exists(a));

  s.revert(mark);
  ASSERT_TRUE(s.exists(a));
  EXPECT_EQ(s.balance(a), Wei(42));
  EXPECT_EQ(s.nonce(a), 7u);
  EXPECT_EQ(s.code(a), (Bytes{0x60, 0x01}));
  EXPECT_EQ(s.storage_at(a, U256(1)), U256(99));
}

TEST(StateJournalTest, DestroyThenRecreateThenRevert) {
  State s;
  const Address a = addr_of(4);
  s.add_balance(a, Wei(10));
  s.set_storage(a, U256(5), U256(50));

  const auto mark = s.snapshot();
  s.destroy(a);
  s.add_balance(a, Wei(1));  // recreated fresh: old storage must not leak
  EXPECT_EQ(s.storage_at(a, U256(5)), U256(0));

  s.revert(mark);
  EXPECT_EQ(s.balance(a), Wei(10));
  EXPECT_EQ(s.storage_at(a, U256(5)), U256(50));
}

TEST(StateJournalTest, CopyDropsJournalAndRevertsIndependently) {
  State s;
  const Address a = addr_of(5);
  s.add_balance(a, Wei(3));
  const auto mark = s.snapshot();
  s.add_balance(a, Wei(4));

  State copy(s);  // journal does not transfer
  EXPECT_EQ(copy.balance(a), Wei(7));
  copy.revert(copy.snapshot());  // no-op: fresh journal
  EXPECT_EQ(copy.balance(a), Wei(7));

  s.revert(mark);  // the original's marks still work
  EXPECT_EQ(s.balance(a), Wei(3));
  EXPECT_EQ(copy.balance(a), Wei(7));  // and do not reach the copy
}

TEST(StateJournalTest, ClearJournalMakesMutationsPermanent) {
  State s;
  const Address a = addr_of(6);
  const auto mark = s.snapshot();
  s.add_balance(a, Wei(9));
  s.clear_journal();
  EXPECT_EQ(s.journal_depth(), 0u);
  s.revert(mark);  // nothing to unwind
  EXPECT_EQ(s.balance(a), Wei(9));
}

TEST(StateJournalTest, EngineCountersTrackJournalActivity) {
  reset_engine_counters();
  State s;
  const Address a = addr_of(8);
  const auto mark = s.snapshot();
  s.add_balance(a, Wei(1));  // kCreated + kBalance
  s.revert(mark);

  const EngineCounters& c = engine_counters();
  EXPECT_EQ(c.snapshots, 1u);
  EXPECT_EQ(c.reverts, 1u);
  EXPECT_EQ(c.journal_entries, 2u);
  EXPECT_EQ(c.journal_entries_unwound, 2u);
  EXPECT_GE(c.journal_max_depth, 2u);
}

}  // namespace
}  // namespace forksim::core
