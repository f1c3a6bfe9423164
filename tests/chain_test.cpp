// Blockchain tests: import validation, total-difficulty fork choice,
// reorgs, the DAO fork-block partition rule, and the transaction pool.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/chain.hpp"
#include "core/txpool.hpp"

namespace forksim::core {
namespace {

const PrivateKey kAlice = PrivateKey::from_seed(1);
const PrivateKey kBob = PrivateKey::from_seed(2);
const Address kMinerA = derive_address(PrivateKey::from_seed(50));
const Address kMinerB = derive_address(PrivateKey::from_seed(51));

GenesisAlloc default_alloc() {
  return {{derive_address(kAlice), ether(1000)},
          {derive_address(kBob), ether(1000)}};
}

class ChainTest : public ::testing::Test {
 protected:
  ChainTest()
      : chain_(ChainConfig::mainnet_pre_fork(), executor_, default_alloc()) {}

  /// Mine an empty block with the given inter-block delay.
  Block mine(Blockchain& chain, const Address& miner, Timestamp delay = 14,
             const std::vector<Transaction>& txs = {}) {
    const Timestamp t = chain.head().header.timestamp + delay;
    return chain.produce_block(miner, t, txs);
  }

  TransferExecutor executor_;
  Blockchain chain_;
};

TEST_F(ChainTest, GenesisIsHead) {
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_EQ(chain_.head().hash(), chain_.genesis().hash());
  EXPECT_EQ(chain_.head_state().balance(derive_address(kAlice)), ether(1000));
}

TEST_F(ChainTest, ProduceAndImportExtendsHead) {
  Block b = mine(chain_, kMinerA);
  auto outcome = chain_.import(b);
  EXPECT_EQ(outcome.result, ImportResult::kImported);
  EXPECT_TRUE(outcome.became_head);
  EXPECT_EQ(outcome.reorg_depth, 0u);
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_EQ(chain_.head_state().balance(kMinerA), ether(5));  // block reward
}

TEST_F(ChainTest, ReimportIsAlreadyKnown) {
  Block b = mine(chain_, kMinerA);
  chain_.import(b);
  EXPECT_EQ(chain_.import(b).result, ImportResult::kAlreadyKnown);
}

TEST_F(ChainTest, OrphanIsUnknownParent) {
  Block b = mine(chain_, kMinerA);
  b.header.parent_hash = keccak256(std::string_view("nowhere"));
  // re-derive nothing: hash changes with parent, reuse as orphan
  EXPECT_EQ(chain_.import(b).result, ImportResult::kUnknownParent);
}

TEST_F(ChainTest, RejectsWrongDifficulty) {
  Block b = mine(chain_, kMinerA);
  b.header.difficulty += U256(1);
  EXPECT_EQ(chain_.import(b).result, ImportResult::kInvalidHeader);
}

TEST_F(ChainTest, RejectsNonMonotonicTimestamp) {
  Block b = mine(chain_, kMinerA);
  b.header.timestamp = chain_.head().header.timestamp;  // not >
  EXPECT_EQ(chain_.import(b).result, ImportResult::kInvalidHeader);
}

TEST_F(ChainTest, RejectsBodyTamper) {
  Block b = mine(chain_, kMinerA);
  b.transactions.push_back(make_transaction(kAlice, 0, derive_address(kBob),
                                            ether(1), std::nullopt));
  // header roots no longer match the body
  EXPECT_EQ(chain_.import(b).result, ImportResult::kInvalidBody);
}

TEST_F(ChainTest, RejectsStateRootMismatch) {
  Block b = mine(chain_, kMinerA);
  b.header.state_root = keccak256(std::string_view("wrong"));
  EXPECT_EQ(chain_.import(b).result, ImportResult::kInvalidBody);
}

TEST_F(ChainTest, ExecutesTransactionsOnImport) {
  Transaction tx = make_transaction(kAlice, 0, derive_address(kBob), ether(7),
                                    std::nullopt, gwei(20), 21000);
  Block b = mine(chain_, kMinerA, 14, {tx});
  ASSERT_EQ(b.transactions.size(), 1u);
  ASSERT_EQ(chain_.import(b).result, ImportResult::kImported);
  EXPECT_EQ(chain_.head_state().balance(derive_address(kBob)),
            ether(1000) + ether(7));
  const auto* receipts = chain_.receipts_of(b.hash());
  ASSERT_NE(receipts, nullptr);
  ASSERT_EQ(receipts->size(), 1u);
  EXPECT_EQ((*receipts)[0].gas_used, 21000u);
}

TEST_F(ChainTest, ProduceSkipsInvalidTransactions) {
  Transaction bad = make_transaction(kAlice, 99, derive_address(kBob),
                                     ether(1), std::nullopt);
  Transaction good = make_transaction(kAlice, 0, derive_address(kBob),
                                      ether(1), std::nullopt);
  Block b = mine(chain_, kMinerA, 14, {bad, good});
  EXPECT_EQ(b.transactions.size(), 1u);
  EXPECT_EQ(b.transactions[0].hash(), good.hash());
}

TEST_F(ChainTest, ForkChoiceByTotalDifficulty) {
  // two competing children of genesis; the faster one (higher difficulty)
  // should win once both are known
  Block fast = mine(chain_, kMinerA, 5);    // +1 notch difficulty
  Block slow = mine(chain_, kMinerB, 25);   // -1 notch (lower difficulty)
  ASSERT_GT(fast.header.difficulty, slow.header.difficulty);

  ASSERT_EQ(chain_.import(slow).result, ImportResult::kImported);
  EXPECT_EQ(chain_.head().hash(), slow.hash());

  auto outcome = chain_.import(fast);
  ASSERT_EQ(outcome.result, ImportResult::kImported);
  EXPECT_TRUE(outcome.became_head);
  EXPECT_EQ(outcome.reorg_depth, 1u);
  EXPECT_EQ(chain_.head().hash(), fast.hash());
  EXPECT_TRUE(chain_.is_canonical(fast.hash()));
  EXPECT_FALSE(chain_.is_canonical(slow.hash()));
}

TEST_F(ChainTest, TransientForkResolvesByExtension) {
  // the paper's §2.1 transient fork: two simultaneous blocks, then one
  // branch extends and the other is abandoned
  Block a = mine(chain_, kMinerA, 14);
  Block b = mine(chain_, kMinerB, 15);
  ASSERT_EQ(chain_.import(a).result, ImportResult::kImported);
  ASSERT_EQ(chain_.import(b).result, ImportResult::kImported);
  EXPECT_EQ(chain_.head().hash(), a.hash());  // a has higher TD

  // extend b's branch twice: b's chain TD overtakes
  Blockchain view(ChainConfig::mainnet_pre_fork(), executor_,
                  default_alloc());
  ASSERT_EQ(view.import(b).result, ImportResult::kImported);
  Block b2 = mine(view, kMinerB, 5);
  ASSERT_EQ(view.import(b2).result, ImportResult::kImported);

  auto outcome = chain_.import(b2);
  ASSERT_EQ(outcome.result, ImportResult::kImported);
  EXPECT_TRUE(outcome.became_head);
  EXPECT_EQ(outcome.reorg_depth, 1u);
  EXPECT_EQ(chain_.head().hash(), b2.hash());
  EXPECT_TRUE(chain_.is_canonical(b.hash()));
  EXPECT_FALSE(chain_.is_canonical(a.hash()));
}

TEST_F(ChainTest, HeldHashesMatchRecomputedHashes) {
  // head_hash()/genesis_hash() read what the chain holds; they must agree
  // with re-hashing the headers through linear growth and a reorg.
  const Hash256 genesis = chain_.genesis().hash();
  EXPECT_EQ(chain_.head_hash(), chain_.head().hash());
  EXPECT_EQ(chain_.genesis_hash(), genesis);

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(chain_.import(mine(chain_, kMinerA, 14)).result,
              ImportResult::kImported);
    EXPECT_EQ(chain_.head_hash(), chain_.head().hash());
  }

  // a faster, heavier branch from genesis overtakes the three-block chain
  Blockchain rival(ChainConfig::mainnet_pre_fork(), executor_,
                   default_alloc());
  std::vector<Block> branch;
  for (int i = 0; i < 4; ++i) {
    branch.push_back(mine(rival, kMinerB, 5));
    ASSERT_EQ(rival.import(branch.back()).result, ImportResult::kImported);
  }
  std::size_t reorg_depth = 0;
  for (const Block& b : branch)
    reorg_depth = std::max(reorg_depth, chain_.import(b).reorg_depth);
  ASSERT_GT(reorg_depth, 0u);
  EXPECT_EQ(chain_.head_hash(), branch.back().hash());
  EXPECT_EQ(chain_.head_hash(), chain_.head().hash());
  EXPECT_EQ(chain_.genesis_hash(), genesis);
}

TEST_F(ChainTest, ReorgRevertsStateToWinningBranch) {
  Transaction tx = make_transaction(kAlice, 0, derive_address(kBob), ether(7),
                                    std::nullopt);
  Block with_tx = mine(chain_, kMinerA, 25, {tx});  // slow, low difficulty
  Block empty = mine(chain_, kMinerB, 5);           // fast, high difficulty
  ASSERT_EQ(chain_.import(with_tx).result, ImportResult::kImported);
  EXPECT_EQ(chain_.head_state().balance(derive_address(kBob)),
            ether(1007));
  ASSERT_EQ(chain_.import(empty).result, ImportResult::kImported);
  // the tx'd block lost; bob's balance reverts on the canonical state
  EXPECT_EQ(chain_.head().hash(), empty.hash());
  EXPECT_EQ(chain_.head_state().balance(derive_address(kBob)), ether(1000));
}

TEST_F(ChainTest, CanonicalLookupByNumber) {
  Block b1 = mine(chain_, kMinerA);
  chain_.import(b1);
  Block b2 = mine(chain_, kMinerA);
  chain_.import(b2);
  EXPECT_EQ(chain_.block_by_number(1)->hash(), b1.hash());
  EXPECT_EQ(chain_.block_by_number(2)->hash(), b2.hash());
  EXPECT_EQ(chain_.block_by_number(3), nullptr);
  EXPECT_EQ(*chain_.canonical_hash(2), b2.hash());
}

TEST_F(ChainTest, TotalDifficultyAccumulates) {
  const U256 genesis_td = chain_.head_total_difficulty();
  Block b = mine(chain_, kMinerA);
  chain_.import(b);
  EXPECT_EQ(chain_.head_total_difficulty(),
            genesis_td + b.header.difficulty);
}

TEST_F(ChainTest, PruneStatesBlocksDeepImports) {
  std::vector<Block> blocks;
  for (int i = 0; i < 5; ++i) {
    Block b = mine(chain_, kMinerA);
    chain_.import(b);
    blocks.push_back(b);
  }
  chain_.prune_states_below(5, /*checkpoint_interval=*/1000);
  // a competing child of a pruned block can no longer be verified
  Block fork_child = blocks[1];
  fork_child.header.nonce = 777;  // distinct block, same parent as blocks[1]
  EXPECT_EQ(chain_.import(fork_child).result, ImportResult::kUnknownParent);
  // head continues to work
  Block next = mine(chain_, kMinerA);
  EXPECT_EQ(chain_.import(next).result, ImportResult::kImported);
}

// ------------------------------------------------------------ the DAO rule

class DaoForkTest : public ::testing::Test {
 protected:
  static constexpr BlockNumber kForkBlock = 3;

  DaoForkTest()
      : eth_(ChainConfig::eth(kForkBlock), executor_, default_alloc()),
        etc_(ChainConfig::etc(kForkBlock, std::nullopt), executor_,
             default_alloc()) {
    dao_ = derive_address(PrivateKey::from_seed(200));
    refund_ = derive_address(PrivateKey::from_seed(201));
  }

  /// Fund the DAO account on both chains pre-fork so the refund is visible.
  void fund_dao() {
    Transaction tx = make_transaction(kAlice, 0, dao_, ether(100),
                                      std::nullopt);
    for (Blockchain* chain : {&eth_, &etc_}) {
      chain->set_dao_accounts({dao_}, refund_);
      Block b = chain->produce_block(kMinerA,
                                     chain->head().header.timestamp + 14,
                                     {tx});
      ASSERT_EQ(chain->import(b).result, ImportResult::kImported);
    }
  }

  void advance(Blockchain& chain, int n) {
    for (int i = 0; i < n; ++i) {
      Block b = chain.produce_block(kMinerA,
                                    chain.head().header.timestamp + 14, {});
      ASSERT_EQ(chain.import(b).result, ImportResult::kImported);
    }
  }

  TransferExecutor executor_;
  Blockchain eth_;
  Blockchain etc_;
  Address dao_;
  Address refund_;
};

TEST_F(DaoForkTest, ChainsShareHistoryUntilFork) {
  fund_dao();
  EXPECT_EQ(eth_.head().hash(), etc_.head().hash());
  advance(eth_, 1);
  advance(etc_, 1);
  EXPECT_EQ(eth_.head().hash(), etc_.head().hash());  // block 2: still equal
}

TEST_F(DaoForkTest, ForkBlockDivergesAndAppliesRefund) {
  fund_dao();
  advance(eth_, 1);
  advance(etc_, 1);
  advance(eth_, 1);  // block 3: the fork block
  advance(etc_, 1);
  EXPECT_NE(eth_.head().hash(), etc_.head().hash());
  // ETH applied the refund; ETC kept the attacker's balance
  EXPECT_EQ(eth_.head_state().balance(dao_), Wei(0));
  EXPECT_EQ(eth_.head_state().balance(refund_), ether(100));
  EXPECT_EQ(etc_.head_state().balance(dao_), ether(100));
  EXPECT_EQ(etc_.head_state().balance(refund_), Wei(0));
  // the marker is only on ETH's fork block
  EXPECT_EQ(eth_.head().header.extra_data, dao_fork_extra_data());
  EXPECT_TRUE(etc_.head().header.extra_data.empty());
}

TEST_F(DaoForkTest, EachSideRejectsTheOthersForkBlock) {
  fund_dao();
  advance(eth_, 1);
  advance(etc_, 1);

  // produce each side's fork block and cross-import: both must refuse
  Block eth_fork = eth_.produce_block(kMinerA,
                                      eth_.head().header.timestamp + 14, {});
  Block etc_fork = etc_.produce_block(kMinerA,
                                      etc_.head().header.timestamp + 14, {});
  EXPECT_EQ(etc_.import(eth_fork).result, ImportResult::kWrongFork);
  EXPECT_EQ(eth_.import(etc_fork).result, ImportResult::kWrongFork);
  // and each accepts its own
  EXPECT_EQ(eth_.import(eth_fork).result, ImportResult::kImported);
  EXPECT_EQ(etc_.import(etc_fork).result, ImportResult::kImported);
}

// ------------------------------------------------------------------ txpool

class TxPoolTest : public ::testing::Test {
 protected:
  TxPoolTest() : pool_(config_) {
    state_.add_balance(derive_address(kAlice), ether(100));
    state_.add_balance(derive_address(kBob), ether(100));
  }

  ChainConfig config_ = ChainConfig::mainnet_pre_fork();
  State state_;
  TxPool pool_;
};

TEST_F(TxPoolTest, AddAndCollect) {
  Transaction tx = make_transaction(kAlice, 0, derive_address(kBob), ether(1),
                                    std::nullopt);
  EXPECT_EQ(pool_.add(tx, state_, 1), PoolAddResult::kAdded);
  EXPECT_EQ(pool_.add(tx, state_, 1), PoolAddResult::kAlreadyKnown);
  EXPECT_TRUE(pool_.contains(tx.hash()));
  auto picked = pool_.collect(10, state_);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].hash(), tx.hash());
}

TEST_F(TxPoolTest, OrdersByGasPrice) {
  Transaction cheap = make_transaction(kAlice, 0, derive_address(kBob),
                                       ether(1), std::nullopt, gwei(10));
  Transaction rich = make_transaction(kBob, 0, derive_address(kAlice),
                                      ether(1), std::nullopt, gwei(50));
  pool_.add(cheap, state_, 1);
  pool_.add(rich, state_, 1);
  auto picked = pool_.collect(10, state_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].hash(), rich.hash());
}

TEST_F(TxPoolTest, NonceContiguityPerSender) {
  Transaction t0 = make_transaction(kAlice, 0, derive_address(kBob), ether(1),
                                    std::nullopt, gwei(10));
  Transaction t2 = make_transaction(kAlice, 2, derive_address(kBob), ether(1),
                                    std::nullopt, gwei(99));
  pool_.add(t0, state_, 1);
  pool_.add(t2, state_, 1);
  auto picked = pool_.collect(10, state_);
  // nonce 2 unusable until nonce 1 appears, despite its high price
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].nonce, 0u);

  Transaction t1 = make_transaction(kAlice, 1, derive_address(kBob), ether(1),
                                    std::nullopt, gwei(10));
  pool_.add(t1, state_, 1);
  picked = pool_.collect(10, state_);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].nonce, 0u);
  EXPECT_EQ(picked[1].nonce, 1u);
  EXPECT_EQ(picked[2].nonce, 2u);
}

TEST_F(TxPoolTest, ReplacementRequiresBetterPrice) {
  Transaction original = make_transaction(kAlice, 0, derive_address(kBob),
                                          ether(1), std::nullopt, gwei(20));
  Transaction worse = make_transaction(kAlice, 0, derive_address(kBob),
                                       ether(2), std::nullopt, gwei(20));
  Transaction better = make_transaction(kAlice, 0, derive_address(kBob),
                                        ether(3), std::nullopt, gwei(40));
  EXPECT_EQ(pool_.add(original, state_, 1), PoolAddResult::kAdded);
  EXPECT_EQ(pool_.add(worse, state_, 1), PoolAddResult::kUnderpriced);
  EXPECT_EQ(pool_.add(better, state_, 1), PoolAddResult::kReplacedExisting);
  EXPECT_EQ(pool_.size(), 1u);
  EXPECT_FALSE(pool_.contains(original.hash()));
  EXPECT_TRUE(pool_.contains(better.hash()));
}

TEST_F(TxPoolTest, RejectsStaleNonce) {
  state_.set_nonce(derive_address(kAlice), 5);
  Transaction tx = make_transaction(kAlice, 3, derive_address(kBob), ether(1),
                                    std::nullopt);
  EXPECT_EQ(pool_.add(tx, state_, 1), PoolAddResult::kNonceTooLow);
}

TEST_F(TxPoolTest, Eip155GateAtThePoolEdge) {
  config_.chain_id = 61;
  config_.eip155_block = 100;
  Transaction eth_protected = make_transaction(kAlice, 0, derive_address(kBob),
                                               ether(1), /*chain_id=*/1);
  // before activation a protected tx is refused outright
  EXPECT_EQ(pool_.add(eth_protected, state_, 50),
            PoolAddResult::kWrongChainId);
  // after activation, wrong-chain txs are still refused...
  EXPECT_EQ(pool_.add(eth_protected, state_, 100),
            PoolAddResult::kWrongChainId);
  // ...but matching ones pass
  Transaction etc_protected = make_transaction(kBob, 0, derive_address(kAlice),
                                               ether(1), /*chain_id=*/61);
  EXPECT_EQ(pool_.add(etc_protected, state_, 100), PoolAddResult::kAdded);
  // and legacy (replay-capable) txs always pass — EIP-155 was opt-in
  Transaction legacy = make_transaction(kAlice, 0, derive_address(kBob),
                                        ether(1), std::nullopt);
  EXPECT_EQ(pool_.add(legacy, state_, 100), PoolAddResult::kAdded);
}

TEST_F(TxPoolTest, RemoveIncludedAndStale) {
  Transaction t0 = make_transaction(kAlice, 0, derive_address(kBob), ether(1),
                                    std::nullopt);
  Transaction t1 = make_transaction(kAlice, 1, derive_address(kBob), ether(1),
                                    std::nullopt);
  pool_.add(t0, state_, 1);
  pool_.add(t1, state_, 1);

  State after = state_;
  after.set_nonce(derive_address(kAlice), 2);  // both consumed
  pool_.remove_included({t0}, after);
  EXPECT_FALSE(pool_.contains(t0.hash()));
  EXPECT_FALSE(pool_.contains(t1.hash()));  // stale nonce dropped too
  EXPECT_EQ(pool_.size(), 0u);
}

TEST_F(TxPoolTest, CapacityBound) {
  TxPool::Options opts;
  opts.capacity = 2;
  TxPool small(config_, opts);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Transaction tx = make_transaction(kAlice, i, derive_address(kBob),
                                      ether(1), std::nullopt);
    const auto result = small.add(tx, state_, 1);
    if (i < 2) EXPECT_EQ(result, PoolAddResult::kAdded);
    else EXPECT_EQ(result, PoolAddResult::kPoolFull);
  }
}

TEST_F(TxPoolTest, UnderpricedRejected) {
  TxPool::Options opts;
  opts.min_gas_price = gwei(10);
  TxPool pool(config_, opts);
  Transaction tx = make_transaction(kAlice, 0, derive_address(kBob), ether(1),
                                    std::nullopt, gwei(1));
  EXPECT_EQ(pool.add(tx, state_, 1), PoolAddResult::kUnderpriced);
}

// add(tx, tx.hash(), ...) is the admission add(tx, ...) runs: driven in
// lockstep through every outcome, two pools give the same result at each
// step and end with the same contents.
TEST_F(TxPoolTest, PrecomputedHashAdmitsExactlyLikeTheHashingAdd) {
  config_.chain_id = 61;
  config_.eip155_block = 100;
  const PrivateKey carol = PrivateKey::from_seed(3);
  state_.set_nonce(derive_address(carol), 5);
  TxPool::Options opts;
  opts.capacity = 3;
  TxPool hashing(config_, opts);
  TxPool precomputed(config_, opts);

  const Address to = derive_address(kBob);
  struct Step {
    Transaction tx;
    PoolAddResult expected;
  };
  const Transaction a0 =
      make_transaction(kAlice, 0, to, ether(1), std::nullopt, gwei(20));
  const std::vector<Step> steps = {
      {a0, PoolAddResult::kAdded},
      {a0, PoolAddResult::kAlreadyKnown},
      {make_transaction(kAlice, 0, to, ether(2), std::nullopt, gwei(20)),
       PoolAddResult::kUnderpriced},
      {make_transaction(kAlice, 0, to, ether(3), std::nullopt, gwei(40)),
       PoolAddResult::kReplacedExisting},
      {make_transaction(carol, 3, to, ether(1), std::nullopt, gwei(20)),
       PoolAddResult::kNonceTooLow},
      {make_transaction(kBob, 0, to, ether(1), /*chain_id=*/1, gwei(20)),
       PoolAddResult::kWrongChainId},
      {make_transaction(kBob, 0, to, ether(1), std::nullopt, gwei(10)),
       PoolAddResult::kAdded},
      {make_transaction(kBob, 1, to, ether(1), std::nullopt, gwei(10)),
       PoolAddResult::kAdded},
      // full, and nothing strictly cheaper to evict
      {make_transaction(kAlice, 1, to, ether(1), std::nullopt, gwei(5)),
       PoolAddResult::kPoolFull},
      // full, and a strictly cheaper entry makes room
      {make_transaction(kAlice, 1, to, ether(1), std::nullopt, gwei(50)),
       PoolAddResult::kAdded},
  };

  auto sorted_hashes = [](const TxPool& pool) {
    auto hs = pool.hashes();
    std::sort(hs.begin(), hs.end());
    return hs;
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE(i);
    const Transaction& tx = steps[i].tx;
    EXPECT_EQ(hashing.add(tx, state_, 100), steps[i].expected);
    EXPECT_EQ(precomputed.add(tx, tx.hash(), state_, 100), steps[i].expected);
    EXPECT_EQ(sorted_hashes(hashing), sorted_hashes(precomputed));
    EXPECT_EQ(hashing.evictions(), precomputed.evictions());
  }
  EXPECT_EQ(precomputed.evictions(), 1u);

  const auto a = hashing.collect(10, state_);
  const auto b = precomputed.collect(10, state_);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].hash(), b[i].hash());
}

}  // namespace
}  // namespace forksim::core
