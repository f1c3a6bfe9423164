// Analysis-layer tests: the ChainIndex measurement database, figure
// helpers, and paper-check plumbing.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/chainindex.hpp"
#include "analysis/figures.hpp"
#include "core/chain.hpp"
#include "evm/contracts.hpp"
#include "evm/executor.hpp"

namespace forksim::analysis {
namespace {

using core::ether;
using core::gwei;

const PrivateKey kAlice = PrivateKey::from_seed(1);
const PrivateKey kBob = PrivateKey::from_seed(2);
const Address kMinerA = derive_address(PrivateKey::from_seed(50));
const Address kMinerB = derive_address(PrivateKey::from_seed(51));

core::ChainConfig eth_config_with_eip155() {
  core::ChainConfig c = core::ChainConfig::eth(1'000'000);
  c.eip155_block = 0;  // replay protection available from genesis
  return c;
}

class ChainIndexTest : public ::testing::Test {
 protected:
  ChainIndexTest()
      : eth_(eth_config_with_eip155(), executor_,
             {{derive_address(kAlice), ether(1000)},
              {derive_address(kBob), ether(1000)}}),
        etc_(core::ChainConfig::etc(1'000'000, std::nullopt), executor_,
             {{derive_address(kAlice), ether(1000)},
              {derive_address(kBob), ether(1000)}}) {}

  core::Block mine(core::Blockchain& chain, const Address& miner,
                   const std::vector<core::Transaction>& txs = {}) {
    core::Block b = chain.produce_block(
        miner, chain.head().header.timestamp + 14, txs);
    EXPECT_EQ(chain.import(b).result, core::ImportResult::kImported);
    return b;
  }

  evm::EvmExecutor executor_;
  core::Blockchain eth_;
  core::Blockchain etc_;
  ChainIndex index_;
};

TEST_F(ChainIndexTest, IngestCountsBlocksAndTxs) {
  const auto tx = core::make_transaction(kAlice, 0, derive_address(kBob),
                                         ether(1), std::nullopt);
  mine(eth_, kMinerA, {tx});
  mine(eth_, kMinerA);
  index_.ingest_chain(Chain::kEth, eth_);
  EXPECT_EQ(index_.block_count(Chain::kEth), 2u);
  EXPECT_EQ(index_.tx_count(Chain::kEth), 1u);
  EXPECT_EQ(index_.block_count(Chain::kEtc), 0u);
}

TEST_F(ChainIndexTest, IngestIsIdempotent) {
  mine(eth_, kMinerA);
  index_.ingest_chain(Chain::kEth, eth_);
  index_.ingest_chain(Chain::kEth, eth_);
  EXPECT_EQ(index_.block_count(Chain::kEth), 1u);
}

TEST_F(ChainIndexTest, TxRecordFields) {
  const auto tx = core::make_transaction(kAlice, 0, derive_address(kBob),
                                         ether(7), /*chain_id=*/1);
  mine(eth_, kMinerA, {tx});
  index_.ingest_chain(Chain::kEth, eth_);

  const auto* record = index_.transaction(Chain::kEth, tx.hash());
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->sender, derive_address(kAlice));
  EXPECT_EQ(*record->to, derive_address(kBob));
  EXPECT_EQ(record->value, ether(7));
  EXPECT_TRUE(record->replay_protected);
  EXPECT_FALSE(record->is_contract_call);
  EXPECT_EQ(record->block_number, 1u);
}

TEST_F(ChainIndexTest, ContractCallFlag) {
  const auto deploy = core::make_transaction(
      kAlice, 0, std::nullopt, core::Wei(0), std::nullopt, gwei(20),
      1'000'000, evm::wrap_as_init_code(evm::contracts::counter_runtime()));
  core::Block b1 = mine(eth_, kMinerA, {deploy});
  const Address counter =
      *(*eth_.receipts_of(b1.hash()))[0].created_contract;
  const auto call = core::make_transaction(kAlice, 1, counter, core::Wei(0),
                                           std::nullopt, gwei(20), 100'000);
  const auto plain = core::make_transaction(kAlice, 2, derive_address(kBob),
                                            ether(1), std::nullopt);
  mine(eth_, kMinerA, {call, plain});
  index_.ingest_chain(Chain::kEth, eth_);

  EXPECT_TRUE(index_.transaction(Chain::kEth, deploy.hash())
                  ->is_contract_creation);
  EXPECT_TRUE(index_.transaction(Chain::kEth, call.hash())->is_contract_call);
  EXPECT_FALSE(
      index_.transaction(Chain::kEth, plain.hash())->is_contract_call);

  // the per-bucket contract fraction reflects the mix: block 2 carried one
  // contract call and one plain transfer
  const auto fractions = index_.contract_fraction(Chain::kEth, 3600.0);
  ASSERT_FALSE(fractions.empty());
  EXPECT_NEAR(fractions[0], 2.0 / 3.0, 1e-9);  // deploy + call of 3 txs
}

TEST_F(ChainIndexTest, EchoDetectionAcrossChains) {
  const auto tx = core::make_transaction(kAlice, 0, derive_address(kBob),
                                         ether(1), std::nullopt);
  mine(eth_, kMinerA, {tx});
  mine(etc_, kMinerB, {tx});  // the replay
  index_.ingest_chain(Chain::kEth, eth_);
  index_.ingest_chain(Chain::kEtc, etc_);

  EXPECT_EQ(index_.echoes().total_echoes(), 1u);
  EXPECT_EQ(index_.echoes().echoes_into(Chain::kEtc), 1u);
  ASSERT_EQ(index_.echo_log().size(), 1u);
  EXPECT_EQ(index_.echo_log()[0].tx, tx.hash());
  EXPECT_EQ(index_.echo_log()[0].first_seen, Chain::kEth);
}

TEST_F(ChainIndexTest, CoinbaseHistogramAndTopShare) {
  for (int i = 0; i < 3; ++i) mine(eth_, kMinerA);
  mine(eth_, kMinerB);
  index_.ingest_chain(Chain::kEth, eth_);

  const auto histogram = index_.coinbase_histogram(Chain::kEth);
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_EQ(histogram[0].first, kMinerA);
  EXPECT_EQ(histogram[0].second, 3u);
  EXPECT_DOUBLE_EQ(index_.top_pool_share(Chain::kEth, 1), 0.75);
  EXPECT_DOUBLE_EQ(index_.top_pool_share(Chain::kEth, 2), 1.0);
}

TEST_F(ChainIndexTest, TransactionsFromSender) {
  const auto t0 = core::make_transaction(kAlice, 0, derive_address(kBob),
                                         ether(1), std::nullopt);
  const auto t1 = core::make_transaction(kAlice, 1, derive_address(kBob),
                                         ether(2), std::nullopt);
  mine(eth_, kMinerA, {t0, t1});
  index_.ingest_chain(Chain::kEth, eth_);
  EXPECT_EQ(index_.transactions_from(derive_address(kAlice)).size(), 2u);
  EXPECT_TRUE(index_.transactions_from(derive_address(kBob)).empty());
}

TEST_F(ChainIndexTest, TimeSeriesAggregates) {
  mine(eth_, kMinerA);  // t=14
  mine(eth_, kMinerA);  // t=28
  index_.ingest_chain(Chain::kEth, eth_);
  const auto blocks = index_.blocks_over_time(Chain::kEth, 10.0);
  EXPECT_EQ(blocks.total_count(), 2u);
  const auto diff = index_.difficulty_over_time(Chain::kEth, 10.0);
  EXPECT_GT(diff.total_sum(), 0.0);
}

// -------------------------------------------------------------- figures

TEST(PaperCheckTest, PassAndFailAccounting) {
  PaperCheck check("test");
  check.expect("a", true, "");
  check.expect_ge("b", 5.0, 4.0);
  EXPECT_TRUE(check.all_passed());
  check.expect_le("c", 5.0, 4.0);
  EXPECT_FALSE(check.all_passed());
  EXPECT_EQ(check.checks(), 3u);

  std::ostringstream os;
  check.print(os);
  EXPECT_NE(os.str().find("PASS"), std::string::npos);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
  EXPECT_NE(os.str().find("2/3"), std::string::npos);
}

TEST(FiguresTest, SampleSeries) {
  std::vector<double> dense(100);
  for (std::size_t i = 0; i < 100; ++i) dense[i] = static_cast<double>(i);
  const auto sampled = sample_series(dense, 5);
  ASSERT_EQ(sampled.size(), 5u);
  EXPECT_EQ(sampled.front().first, 0u);
  EXPECT_EQ(sampled.back().first, 99u);
  // short series returned whole
  EXPECT_EQ(sample_series({1.0, 2.0}, 5).size(), 2u);
  EXPECT_TRUE(sample_series({}, 5).empty());
}

TEST(FiguresTest, WindowMeanClipsToTheSeries) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(window_mean(xs, 1, 3), 2.5);
  EXPECT_DOUBLE_EQ(window_mean(xs, 2, 100), 3.5);  // hi past the end
  EXPECT_EQ(window_mean(xs, 4, 10), 0.0);           // empty window
  EXPECT_EQ(window_mean({}, 0, 5), 0.0);
}

TEST(FiguresTest, Smooth) {
  const std::vector<double> xs = {0, 10, 0, 10, 0};
  const auto smoothed = smooth(xs, 3);
  ASSERT_EQ(smoothed.size(), xs.size());
  EXPECT_NEAR(smoothed[2], 20.0 / 3.0, 1e-9);
  // w<=1 is identity
  EXPECT_EQ(smooth(xs, 1), xs);
}

TEST(FiguresTest, FirstStableIndex) {
  const std::vector<double> xs = {100, 50, 20, 14, 14.5, 13.8, 14.1, 30};
  EXPECT_EQ(first_stable_index(xs, 14.0, 1.0, 3), 3);
  EXPECT_EQ(first_stable_index(xs, 14.0, 1.0, 5), -1);
  EXPECT_EQ(first_stable_index({}, 14.0, 1.0, 1), -1);
}

}  // namespace
}  // namespace forksim::analysis
