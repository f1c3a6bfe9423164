#include "analysis/chainindex.hpp"

#include <algorithm>

namespace forksim::analysis {

void ChainIndex::ingest_block(Chain chain, const core::Block& block,
                              const core::State* post_state) {
  PerChain& db = side(chain);
  const Hash256 block_hash = block.hash();
  if (db.blocks.contains(block_hash)) return;  // idempotent

  BlockRecord rec;
  rec.hash = block_hash;
  rec.chain = chain;
  rec.number = block.header.number;
  rec.timestamp = block.header.timestamp;
  rec.coinbase = block.header.coinbase;
  rec.difficulty = block.header.difficulty.to_double();
  rec.tx_count = block.transactions.size();
  rec.ommer_count = block.ommers.size();
  db.blocks.emplace(block_hash, rec);
  db.block_order.push_back(block_hash);
  ++db.coinbase_wins[block.header.coinbase];

  for (const core::Transaction& tx : block.transactions) {
    TxRecord txr;
    txr.hash = tx.hash();
    txr.chain = chain;
    txr.block_number = block.header.number;
    txr.timestamp = block.header.timestamp;
    txr.sender = tx.sender().value_or(Address{});
    txr.to = tx.to;
    txr.value = tx.value;
    txr.is_contract_creation = tx.is_contract_creation();
    txr.replay_protected = tx.is_replay_protected();
    if (tx.to && post_state != nullptr)
      txr.is_contract_call = !post_state->code(*tx.to).empty();

    if (auto echo = echoes_.observe(chain, txr.hash,
                                    static_cast<SimTime>(txr.timestamp)))
      echo_log_.push_back(*echo);

    by_sender_[txr.sender].push_back(txr.hash);
    db.txs.emplace(txr.hash, std::move(txr));
  }
}

void ChainIndex::ingest_chain(Chain chain, const core::Blockchain& source) {
  for (core::BlockNumber n = 1; n <= source.height(); ++n) {
    const core::Block* b = source.block_by_number(n);
    if (b == nullptr) break;
    // the head state is the best code oracle available without archival
    // states; contracts are create-only so this only over-approximates for
    // self-destructed contracts
    ingest_block(chain, *b, &source.head_state());
  }
}

const ChainIndex::TxRecord* ChainIndex::transaction(
    Chain chain, const Hash256& tx_hash) const {
  const PerChain& db = side(chain);
  auto it = db.txs.find(tx_hash);
  return it == db.txs.end() ? nullptr : &it->second;
}

const ChainIndex::BlockRecord* ChainIndex::block(
    Chain chain, const Hash256& block_hash) const {
  const PerChain& db = side(chain);
  auto it = db.blocks.find(block_hash);
  return it == db.blocks.end() ? nullptr : &it->second;
}

std::vector<const ChainIndex::TxRecord*> ChainIndex::transactions_from(
    const Address& sender) const {
  std::vector<const TxRecord*> out;
  auto it = by_sender_.find(sender);
  if (it == by_sender_.end()) return out;
  for (const Hash256& h : it->second) {
    if (const TxRecord* r = transaction(Chain::kEth, h)) out.push_back(r);
    if (const TxRecord* r = transaction(Chain::kEtc, h)) out.push_back(r);
  }
  return out;
}

std::size_t ChainIndex::block_count(Chain chain) const {
  return side(chain).blocks.size();
}

std::size_t ChainIndex::tx_count(Chain chain) const {
  return side(chain).txs.size();
}

TimeSeries ChainIndex::blocks_over_time(Chain chain,
                                        double bucket_seconds) const {
  TimeSeries ts(bucket_seconds);
  for (const Hash256& h : side(chain).block_order)
    ts.record(static_cast<SimTime>(side(chain).blocks.at(h).timestamp));
  return ts;
}

TimeSeries ChainIndex::difficulty_over_time(Chain chain,
                                            double bucket_seconds) const {
  TimeSeries ts(bucket_seconds);
  for (const Hash256& h : side(chain).block_order) {
    const BlockRecord& b = side(chain).blocks.at(h);
    ts.record(static_cast<SimTime>(b.timestamp), b.difficulty);
  }
  return ts;
}

std::vector<double> ChainIndex::contract_fraction(
    Chain chain, double bucket_seconds) const {
  TimeSeries contract(bucket_seconds);
  TimeSeries all(bucket_seconds);
  for (const auto& [hash, tx] : side(chain).txs) {
    all.record(static_cast<SimTime>(tx.timestamp));
    if (tx.is_contract_call || tx.is_contract_creation)
      contract.record(static_cast<SimTime>(tx.timestamp));
  }
  return ratio_by_bucket(contract, all);
}

std::vector<std::pair<Address, std::uint64_t>> ChainIndex::coinbase_histogram(
    Chain chain) const {
  std::vector<std::pair<Address, std::uint64_t>> out(
      side(chain).coinbase_wins.begin(), side(chain).coinbase_wins.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

double ChainIndex::top_pool_share(Chain chain, std::size_t n) const {
  const auto histogram = coinbase_histogram(chain);
  std::uint64_t total = 0;
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    total += histogram[i].second;
    if (i < n) top += histogram[i].second;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(top) / static_cast<double>(total);
}

}  // namespace forksim::analysis
