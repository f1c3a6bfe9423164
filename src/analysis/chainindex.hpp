// ChainIndex — the paper's measurement database.
//
// §3.1: "we ran full Ethereum nodes in both the ETH and ETC networks...
// exported all block and transaction information from the nodes and
// processed it in a separate database." This class is that database:
// ingest canonical blocks from one or more chains, then query the
// aggregates every figure is built from — blocks and transactions per
// bucket, contract-call fractions, coinbase (pool) histograms, top-N pool
// shares, and cross-chain echoes.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/echo.hpp"
#include "core/chain.hpp"
#include "support/timeseries.hpp"

namespace forksim::analysis {

class ChainIndex {
 public:
  struct TxRecord {
    Hash256 hash;
    Chain chain;
    core::BlockNumber block_number = 0;
    core::Timestamp timestamp = 0;
    Address sender;
    std::optional<Address> to;
    core::Wei value;
    bool is_contract_call = false;      // target had code at execution time
    bool is_contract_creation = false;
    bool replay_protected = false;      // carried an EIP-155 chain id
  };

  struct BlockRecord {
    Hash256 hash;
    Chain chain;
    core::BlockNumber number = 0;
    core::Timestamp timestamp = 0;
    Address coinbase;
    double difficulty = 0;
    std::size_t tx_count = 0;
    std::size_t ommer_count = 0;
  };

  /// Ingest one canonical block. `code_lookup` resolves whether an address
  /// held code (for the contract-call flag); pass nullptr to skip.
  void ingest_block(Chain chain, const core::Block& block,
                    const core::State* post_state);

  /// Ingest a whole chain's canonical history (excluding genesis).
  void ingest_chain(Chain chain, const core::Blockchain& source);

  // ---- per-entity queries -------------------------------------------------
  const TxRecord* transaction(Chain chain, const Hash256& tx_hash) const;
  const BlockRecord* block(Chain chain, const Hash256& block_hash) const;
  std::vector<const TxRecord*> transactions_from(const Address& sender) const;

  std::size_t block_count(Chain chain) const;
  std::size_t tx_count(Chain chain) const;

  // ---- aggregates (the figures' raw series) -------------------------------
  /// Blocks per time bucket.
  TimeSeries blocks_over_time(Chain chain, double bucket_seconds) const;
  /// Average difficulty per bucket.
  TimeSeries difficulty_over_time(Chain chain, double bucket_seconds) const;
  /// Fraction of transactions that are contract interactions, per bucket.
  std::vector<double> contract_fraction(Chain chain,
                                        double bucket_seconds) const;

  /// Coinbase -> blocks won (the Figure-5 input).
  std::vector<std::pair<Address, std::uint64_t>> coinbase_histogram(
      Chain chain) const;
  /// Share of blocks won by the top n coinbases.
  double top_pool_share(Chain chain, std::size_t n) const;

  /// Echo statistics accumulated during ingestion (a tx whose hash appears
  /// on both chains, counted on the later chain — §3.3's methodology).
  const EchoDetector& echoes() const noexcept { return echoes_; }
  /// All echoed transactions seen so far.
  const std::vector<EchoDetector::Echo>& echo_log() const noexcept {
    return echo_log_;
  }

 private:
  struct PerChain {
    std::unordered_map<Hash256, TxRecord, Hash256Hasher> txs;
    std::unordered_map<Hash256, BlockRecord, Hash256Hasher> blocks;
    std::vector<Hash256> block_order;  // ingestion order
    std::unordered_map<Address, std::uint64_t, AddressHasher> coinbase_wins;
  };

  PerChain& side(Chain chain) {
    return chain == Chain::kEth ? eth_ : etc_;
  }
  const PerChain& side(Chain chain) const {
    return chain == Chain::kEth ? eth_ : etc_;
  }

  PerChain eth_;
  PerChain etc_;
  std::unordered_map<Address, std::vector<Hash256>, AddressHasher> by_sender_;
  EchoDetector echoes_;
  std::vector<EchoDetector::Echo> echo_log_;
};

}  // namespace forksim::analysis
