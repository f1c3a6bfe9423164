// Mining agents.
//
// Proof-of-work is memoryless: with hashrate h against difficulty D, the
// time to find a block is Exponential(mean = D/h) regardless of how long
// you've already searched. The Miner models exactly that — when the chain
// head changes it simply resamples its completion time. This substitutes
// for Ethash (DESIGN.md substitution table) while preserving the block
// arrival statistics and the difficulty feedback loop the paper measures.
//
// MiningPool adds the paper's §3 "pool mining" layer: members submit shares
// proportional to hashrate; the pool wins blocks as one entity (its address
// is the block's coinbase — what Figure 5 counts) and splits rewards by a
// configurable payout scheme.
#pragma once

#include <string>

#include "sim/node.hpp"

namespace forksim::sim {

class Miner {
 public:
  /// `hashrate` is in hashes/second against the chain's difficulty units.
  Miner(FullNode& node, Address coinbase, double hashrate, Rng rng,
        core::Timestamp genesis_epoch = 0);

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  void set_hashrate(double hashrate);
  double hashrate() const noexcept { return hashrate_; }
  /// The node this miner submits blocks through (chaos harness pairs
  /// miners with their hosts when crashing/restarting nodes).
  const FullNode& node() const noexcept { return node_; }
  const Address& coinbase() const noexcept { return coinbase_; }
  std::uint64_t blocks_mined() const noexcept { return blocks_mined_; }

  /// Max transactions packed per block.
  std::size_t max_txs_per_block = 200;

 private:
  void reschedule();
  void on_found(std::uint64_t attempt);

  FullNode& node_;
  Address coinbase_;
  double hashrate_;
  Rng rng_;
  core::Timestamp genesis_epoch_;
  bool running_ = false;
  std::uint64_t attempt_ = 0;  // invalidates stale completion events
  std::uint64_t blocks_mined_ = 0;
};

enum class PayoutScheme {
  kProportional,  // reward split by shares in the current round
  kPps,           // pay-per-share at expected value (pool absorbs variance)
  kPplns,         // pay-per-last-N-shares
};

/// Share-based payout bookkeeping for one pool. Decoupled from networking:
/// callers report rounds (elapsed time) and found blocks; the ledger tracks
/// every member's accrued reward so the ablation bench can compare payout
/// variance across schemes.
class PoolLedger {
 public:
  struct Member {
    std::string name;
    double hashrate = 0;     // relative share weight
    double paid_ether = 0;   // total accrued payout
    std::uint64_t shares_submitted = 0;
  };

  PoolLedger(PayoutScheme scheme, double share_difficulty,
             std::uint64_t pplns_window = 1000)
      : scheme_(scheme),
        share_difficulty_(share_difficulty),
        pplns_window_(pplns_window) {}

  std::size_t add_member(std::string name, double hashrate);
  const std::vector<Member>& members() const noexcept { return members_; }
  double total_hashrate() const noexcept;

  /// Advance one mining round of `duration` seconds: members produce shares
  /// (Poisson, rate = hashrate / share_difficulty).
  void advance_round(double duration, Rng& rng);

  /// The pool found a block worth `reward_ether`; distribute per the scheme.
  void on_block_found(double reward_ether);

  /// PPS pays continuously; call at round end to settle accrued share value.
  /// `expected_value_per_share` = share_difficulty / block_difficulty *
  /// block_reward.
  void settle_pps(double expected_value_per_share);

  double total_paid() const noexcept;

 private:
  PayoutScheme scheme_;
  double share_difficulty_;
  std::uint64_t pplns_window_;
  std::vector<Member> members_;
  /// Current round's shares per member (proportional scheme).
  std::vector<std::uint64_t> round_shares_;
  /// Sliding window of (member, shares) for PPLNS.
  std::deque<std::pair<std::size_t, std::uint64_t>> recent_shares_;
  std::uint64_t recent_total_ = 0;
  /// Unsettled shares for PPS.
  std::vector<std::uint64_t> unsettled_shares_;
};

}  // namespace forksim::sim
