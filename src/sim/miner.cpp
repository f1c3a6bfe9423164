#include "sim/miner.hpp"

#include <algorithm>

namespace forksim::sim {

Miner::Miner(FullNode& node, Address coinbase, double hashrate, Rng rng,
             core::Timestamp genesis_epoch)
    : node_(node),
      coinbase_(coinbase),
      hashrate_(hashrate),
      rng_(rng),
      genesis_epoch_(genesis_epoch) {
  // chain a head-change hook without clobbering an existing one
  auto previous = node_.on_head_changed;
  node_.on_head_changed = [this, previous = std::move(previous)] {
    if (previous) previous();
    if (running_) reschedule();
  };
}

void Miner::start() {
  if (running_) return;
  running_ = true;
  reschedule();
}

void Miner::stop() {
  running_ = false;
  ++attempt_;  // kill any in-flight completion
}

void Miner::set_hashrate(double hashrate) {
  hashrate_ = hashrate;
  if (running_) reschedule();  // memoryless: resampling is exact
}

void Miner::reschedule() {
  ++attempt_;
  if (hashrate_ <= 0.0) return;
  auto& loop = node_.network().loop();
  // difficulty the next block will carry if found one target-interval ahead
  const double difficulty =
      node_.chain()
          .next_block_difficulty(node_.chain().head().header.timestamp + 1)
          .to_double();
  const double mean = difficulty / hashrate_;
  const double delay = rng_.exponential(mean);
  const std::uint64_t attempt = attempt_;
  loop.schedule(delay, [this, attempt] { on_found(attempt); });
}

void Miner::on_found(std::uint64_t attempt) {
  if (!running_ || attempt != attempt_) return;
  auto& chain = node_.chain();
  auto& loop = node_.network().loop();
  const auto now = genesis_epoch_ + static_cast<core::Timestamp>(loop.now());
  const core::Timestamp timestamp =
      std::max<core::Timestamp>(now, chain.head().header.timestamp + 1);
  const auto txs =
      node_.txpool().collect(max_txs_per_block, chain.head_state());
  const core::Block block = chain.produce_block(coinbase_, timestamp, txs,
                                                /*pow_nonce=*/rng_.next());
  ++blocks_mined_;
  node_.submit_block(block);
  // submit_block fires on_head_changed -> reschedule; if our block lost a
  // race and didn't become head, keep mining regardless
  if (running_) reschedule();
}

std::size_t PoolLedger::add_member(std::string name, double hashrate) {
  members_.push_back(Member{std::move(name), hashrate, 0.0, 0});
  round_shares_.push_back(0);
  unsettled_shares_.push_back(0);
  return members_.size() - 1;
}

double PoolLedger::total_hashrate() const noexcept {
  double total = 0;
  for (const auto& m : members_) total += m.hashrate;
  return total;
}

void PoolLedger::advance_round(double duration, Rng& rng) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const double rate = members_[i].hashrate / share_difficulty_;
    const std::uint64_t shares = rng.poisson(rate * duration);
    if (shares == 0) continue;
    members_[i].shares_submitted += shares;
    round_shares_[i] += shares;
    unsettled_shares_[i] += shares;
    recent_shares_.emplace_back(i, shares);
    recent_total_ += shares;
    while (recent_total_ > pplns_window_ && recent_shares_.size() > 1) {
      const auto& [member, count] = recent_shares_.front();
      if (recent_total_ - count < pplns_window_) break;
      recent_total_ -= count;
      recent_shares_.pop_front();
    }
  }
}

void PoolLedger::on_block_found(double reward_ether) {
  switch (scheme_) {
    case PayoutScheme::kProportional: {
      std::uint64_t total = 0;
      for (auto s : round_shares_) total += s;
      if (total == 0) return;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        members_[i].paid_ether +=
            reward_ether * static_cast<double>(round_shares_[i]) /
            static_cast<double>(total);
        round_shares_[i] = 0;  // round closes with the block
      }
      break;
    }
    case PayoutScheme::kPps:
      // nothing at block time: shares are paid at expected value via
      // settle_pps; the pool keeps the block reward
      break;
    case PayoutScheme::kPplns: {
      if (recent_total_ == 0) return;
      for (const auto& [member, count] : recent_shares_) {
        members_[member].paid_ether += reward_ether *
                                       static_cast<double>(count) /
                                       static_cast<double>(recent_total_);
      }
      break;
    }
  }
}

void PoolLedger::settle_pps(double expected_value_per_share) {
  if (scheme_ != PayoutScheme::kPps) return;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i].paid_ether +=
        expected_value_per_share * static_cast<double>(unsettled_shares_[i]);
    unsettled_shares_[i] = 0;
  }
}

double PoolLedger::total_paid() const noexcept {
  double total = 0;
  for (const auto& m : members_) total += m.paid_ether;
  return total;
}

}  // namespace forksim::sim
