// Block-granular chain process for long-horizon simulations.
//
// The full-node network (node.hpp) is protocol-complete but simulates every
// message; reproducing the paper's nine-month figures needs ~1.7M blocks
// per chain, so the figure benches run on this reduced model instead: block
// arrivals are sampled directly from the mining race (Exponential with mean
// difficulty/hashrate — exact for PoW) while the difficulty evolves through
// the *real* consensus rule (core::next_difficulty). Everything the paper
// measures at block granularity — difficulty response, block intervals,
// blocks/hour, pool win counts — is therefore driven by the same protocol
// math as the full node.
//
// One approximation: a block's difficulty depends on its own timestamp, so
// the race target moves while miners search. We sample the interval against
// the difficulty at (parent + 1 s) and then finalize the difficulty at the
// sampled timestamp, exactly as a miner re-targets its template; the target
// drifts at most 1/2048-per-notch during a round, which is negligible.
#pragma once

#include <vector>

#include "core/difficulty.hpp"
#include "support/rng.hpp"

namespace forksim::sim {

struct BlockEvent {
  double time = 0;      // seconds since simulation start
  core::BlockNumber number = 0;
  double difficulty = 0;
  double interval = 0;  // seconds since previous block
  std::size_t pool = 0; // index of the winning pool (weights vector)
};

class ChainProcess {
 public:
  ChainProcess(core::ChainConfig config, U256 initial_difficulty,
               double initial_hashrate);

  const core::ChainConfig& config() const noexcept { return config_; }

  void set_hashrate(double hashes_per_second) noexcept {
    hashrate_ = hashes_per_second;
  }
  double hashrate() const noexcept { return hashrate_; }

  /// Relative weights used to pick each block's winning pool.
  void set_pool_weights(std::vector<double> weights) {
    pool_weights_ = std::move(weights);
  }

  const U256& difficulty() const noexcept { return difficulty_; }
  double time() const noexcept { return time_; }
  core::BlockNumber height() const noexcept { return number_; }

  /// Override the retarget rule (ablation bench); defaults to the real one.
  void set_retarget_rule(core::RetargetRule rule) noexcept { rule_ = rule; }

  /// Mine the next block: advances time, difficulty, and height.
  BlockEvent mine_next(Rng& rng);

  /// Mine until the chain clock passes `until_time`; invokes `sink` per
  /// block. Returns blocks mined.
  template <typename Sink>
  std::size_t mine_until(double until_time, Rng& rng, Sink&& sink) {
    std::size_t n = 0;
    while (time_ < until_time) {
      if (hashrate_ <= 0.0) {  // nobody mining: stall to the horizon
        time_ = until_time;
        break;
      }
      sink(mine_next(rng));
      ++n;
    }
    return n;
  }

 private:
  core::ChainConfig config_;
  core::RetargetRule rule_ = core::RetargetRule::kHomestead;
  U256 difficulty_;
  double hashrate_;
  double time_ = 0;
  core::BlockNumber number_ = 0;
  core::Timestamp parent_timestamp_ = 0;
  std::vector<double> pool_weights_;
  // epoch-average ablation bookkeeping
  double window_start_time_ = 0;
  core::BlockNumber window_start_number_ = 0;
  static constexpr core::BlockNumber kEpochLength = 128;
};

/// Exchange-rate process: geometric Brownian motion stepped daily, with
/// scheduled multiplicative shocks (the Zcash launch, the March 2017
/// speculation rally).
class MarketModel {
 public:
  struct Shock {
    double day;
    double factor;  // price multiplier applied that day
  };

  MarketModel(double initial_price_usd, double daily_drift,
              double daily_volatility)
      : price_(initial_price_usd),
        drift_(daily_drift),
        vol_(daily_volatility) {}

  void add_shock(double day, double factor) {
    shocks_.push_back({day, factor});
  }

  /// Advance one day.
  void step(double day, Rng& rng);

  double price() const noexcept { return price_; }

 private:
  double price_;
  double drift_;
  double vol_;
  std::vector<Shock> shocks_;
};

/// Rational miner migration: mobile hashpower flows toward the chain with
/// the better expected USD-per-hash, with inertia; loyal floors never move
/// (ideological miners — the reason ETC survived at all). An optional
/// external sink (Zcash) borrows mobile hashpower for a window of days.
class MigrationModel {
 public:
  struct Params {
    /// Fraction of the mobile pool that can switch per day.
    double mobility = 0.25;
    /// Hashpower that never leaves its chain (ideological miners).
    double loyal_a = 0.0;
    double loyal_b = 0.0;
    /// External sink window: [start_day, end_day) drains up to
    /// `sink_fraction` of mobile hashpower.
    double sink_start_day = -1;
    double sink_end_day = -1;
    double sink_fraction = 0.0;
  };

  MigrationModel(double hashrate_a, double hashrate_b, Params params)
      : a_(hashrate_a), b_(hashrate_b), params_(params) {}

  /// One daily step. `profit_a`/`profit_b` are expected USD per hash.
  void step(double day, double profit_a, double profit_b, Rng& rng);

  double hashrate_a() const noexcept { return a_; }
  double hashrate_b() const noexcept { return b_; }
  double parked_in_sink() const noexcept { return sink_from_a_ + sink_from_b_; }

 private:
  double a_;
  double b_;
  Params params_;
  double sink_from_a_ = 0;  // hashpower currently parked in the sink
  double sink_from_b_ = 0;
};

/// Expected hashes a miner must compute to earn one USD — the paper's
/// Figure 3 metric: difficulty / (block_reward_ether * price_usd)... i.e.
/// hashes-per-ether divided by USD-per-ether.
double hashes_per_usd(double difficulty, double block_reward_ether,
                      double price_usd);

}  // namespace forksim::sim
