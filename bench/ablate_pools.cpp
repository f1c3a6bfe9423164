// Ablation A4 — pool payout schemes vs miner income variance.
//
// The paper explains why pools exist: solo mining payouts are "highly
// variable; mining is essentially a lottery" (§3, pool mining). This bench
// quantifies that, comparing a small miner's per-epoch income variance when
// mining solo vs in a pool under proportional, PPS, and PPLNS payouts.
#include <iostream>

#include "experiment.hpp"
#include "sim/miner.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace forksim;
using namespace forksim::sim;

namespace {

constexpr double kBlockDifficulty = 1e5;  // expected hashes per block
constexpr double kEpochSeconds = 600.0;
constexpr int kEpochs = 8000;
constexpr double kSmallHashrate = 10.0;
constexpr double kPoolHashrate = 1000.0;  // incl. the small miner

/// Income stream (ether per epoch) for the small miner mining solo.
std::vector<double> solo_income(Rng& rng) {
  std::vector<double> income;
  for (int e = 0; e < kEpochs; ++e) {
    const double lambda = kSmallHashrate * kEpochSeconds / kBlockDifficulty;
    income.push_back(5.0 * static_cast<double>(rng.poisson(lambda)));
  }
  return income;
}

/// Income stream under a pool scheme. Shares accrue *between* blocks
/// (advance_round before each found block), matching how rounds work in a
/// real pool.
std::vector<double> pooled_income(PayoutScheme scheme, Rng& rng) {
  // PPLNS window sized to ~500 s of pool share production
  PoolLedger ledger(scheme, /*share_difficulty=*/1.0,
                    /*pplns_window=*/500'000);
  const std::size_t miner = ledger.add_member("small", kSmallHashrate);
  ledger.add_member("rest", kPoolHashrate - kSmallHashrate);

  std::vector<double> income;
  double last = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const double pool_lambda =
        kPoolHashrate * kEpochSeconds / kBlockDifficulty;
    const std::uint64_t blocks = rng.poisson(pool_lambda);
    const double slice =
        kEpochSeconds / static_cast<double>(blocks + 1);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      ledger.advance_round(slice, rng);
      ledger.on_block_found(5.0);
    }
    ledger.advance_round(slice, rng);
    if (scheme == PayoutScheme::kPps)
      ledger.settle_pps(5.0 * 1.0 / kBlockDifficulty);
    const double paid = ledger.members()[miner].paid_ether;
    income.push_back(paid - last);
    last = paid;
  }
  return income;
}

}  // namespace

bench::Report bench::ablate_pools(std::uint64_t seed, bool, obs::BenchRecord&) {
  std::cout << "== Ablation A4: payout scheme vs small-miner variance ==\n";
  std::cout << "(small miner = 1% of pool hashpower, 8000 ten-minute epochs)\n\n";

  Rng rng(seed);
  const auto solo = solo_income(rng);
  const auto prop = pooled_income(PayoutScheme::kProportional, rng);
  const auto pps = pooled_income(PayoutScheme::kPps, rng);
  const auto pplns = pooled_income(PayoutScheme::kPplns, rng);

  Table table({"scheme", "mean ether/epoch", "stddev", "coeff of variation"});
  auto row = [&](const char* name, const std::vector<double>& xs) {
    const double m = mean(xs);
    const double s = stddev(xs);
    table.add_row({name, fmt(m, 4), fmt(s, 4), fmt(m > 0 ? s / m : 0, 2)});
  };
  row("solo", solo);
  row("pool / proportional", prop);
  row("pool / PPS", pps);
  row("pool / PPLNS", pplns);
  table.print(std::cout);

  analysis::PaperCheck check("A4 — payout scheme ablation");

  // expected income must be (approximately) the same everywhere — pools
  // reduce variance, not expectation
  const double solo_mean = mean(solo);
  check.expect("all schemes pay the same expected income (within 15%)",
               std::abs(mean(prop) - solo_mean) <= solo_mean * 0.15 &&
                   std::abs(mean(pps) - solo_mean) <= solo_mean * 0.15 &&
                   std::abs(mean(pplns) - solo_mean) <= solo_mean * 0.15,
               "solo " + fmt(solo_mean, 4) + ", prop " + fmt(mean(prop), 4) +
                   ", pps " + fmt(mean(pps), 4) + ", pplns " +
                   fmt(mean(pplns), 4));

  // the paper's point: pooling slashes variance vs solo
  check.expect("every pool scheme cuts variance vs solo mining",
               stddev(prop) < stddev(solo) && stddev(pps) < stddev(solo) &&
                   stddev(pplns) < stddev(solo),
               "stddevs solo " + fmt(stddev(solo), 3) + " > pool " +
                   fmt(stddev(prop), 3) + "/" + fmt(stddev(pps), 3) + "/" +
                   fmt(stddev(pplns), 3));

  // PPS absorbs the block lottery entirely: lowest variance of all
  check.expect("PPS has the lowest variance (pool absorbs luck)",
               stddev(pps) <= stddev(prop) && stddev(pps) <= stddev(pplns),
               "pps " + fmt(stddev(pps), 4));
  return {std::move(check)};
}
