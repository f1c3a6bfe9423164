// Gossip relay policy (geth's block propagation strategy): push the full
// block to a sqrt(n)-sized random subset of peers, announce the hash to the
// rest; peers that are missing the body request it. Transactions are pushed
// to every active peer that hasn't seen them.
#pragma once

#include <cmath>
#include <vector>

#include "p2p/simnet.hpp"

namespace forksim::p2p {

struct GossipPolicy {
  /// Fraction exponent: push to ceil(n^exponent) peers (0.5 = sqrt — the
  /// geth default; 1.0 = flood; the ablation bench sweeps this).
  double push_exponent = 0.5;
};

/// Always push to at least this many peers.
inline constexpr std::size_t kMinPush = 1;

/// Split `peers` into (push, announce) per the policy, shuffling with `rng`
/// so the push subset varies per block.
inline std::pair<std::vector<NodeId>, std::vector<NodeId>> split_for_gossip(
    std::vector<NodeId> peers, const GossipPolicy& policy, Rng& rng) {
  // Fisher-Yates
  for (std::size_t i = peers.size(); i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    std::swap(peers[i - 1], peers[j]);
  }
  std::size_t push_count =
      peers.empty()
          ? 0
          : static_cast<std::size_t>(std::ceil(
                std::pow(static_cast<double>(peers.size()),
                         policy.push_exponent)));
  push_count = std::max(push_count, std::min(kMinPush, peers.size()));
  push_count = std::min(push_count, peers.size());
  std::vector<NodeId> push(peers.begin(),
                           peers.begin() + static_cast<std::ptrdiff_t>(push_count));
  std::vector<NodeId> announce(
      peers.begin() + static_cast<std::ptrdiff_t>(push_count), peers.end());
  return {std::move(push), std::move(announce)};
}

}  // namespace forksim::p2p
