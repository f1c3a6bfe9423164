// Keccak-256 as used by Ethereum (original Keccak padding 0x01, rate 1088
// bits) — implemented from scratch; this is the hash behind block hashes,
// transaction ids, addresses, and trie node references.
#pragma once

#include "support/bytes.hpp"

namespace forksim {

/// One-shot Keccak-256.
Hash256 keccak256(BytesView data);

/// Convenience overload for string payloads.
Hash256 keccak256(std::string_view data);

/// Keccak-f[1600] permutations run on the calling thread so far: one per
/// absorbed 136-byte block, so a digest of n bytes costs n / 136 + 1.
/// Always on, like trie::counters(): a plain increment, no Rng draws. It is
/// bound into no obs::Registry, so run fingerprints never see it; measure
/// work as the difference of two reads.
std::uint64_t keccak_permutations() noexcept;

/// Incremental hasher for streaming input.
class Keccak256 {
 public:
  Keccak256() noexcept;

  void update(BytesView data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalize and return the digest. The hasher must not be reused after
  /// calling digest() without reset().
  Hash256 digest() noexcept;

  void reset() noexcept;

 private:
  /// XORs one rate-sized block into the state and permutes.
  void absorb_block(const std::uint8_t* block) noexcept;

  std::uint64_t state_[25];
  std::uint8_t buffer_[136];
  std::size_t buffered_;
  bool finalized_;
};

}  // namespace forksim
