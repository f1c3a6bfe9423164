// Merkle Patricia Trie — Ethereum's authenticated key/value structure, used
// for the state root, transaction root, and receipt root in block headers.
//
// Implements the full node model (leaf / extension / branch), hex-prefix
// path encoding, spec-compliant structural hashing (nodes whose RLP encoding
// is shorter than 32 bytes are embedded in their parent rather than hashed),
// insertion, lookup, and deletion with path collapsing.
//
// Every node memoizes its RLP encoding and keccak reference; mutations
// invalidate the caches only along the root-to-leaf path they touch, so a
// root_hash() after k updates re-hashes O(k · depth) nodes instead of the
// whole trie. This is what makes the incremental state-root commit in
// core::State cheap: patch the dirty account leaves, re-hash the spine.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "support/bytes.hpp"

namespace forksim::obs {
class Registry;
}

namespace forksim::trie {

/// Process-wide trie work tallies (the simulator is single-threaded).
/// Always on: plain unconditional increments, no branches, no Rng draws —
/// cheap enough to leave enabled and exact enough to fingerprint.
struct TrieCounters {
  std::uint64_t reads = 0;   // get() calls
  std::uint64_t writes = 0;  // put() / erase() calls
  std::uint64_t node_visits = 0;  // nodes walked during lookups
  std::uint64_t hash_recomputations = 0;  // keccak over node encodings
};

const TrieCounters& counters() noexcept;

/// Register a snapshot-time collector on `reg` that mirrors counters()
/// into trie.* counters.
void attach_telemetry(obs::Registry& reg);

/// Nibble (4-bit) expansion of a key, most-significant nibble first.
std::vector<std::uint8_t> to_nibbles(BytesView key);

/// Hex-prefix encoding of a nibble path (Yellow Paper appendix C).
Bytes hex_prefix(const std::vector<std::uint8_t>& nibbles, bool is_leaf);

/// Inverse of hex_prefix; returns nibbles and leaf flag.
std::optional<std::pair<std::vector<std::uint8_t>, bool>> decode_hex_prefix(
    BytesView encoded);

class Trie {
 public:
  Trie();
  ~Trie();
  Trie(Trie&&) noexcept;
  Trie& operator=(Trie&&) noexcept;
  Trie(const Trie&) = delete;
  Trie& operator=(const Trie&) = delete;

  /// Insert or overwrite. Empty values are treated as deletion (Ethereum
  /// convention: a zero-length value cannot be stored).
  void put(BytesView key, BytesView value);

  std::optional<Bytes> get(BytesView key) const;

  /// Remove a key; returns true if it was present.
  bool erase(BytesView key);

  bool contains(BytesView key) const { return get(key).has_value(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Keccak-256 commitment to the whole trie. The empty trie hashes to
  /// keccak256(rlp("")) = 0x56e8...421 (the well-known empty root).
  /// Memoized: a second call with no intervening mutation re-hashes
  /// nothing, and after k mutations only the touched paths are re-encoded.
  Hash256 root_hash() const;

  /// All key/value pairs in lexicographic key order (test/debug helper).
  std::vector<std::pair<Bytes, Bytes>> entries() const;

  struct Node;  // exposed for the implementation's free helpers only

 private:
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

/// Root hash of a list trie: keys are RLP(index), values as given — the
/// construction of Ethereum's transactionsRoot.
Hash256 ordered_trie_root(const std::vector<Bytes>& values);

/// The canonical empty-trie root constant.
Hash256 empty_trie_root();

}  // namespace forksim::trie
