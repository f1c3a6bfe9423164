// Recursive Length Prefix (RLP) — Ethereum's canonical serialization.
// Implemented in full: single bytes, strings, nested lists, canonical-form
// enforcement on decode (minimal length encodings, no leading zeros when
// decoding scalars).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "support/bytes.hpp"
#include "support/u256.hpp"

namespace forksim::rlp {

/// Decoded RLP item: either a byte string or a list of items.
class Item {
 public:
  Item() : value_(Bytes{}) {}
  explicit Item(Bytes b) : value_(std::move(b)) {}
  explicit Item(std::vector<Item> list) : value_(std::move(list)) {}

  static Item str(BytesView b) { return Item(Bytes(b.begin(), b.end())); }
  static Item str(std::string_view s) {
    return Item(Bytes(s.begin(), s.end()));
  }
  static Item u64(std::uint64_t v) { return Item(be_trimmed(v)); }
  static Item u256(const U256& v) { return Item(v.to_be_trimmed()); }
  static Item list(std::vector<Item> items) { return Item(std::move(items)); }

  bool is_bytes() const noexcept {
    return std::holds_alternative<Bytes>(value_);
  }
  bool is_list() const noexcept { return !is_bytes(); }

  const Bytes& bytes() const { return std::get<Bytes>(value_); }
  const std::vector<Item>& items() const {
    return std::get<std::vector<Item>>(value_);
  }

  /// Scalar view of a byte string; nullopt if this is a list, has leading
  /// zeros (non-canonical), or exceeds 8 bytes.
  std::optional<std::uint64_t> as_u64() const;

  /// Scalar as U256; nullopt if list/leading zeros/longer than 32 bytes.
  std::optional<U256> as_u256() const;

  friend bool operator==(const Item& a, const Item& b) = default;

 private:
  std::variant<Bytes, std::vector<Item>> value_;
};

/// Encode an item tree to RLP bytes.
Bytes encode(const Item& item);

/// Encode a raw byte string directly (no Item allocation).
Bytes encode_bytes(BytesView payload);

enum class DecodeError {
  kTruncated,        // input shorter than the declared length
  kTrailingBytes,    // extra bytes after the top-level item
  kNonCanonical,     // length encoded non-minimally or single byte < 0x80
                     // wrapped in a string header
  kLengthOverflow,   // declared length exceeds practical limits
  kTooDeep,          // list nesting beyond kMaxDepth (hostile payloads
                     // could otherwise overflow the decoder's stack)
};

/// Maximum list nesting depth accepted by decode(). Honest payloads (blocks,
/// transactions, wire messages) nest fewer than 8 levels; anything deeper is
/// a crafted input trying to exhaust the recursive decoder's stack.
inline constexpr std::size_t kMaxDepth = 64;

struct DecodeResult {
  std::optional<Item> item;
  std::optional<DecodeError> error;

  bool ok() const noexcept { return item.has_value(); }
};

/// Decode a complete RLP payload. Rejects trailing bytes and non-canonical
/// encodings.
DecodeResult decode(BytesView input);

/// Decode one item from the front of `input`; on success advances `input`
/// past the consumed bytes (used by stream parsers).
DecodeResult decode_prefix(BytesView& input);

}  // namespace forksim::rlp
