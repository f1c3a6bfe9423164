// Byte-buffer primitives shared by every module: dynamic byte strings,
// fixed-width byte arrays (hashes, addresses, node ids), and hex codecs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace forksim {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Encode a byte span as lowercase hex without a "0x" prefix.
std::string to_hex(BytesView data);

/// Encode with a "0x" prefix (Ethereum JSON convention).
std::string to_hex_prefixed(BytesView data);

/// Decode a hex string (with or without "0x" prefix, case-insensitive).
/// Returns std::nullopt on odd length or non-hex characters.
std::optional<Bytes> from_hex(std::string_view hex);

/// Append `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Concatenate any number of byte spans.
Bytes concat(std::initializer_list<BytesView> parts);

/// Fixed-width byte array with value semantics and ordering; the base of
/// Hash256, Address and p2p NodeId.
template <std::size_t N>
class FixedBytes {
 public:
  static constexpr std::size_t kSize = N;

  constexpr FixedBytes() noexcept : data_{} {}

  /// Construct from exactly N bytes; silently zero-pads shorter input on the
  /// left (big-endian convention) and truncates longer input to its last N
  /// bytes. Use `from_bytes` when strictness is required.
  static FixedBytes left_padded(BytesView b) noexcept {
    FixedBytes out;
    if (b.size() >= N) {
      for (std::size_t i = 0; i < N; ++i) out.data_[i] = b[b.size() - N + i];
    } else {
      for (std::size_t i = 0; i < b.size(); ++i)
        out.data_[N - b.size() + i] = b[i];
    }
    return out;
  }

  /// Strict construction: requires exactly N bytes.
  static std::optional<FixedBytes> from_bytes(BytesView b) noexcept {
    if (b.size() != N) return std::nullopt;
    FixedBytes out;
    for (std::size_t i = 0; i < N; ++i) out.data_[i] = b[i];
    return out;
  }

  static std::optional<FixedBytes> from_hex(std::string_view hex) {
    auto b = forksim::from_hex(hex);
    if (!b) return std::nullopt;
    return from_bytes(*b);
  }

  constexpr std::uint8_t* data() noexcept { return data_.data(); }
  constexpr const std::uint8_t* data() const noexcept { return data_.data(); }
  constexpr std::size_t size() const noexcept { return N; }

  constexpr std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
  constexpr std::uint8_t operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  BytesView view() const noexcept { return BytesView(data_.data(), N); }
  Bytes to_bytes() const { return Bytes(data_.begin(), data_.end()); }
  std::string hex() const { return to_hex(view()); }

  bool is_zero() const noexcept {
    for (auto b : data_)
      if (b != 0) return false;
    return true;
  }

  friend bool operator==(const FixedBytes& a, const FixedBytes& b) noexcept {
    return a.data_ == b.data_;
  }
  friend auto operator<=>(const FixedBytes& a, const FixedBytes& b) noexcept {
    return a.data_ <=> b.data_;
  }

  auto begin() const noexcept { return data_.begin(); }
  auto end() const noexcept { return data_.end(); }

 private:
  std::array<std::uint8_t, N> data_;
};

using Hash256 = FixedBytes<32>;
using Address = FixedBytes<20>;

/// FNV-1a over the bytes — for use as std::unordered_map hasher only
/// (cryptographic hashing lives in crypto/).
template <std::size_t N>
struct FixedBytesHasher {
  std::size_t operator()(const FixedBytes<N>& v) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < N; ++i) {
      h ^= v[i];
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

using Hash256Hasher = FixedBytesHasher<32>;
using AddressHasher = FixedBytesHasher<20>;

/// Big-endian encoding of a u64 with leading zeros stripped (RLP scalar
/// convention).
Bytes be_trimmed(std::uint64_t v);

/// Big-endian fixed 8-byte encoding.
std::array<std::uint8_t, 8> be_fixed64(std::uint64_t v);

/// Parse a big-endian scalar (up to 8 bytes, no leading-zero check here).
std::uint64_t be_to_u64(BytesView b);

}  // namespace forksim
