// 256-bit unsigned integer with wrap-around (mod 2^256) arithmetic.
// Used for EVM words, difficulty values, balances, and total difficulty.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/bytes.hpp"

namespace forksim {

/// Fixed-width 256-bit unsigned integer. Arithmetic wraps modulo 2^256,
/// matching EVM semantics. Stored as four little-endian 64-bit limbs.
class U256 {
 public:
  constexpr U256() noexcept : limbs_{0, 0, 0, 0} {}
  constexpr U256(std::uint64_t v) noexcept : limbs_{v, 0, 0, 0} {}  // NOLINT
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                 std::uint64_t l3) noexcept
      : limbs_{l0, l1, l2, l3} {}

  static constexpr U256 max() noexcept {
    return U256(~0ull, ~0ull, ~0ull, ~0ull);
  }

  /// Parse a decimal string. Returns nullopt on empty/invalid input or
  /// overflow past 2^256-1.
  static std::optional<U256> from_dec(std::string_view s);

  /// Parse a hex string with optional 0x prefix (any length up to 64 digits).
  static std::optional<U256> from_hex(std::string_view s);

  /// Interpret up to 32 big-endian bytes as an integer.
  static U256 from_be(BytesView b) noexcept;

  /// 32-byte big-endian encoding.
  std::array<std::uint8_t, 32> to_be() const noexcept;

  /// Big-endian encoding with leading zero bytes stripped (RLP scalar form);
  /// zero encodes as the empty string.
  Bytes to_be_trimmed() const;

  std::string to_dec() const;
  std::string to_hex() const;  // minimal-length, no 0x prefix

  constexpr std::uint64_t limb(std::size_t i) const noexcept {
    return limbs_[i];
  }

  constexpr bool is_zero() const noexcept {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }

  /// True if the value fits in 64 bits.
  constexpr bool fits_u64() const noexcept {
    return (limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  constexpr std::uint64_t as_u64() const noexcept { return limbs_[0]; }

  /// Lossy conversion to double (for analysis/plotting only).
  double to_double() const noexcept;

  /// Number of significant bits; 0 for the value 0.
  int bit_length() const noexcept;

  bool bit(std::size_t i) const noexcept {
    return i < 256 && ((limbs_[i / 64] >> (i % 64)) & 1u);
  }

  /// Byte i counting from the most-significant end (EVM BYTE opcode).
  std::uint8_t byte_be(std::size_t i) const noexcept;

  // -- arithmetic (mod 2^256) -------------------------------------------
  friend U256 operator+(const U256& a, const U256& b) noexcept;
  friend U256 operator-(const U256& a, const U256& b) noexcept;
  friend U256 operator*(const U256& a, const U256& b) noexcept;
  /// Division and modulo; division by zero yields zero (EVM convention).
  friend U256 operator/(const U256& a, const U256& b) noexcept;
  friend U256 operator%(const U256& a, const U256& b) noexcept;

  /// Quotient and remainder in one pass.
  static std::pair<U256, U256> divmod(const U256& a, const U256& b) noexcept;

  /// a+b with overflow flag (no wrap indication lost).
  static std::pair<U256, bool> add_overflow(const U256& a,
                                            const U256& b) noexcept;

  /// Exponentiation mod 2^256 (EVM EXP).
  static U256 exp(U256 base, U256 exponent) noexcept;

  // -- bitwise -----------------------------------------------------------
  friend U256 operator&(const U256& a, const U256& b) noexcept;
  friend U256 operator|(const U256& a, const U256& b) noexcept;
  friend U256 operator^(const U256& a, const U256& b) noexcept;
  U256 operator~() const noexcept;
  friend U256 operator<<(const U256& a, unsigned shift) noexcept;
  friend U256 operator>>(const U256& a, unsigned shift) noexcept;

  U256& operator+=(const U256& b) noexcept { return *this = *this + b; }
  U256& operator-=(const U256& b) noexcept { return *this = *this - b; }
  U256& operator*=(const U256& b) noexcept { return *this = *this * b; }

  // -- comparison ---------------------------------------------------------
  friend constexpr bool operator==(const U256& a, const U256& b) noexcept {
    return a.limbs_ == b.limbs_;
  }
  friend constexpr auto operator<=>(const U256& a, const U256& b) noexcept {
    for (int i = 3; i >= 0; --i)
      if (a.limbs_[static_cast<std::size_t>(i)] !=
          b.limbs_[static_cast<std::size_t>(i)])
        return a.limbs_[static_cast<std::size_t>(i)] <=>
               b.limbs_[static_cast<std::size_t>(i)];
    return std::strong_ordering::equal;
  }

  // -- two's-complement signed helpers (EVM SDIV/SMOD/SLT/SAR) ------------
  bool sign_bit() const noexcept { return (limbs_[3] >> 63) != 0; }
  U256 negate() const noexcept { return (~*this) + U256(1); }
  static U256 sdiv(const U256& a, const U256& b) noexcept;
  static U256 smod(const U256& a, const U256& b) noexcept;
  static bool slt(const U256& a, const U256& b) noexcept;
  static U256 sar(const U256& a, unsigned shift) noexcept;
  /// EVM SIGNEXTEND: extend the sign of byte index `k` (from LSB).
  static U256 signextend(const U256& k, const U256& x) noexcept;

 private:
  std::array<std::uint64_t, 4> limbs_;  // little-endian limbs
};

struct U256Hasher {
  std::size_t operator()(const U256& v) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < 4; ++i) {
      h ^= v.limb(i);
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace forksim
