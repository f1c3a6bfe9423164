#include "crypto/keccak.hpp"

#include <algorithm>
#include <cstring>

namespace forksim {

namespace {

constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256

thread_local std::uint64_t t_permutations = 0;

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull};

// The rho+pi step as one cycle through the 24 non-origin lanes: step i
// moves the carried lane into kPiLane[i], rotated left by kRho[i]
// (lanes indexed x + 5y).
constexpr int kPiLane[24] = {10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
                             15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1};
constexpr int kRho[24] = {1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
                          27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44};

// Only called with 0 < s < 64.
constexpr std::uint64_t rotl64(std::uint64_t x, int s) noexcept {
  return (x << s) | (x >> (64 - s));
}

// Little-endian lane load, independent of host byte order; gcc folds it
// into one 64-bit load on little-endian targets.
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t lane = 0;
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j)
    lane |= static_cast<std::uint64_t>(p[j]) << (8 * j);
  return lane;
}

// Every inner loop has a constant trip count and is unrolled explicitly, so
// the permutation is straight-line code at -O2 as well as at -O3.
void keccak_f1600(std::uint64_t a[25]) noexcept {
  ++t_permutations;
  for (int round = 0; round < 24; ++round) {
    // theta
    const std::uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    const std::uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    const std::uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    const std::uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    const std::uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    const std::uint64_t d0 = c4 ^ rotl64(c1, 1);
    const std::uint64_t d1 = c0 ^ rotl64(c2, 1);
    const std::uint64_t d2 = c1 ^ rotl64(c3, 1);
    const std::uint64_t d3 = c2 ^ rotl64(c4, 1);
    const std::uint64_t d4 = c3 ^ rotl64(c0, 1);
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5) {
      a[y] ^= d0;
      a[y + 1] ^= d1;
      a[y + 2] ^= d2;
      a[y + 3] ^= d3;
      a[y + 4] ^= d4;
    }

    // rho + pi, in place with one carried lane
    std::uint64_t carried = a[1];
#pragma GCC unroll 24
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t next = a[kPiLane[i]];
      a[kPiLane[i]] = rotl64(carried, kRho[i]);
      carried = next;
    }

    // chi
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5) {
      const std::uint64_t b0 = a[y], b1 = a[y + 1], b2 = a[y + 2],
                          b3 = a[y + 3], b4 = a[y + 4];
      a[y] = b0 ^ (~b1 & b2);
      a[y + 1] = b1 ^ (~b2 & b3);
      a[y + 2] = b2 ^ (~b3 & b4);
      a[y + 3] = b3 ^ (~b4 & b0);
      a[y + 4] = b4 ^ (~b0 & b1);
    }

    // iota
    a[0] ^= kRoundConstants[round];
  }
}

}  // namespace

Keccak256::Keccak256() noexcept { reset(); }

void Keccak256::reset() noexcept {
  std::memset(state_, 0, sizeof(state_));
  std::memset(buffer_, 0, sizeof(buffer_));
  buffered_ = 0;
  finalized_ = false;
}

void Keccak256::absorb_block(const std::uint8_t* block) noexcept {
#pragma GCC unroll 17
  for (std::size_t i = 0; i < kRate / 8; ++i)
    state_[i] ^= load_le64(block + 8 * i);
  keccak_f1600(state_);
}

void Keccak256::update(BytesView data) noexcept {
  if (data.empty()) return;
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(left, kRate - buffered_);
    std::memcpy(buffer_ + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < kRate) return;
    absorb_block(buffer_);
    buffered_ = 0;
  }
  // Whole blocks are absorbed straight from the input; only the tail is
  // buffered.
  for (; left >= kRate; in += kRate, left -= kRate) absorb_block(in);
  std::memcpy(buffer_, in, left);
  buffered_ = left;
}

void Keccak256::update(std::string_view data) noexcept {
  update(BytesView(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()));
}

Hash256 Keccak256::digest() noexcept {
  if (!finalized_) {
    // original Keccak pad10*1 with domain byte 0x01
    std::memset(buffer_ + buffered_, 0, kRate - buffered_);
    buffer_[buffered_] = 0x01;
    buffer_[kRate - 1] |= 0x80;
    absorb_block(buffer_);
    buffered_ = 0;
    finalized_ = true;
  }
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>((state_[i / 8] >> (8 * (i % 8))) & 0xff);
  return out;
}

std::uint64_t keccak_permutations() noexcept { return t_permutations; }

Hash256 keccak256(BytesView data) {
  Keccak256 h;
  h.update(data);
  return h.digest();
}

Hash256 keccak256(std::string_view data) {
  Keccak256 h;
  h.update(data);
  return h.digest();
}

}  // namespace forksim
