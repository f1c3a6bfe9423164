// Keccak-256 against published test vectors, plus the simulation signature
// scheme's recovery and domain-separation properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "crypto/ecdsa.hpp"
#include "crypto/keccak.hpp"

namespace forksim {
namespace {

// ------------------------------------------------------------------- keccak

TEST(KeccakTest, EmptyInputVector) {
  // The canonical Ethereum Keccak-256 of the empty string.
  EXPECT_EQ(keccak256(BytesView{}).hex(),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(KeccakTest, AbcVector) {
  EXPECT_EQ(keccak256(std::string_view("abc")).hex(),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(KeccakTest, HelloVector) {
  // keccak256("hello") — widely used Solidity example value.
  EXPECT_EQ(keccak256(std::string_view("hello")).hex(),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
}

TEST(KeccakTest, LongInputCrossesRateBoundary) {
  // 200 bytes of 0x61 ('a') spans more than one 136-byte block.
  Bytes input(200, 0x61);
  const Hash256 one_shot = keccak256(input);

  Keccak256 h;
  h.update(BytesView(input.data(), 100));
  h.update(BytesView(input.data() + 100, 100));
  EXPECT_EQ(h.digest(), one_shot);
}

TEST(KeccakTest, ExactRateBlock) {
  Bytes input(136, 0x00);
  // must not crash / must differ from empty hash
  EXPECT_NE(keccak256(input), keccak256(BytesView{}));
}

// Known answers from `openssl dgst -keccak-256`, at and around the one- and
// two-block rate boundaries where padding spills into an extra block.
TEST(KeccakTest, RateBoundaryVectors) {
  const std::pair<std::size_t, const char*> cases[] = {
      {135, "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446"},
      {136, "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e"},
      {137, "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39"},
      {272, "cf7fcd4f705ee749930d19ca84561a9bf62516bd90a471545fa2f49fdc7e63c8"},
      {273, "5a7b8187d2778e614097fac3097573de1fee4d972304d3360796a857029bb176"},
  };
  for (const auto& [len, expected] : cases)
    EXPECT_EQ(keccak256(Bytes(len, 'a')).hex(), expected) << len << " x 'a'";
}

TEST(KeccakTest, MultiBlockPatternVector) {
  Bytes input(1000);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<std::uint8_t>(i * 7 + 3);
  EXPECT_EQ(keccak256(input).hex(),
            "80cdc8dd52cbb3dbaea8f383209893fa2bb52efbd5aedbb4b26dcfe307fcdc9b");
}

TEST(KeccakTest, ChunkedStreamingMatchesOneShot) {
  // Every length through three blocks plus one, fed in chunks that land
  // short of, on, and past the 136-byte rate, so each update() meets a
  // partial head, whole blocks and a buffered tail in every alignment.
  constexpr std::size_t kMaxLen = 3 * 136 + 1;
  Bytes input(kMaxLen);
  for (std::size_t i = 0; i < kMaxLen; ++i)
    input[i] = static_cast<std::uint8_t>(i * 31 + 17);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const Hash256 one_shot = keccak256(BytesView(input.data(), len));
    for (std::size_t chunk : {1, 7, 135, 136, 137}) {
      Keccak256 h;
      for (std::size_t at = 0; at < len; at += chunk)
        h.update(BytesView(input.data() + at, std::min(chunk, len - at)));
      ASSERT_EQ(h.digest(), one_shot) << "len " << len << " chunk " << chunk;
    }
  }
}

TEST(KeccakTest, IncrementalByteAtATimeMatches) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Keccak256 h;
  for (char c : msg)
    h.update(BytesView(reinterpret_cast<const std::uint8_t*>(&c), 1));
  EXPECT_EQ(h.digest().hex(),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(KeccakTest, ResetAllowsReuse) {
  Keccak256 h;
  h.update(std::string_view("abc"));
  const Hash256 first = h.digest();
  h.reset();
  h.update(std::string_view("abc"));
  EXPECT_EQ(h.digest(), first);
}

TEST(KeccakTest, DistinctInputsDistinctDigests) {
  EXPECT_NE(keccak256(std::string_view("a")), keccak256(std::string_view("b")));
}

// -------------------------------------------------------------------- ecdsa

TEST(EcdsaTest, AddressDerivationIsDeterministic) {
  const PrivateKey k = PrivateKey::from_seed(1);
  EXPECT_EQ(derive_address(k), derive_address(k));
  EXPECT_NE(derive_address(k), derive_address(PrivateKey::from_seed(2)));
}

TEST(EcdsaTest, SignRecoverRoundTrip) {
  const PrivateKey k = PrivateKey::from_seed(7);
  const Hash256 digest = keccak256(std::string_view("payload"));
  const Signature sig = sign(k, digest);
  const auto recovered = recover(digest, sig);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, derive_address(k));
  EXPECT_TRUE(verify(digest, sig, derive_address(k)));
}

TEST(EcdsaTest, RecoveryFailsForWrongDigest) {
  const PrivateKey k = PrivateKey::from_seed(7);
  const Hash256 digest = keccak256(std::string_view("payload"));
  const Hash256 other = keccak256(std::string_view("other payload"));
  const Signature sig = sign(k, digest);
  EXPECT_FALSE(recover(other, sig).has_value());
}

TEST(EcdsaTest, DomainSeparation) {
  // The property EIP-155 relies on: signatures over different signing
  // hashes (e.g. different chain ids) are not interchangeable.
  const PrivateKey k = PrivateKey::from_seed(9);
  const Hash256 chain1 = keccak256(std::string_view("tx||chainid=1"));
  const Hash256 chain61 = keccak256(std::string_view("tx||chainid=61"));
  const Signature sig1 = sign(k, chain1);
  EXPECT_TRUE(recover(chain1, sig1).has_value());
  EXPECT_FALSE(recover(chain61, sig1).has_value());
}

TEST(EcdsaTest, VerifyRejectsWrongSigner) {
  const PrivateKey k1 = PrivateKey::from_seed(1);
  const PrivateKey k2 = PrivateKey::from_seed(2);
  const Hash256 digest = keccak256(std::string_view("m"));
  EXPECT_FALSE(verify(digest, sign(k1, digest), derive_address(k2)));
}

TEST(EcdsaTest, SignatureEncodingRoundTrip) {
  const PrivateKey k = PrivateKey::from_seed(3);
  const Signature sig = sign(k, keccak256(std::string_view("x")));
  const Bytes wire = sig.encode();
  EXPECT_EQ(wire.size(), 64u);
  const auto decoded = Signature::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
}

TEST(EcdsaTest, SignatureDecodeRejectsBadLength) {
  EXPECT_FALSE(Signature::decode(Bytes(63, 0)).has_value());
  EXPECT_FALSE(Signature::decode(Bytes(65, 0)).has_value());
}

TEST(EcdsaTest, TamperedSignatureFailsRecovery) {
  const PrivateKey k = PrivateKey::from_seed(4);
  const Hash256 digest = keccak256(std::string_view("m"));
  Signature sig = sign(k, digest);
  sig.tag[0] ^= 0x01;
  EXPECT_FALSE(recover(digest, sig).has_value());
}

}  // namespace
}  // namespace forksim
