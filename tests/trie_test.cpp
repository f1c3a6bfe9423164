// Merkle Patricia Trie tests: known Ethereum root vectors, CRUD semantics,
// deletion collapsing, proofs, and order-independence properties.
#include <gtest/gtest.h>

#include <map>

#include "support/rng.hpp"
#include "trie/trie.hpp"

namespace forksim::trie {
namespace {

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------- hex-prefix

TEST(HexPrefixTest, EvenExtension) {
  // nibbles [1,2,3,4,5] odd extension -> 0x11 0x23 0x45
  EXPECT_EQ(to_hex(hex_prefix({1, 2, 3, 4, 5}, false)), "112345");
  // even extension [0,1,2,3,4,5] -> 0x00 0x01 0x23 0x45
  EXPECT_EQ(to_hex(hex_prefix({0, 1, 2, 3, 4, 5}, false)), "00012345");
}

TEST(HexPrefixTest, LeafFlags) {
  // odd leaf [f,1,c,b,8] -> 0x3f 0x1c 0xb8
  EXPECT_EQ(to_hex(hex_prefix({0xf, 1, 0xc, 0xb, 8}, true)), "3f1cb8");
  // even leaf [0,f,1,c,b,8] -> 0x20 0x0f 0x1c 0xb8
  EXPECT_EQ(to_hex(hex_prefix({0, 0xf, 1, 0xc, 0xb, 8}, true)), "200f1cb8");
}

TEST(HexPrefixTest, RoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> nibbles(rng.uniform(20));
    for (auto& n : nibbles) n = static_cast<std::uint8_t>(rng.uniform(16));
    const bool leaf = rng.chance(0.5);
    auto decoded = decode_hex_prefix(hex_prefix(nibbles, leaf));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first, nibbles);
    EXPECT_EQ(decoded->second, leaf);
  }
}

TEST(HexPrefixTest, DecodeRejectsBadFlags) {
  EXPECT_FALSE(decode_hex_prefix(Bytes{0x40}).has_value());
  EXPECT_FALSE(decode_hex_prefix(Bytes{}).has_value());
  // even form with nonzero low nibble in the first byte
  EXPECT_FALSE(decode_hex_prefix(Bytes{0x01}).has_value());
}

TEST(NibblesTest, Expansion) {
  Bytes key = {0xab, 0x01};
  auto nib = to_nibbles(key);
  ASSERT_EQ(nib.size(), 4u);
  EXPECT_EQ(nib[0], 0xa);
  EXPECT_EQ(nib[1], 0xb);
  EXPECT_EQ(nib[2], 0x0);
  EXPECT_EQ(nib[3], 0x1);
}

// ---------------------------------------------------------- known vectors

TEST(TrieRootTest, EmptyTrieCanonicalRoot) {
  Trie t;
  EXPECT_EQ(t.root_hash().hex(),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
  EXPECT_EQ(empty_trie_root(), t.root_hash());
}

TEST(TrieRootTest, SingleEntryDooDenis) {
  // From the Ethereum trie test suite ("singleItem"):
  // {"A": "aaaa..."} with key "A" and 50 'a's
  Trie t;
  t.put(bytes_of("A"), Bytes(50, 'a'));
  EXPECT_EQ(t.root_hash().hex(),
            "d23786fb4a010da3ce639d66d5e904a11dbc02746d1ce25029e53290cabf28ab");
}

TEST(TrieRootTest, DogePuppyVector) {
  // From the Ethereum "puppy" fixture: inserting these four pairs in any
  // order yields this root.
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"do", "verb"}, {"dog", "puppy"}, {"doge", "coin"}, {"horse", "stallion"}};
  Trie t;
  for (const auto& [k, v] : pairs) t.put(bytes_of(k), bytes_of(v));
  EXPECT_EQ(t.root_hash().hex(),
            "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84");
}

TEST(TrieRootTest, InsertOrderIndependence) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"do", "verb"}, {"dog", "puppy"}, {"doge", "coin"}, {"horse", "stallion"}};
  Trie forward;
  for (const auto& [k, v] : pairs) forward.put(bytes_of(k), bytes_of(v));
  Trie backward;
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
    backward.put(bytes_of(it->first), bytes_of(it->second));
  EXPECT_EQ(forward.root_hash(), backward.root_hash());
}

// --------------------------------------------------------------- semantics

TEST(TrieTest, GetReturnsInserted) {
  Trie t;
  t.put(bytes_of("key"), bytes_of("value"));
  auto v = t.get(bytes_of("key"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, bytes_of("value"));
  EXPECT_FALSE(t.get(bytes_of("other")).has_value());
}

TEST(TrieTest, OverwriteReplacesValue) {
  Trie t;
  t.put(bytes_of("k"), bytes_of("v1"));
  t.put(bytes_of("k"), bytes_of("v2"));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.get(bytes_of("k")), bytes_of("v2"));
}

TEST(TrieTest, PrefixKeysCoexist) {
  Trie t;
  t.put(bytes_of("dog"), bytes_of("puppy"));
  t.put(bytes_of("do"), bytes_of("verb"));
  t.put(bytes_of("doge"), bytes_of("coin"));
  EXPECT_EQ(*t.get(bytes_of("do")), bytes_of("verb"));
  EXPECT_EQ(*t.get(bytes_of("dog")), bytes_of("puppy"));
  EXPECT_EQ(*t.get(bytes_of("doge")), bytes_of("coin"));
}

TEST(TrieTest, EmptyValueDeletes) {
  Trie t;
  t.put(bytes_of("k"), bytes_of("v"));
  t.put(bytes_of("k"), BytesView{});
  EXPECT_FALSE(t.contains(bytes_of("k")));
  EXPECT_EQ(t.root_hash(), empty_trie_root());
}

TEST(TrieTest, EraseRestoresPriorRoot) {
  Trie t;
  t.put(bytes_of("do"), bytes_of("verb"));
  t.put(bytes_of("dog"), bytes_of("puppy"));
  const Hash256 before = t.root_hash();
  t.put(bytes_of("doge"), bytes_of("coin"));
  EXPECT_NE(t.root_hash(), before);
  EXPECT_TRUE(t.erase(bytes_of("doge")));
  EXPECT_EQ(t.root_hash(), before);
  EXPECT_FALSE(t.erase(bytes_of("doge")));
}

TEST(TrieTest, EraseToEmpty) {
  Trie t;
  t.put(bytes_of("a"), bytes_of("1"));
  t.put(bytes_of("b"), bytes_of("2"));
  EXPECT_TRUE(t.erase(bytes_of("a")));
  EXPECT_TRUE(t.erase(bytes_of("b")));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.root_hash(), empty_trie_root());
}

TEST(TrieTest, SizeTracksDistinctKeys) {
  Trie t;
  t.put(bytes_of("a"), bytes_of("1"));
  t.put(bytes_of("b"), bytes_of("2"));
  t.put(bytes_of("a"), bytes_of("3"));
  EXPECT_EQ(t.size(), 2u);
  t.erase(bytes_of("a"));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TrieTest, EntriesSortedAndComplete) {
  Trie t;
  t.put(bytes_of("horse"), bytes_of("stallion"));
  t.put(bytes_of("do"), bytes_of("verb"));
  t.put(bytes_of("dog"), bytes_of("puppy"));
  auto entries = t.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, bytes_of("do"));
  EXPECT_EQ(entries[1].first, bytes_of("dog"));
  EXPECT_EQ(entries[2].first, bytes_of("horse"));
}

TEST(TrieTest, BinaryKeysWithZeroBytes) {
  Trie t;
  Bytes k1 = {0x00, 0x00};
  Bytes k2 = {0x00};
  t.put(k1, bytes_of("a"));
  t.put(k2, bytes_of("b"));
  EXPECT_EQ(*t.get(k1), bytes_of("a"));
  EXPECT_EQ(*t.get(k2), bytes_of("b"));
}

TEST(TrieTest, MoveSemantics) {
  Trie t;
  t.put(bytes_of("k"), bytes_of("v"));
  Trie moved = std::move(t);
  EXPECT_EQ(*moved.get(bytes_of("k")), bytes_of("v"));
}

// ------------------------------------------------------ ordered trie root

TEST(OrderedTrieRootTest, EmptyListIsEmptyRoot) {
  EXPECT_EQ(ordered_trie_root({}), empty_trie_root());
}

TEST(OrderedTrieRootTest, OrderMatters) {
  std::vector<Bytes> a = {bytes_of("tx1"), bytes_of("tx2")};
  std::vector<Bytes> b = {bytes_of("tx2"), bytes_of("tx1")};
  EXPECT_NE(ordered_trie_root(a), ordered_trie_root(b));
}

// ---------------------------------------------------- property-based sweep

class TriePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriePropertyTest, MatchesReferenceMap) {
  Rng rng(GetParam());
  Trie t;
  std::map<Bytes, Bytes> reference;

  for (int op = 0; op < 400; ++op) {
    Bytes key(1 + rng.uniform(6), 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform(8));
    if (rng.chance(0.7)) {
      Bytes value(1 + rng.uniform(40), 0);
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.uniform(256));
      t.put(key, value);
      reference[key] = value;
    } else {
      const bool erased = t.erase(key);
      EXPECT_EQ(erased, reference.erase(key) > 0);
    }
  }

  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [k, v] : reference) {
    auto got = t.get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }

  // entries() agrees with the reference map
  auto entries = t.entries();
  ASSERT_EQ(entries.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [k, v] : entries) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST_P(TriePropertyTest, RootIsInsertOrderInvariant) {
  Rng rng(GetParam() ^ 0xabcdefull);
  std::map<Bytes, Bytes> reference;
  for (int i = 0; i < 60; ++i) {
    Bytes key(1 + rng.uniform(5), 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform(256));
    Bytes value(1 + rng.uniform(50), 0);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.uniform(256));
    reference[key] = value;
  }

  Trie forward;
  for (const auto& [k, v] : reference) forward.put(k, v);
  Trie backward;
  for (auto it = reference.rbegin(); it != reference.rend(); ++it)
    backward.put(it->first, it->second);
  EXPECT_EQ(forward.root_hash(), backward.root_hash());
}

TEST_P(TriePropertyTest, InsertEraseIsIdentityOnRoot) {
  Rng rng(GetParam() + 1000);
  Trie t;
  for (int i = 0; i < 30; ++i) {
    Bytes key(1 + rng.uniform(4), 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform(256));
    t.put(key, Bytes{static_cast<std::uint8_t>(i + 1)});
  }
  const Hash256 before = t.root_hash();
  const std::size_t size_before = t.size();

  Bytes probe = {0xfe, 0xed, 0xfa, 0xce, 0x99};
  if (!t.contains(probe)) {
    t.put(probe, bytes_of("temp"));
    EXPECT_NE(t.root_hash(), before);
    EXPECT_TRUE(t.erase(probe));
    EXPECT_EQ(t.root_hash(), before);
    EXPECT_EQ(t.size(), size_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace forksim::trie
