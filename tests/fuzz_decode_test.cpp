// Decode-path robustness: random and mutated inputs must never crash any
// wire decoder (transactions, headers, blocks, p2p messages), and every
// valid encoding must survive mutation detection or round-trip cleanly.
#include <gtest/gtest.h>

#include "core/block.hpp"
#include "crypto/keccak.hpp"
#include "db/blockstore.hpp"
#include "p2p/messages.hpp"
#include "rlp/rlp.hpp"
#include "support/rng.hpp"
#include "trie/trie.hpp"

namespace forksim {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.uniform(max_len), 0);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

core::Transaction sample_tx(std::uint64_t seed) {
  return core::make_transaction(
      PrivateKey::from_seed(seed), seed,
      derive_address(PrivateKey::from_seed(seed + 1)), core::ether(seed + 1),
      seed % 2 == 0 ? std::optional<std::uint64_t>{61} : std::nullopt,
      core::gwei(20), 90'000, Bytes(seed % 40, 0x61));
}

core::Block sample_block(std::uint64_t seed) {
  core::Block b;
  b.header.number = seed;
  b.header.difficulty = U256(1'000'000 + seed);
  b.header.timestamp = 1000 + seed;
  b.header.extra_data = Bytes(seed % 12, 0x7a);
  for (std::uint64_t i = 0; i < seed % 5; ++i)
    b.transactions.push_back(sample_tx(seed * 10 + i));
  if (seed % 3 == 0) {
    core::BlockHeader ommer;
    ommer.number = seed > 0 ? seed - 1 : 0;
    b.ommers.push_back(ommer);
  }
  b.header.transactions_root = b.compute_transactions_root();
  b.header.ommers_hash = b.compute_ommers_hash();
  return b;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const Bytes junk = random_bytes(rng, 256);
    (void)core::Transaction::decode(junk);
    (void)core::BlockHeader::decode(junk);
    (void)core::Block::decode(junk);
    (void)p2p::decode_message(junk);
  }
  SUCCEED();
}

TEST_P(FuzzSeedTest, BitFlippedTransactionsNeverCrashAndNeverForge) {
  Rng rng(GetParam() ^ 0xbeefull);
  for (int i = 0; i < 100; ++i) {
    const core::Transaction tx = sample_tx(rng.uniform(50));
    Bytes wire = tx.encode();
    // flip a random bit
    const std::size_t pos = rng.uniform(wire.size());
    wire[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));

    const auto decoded = core::Transaction::decode(wire);
    if (!decoded) continue;  // rejected outright: fine
    if (decoded->encode() == tx.encode()) continue;  // flip in ignored bits?
    // a *different* transaction must not recover the original sender with
    // the original signature intact... unless the flipped bit was inside
    // the signature-irrelevant id field (there is none in our format) —
    // so: either the signature is now invalid, or the payload is unchanged
    if (decoded->sender().has_value()) {
      EXPECT_EQ(decoded->signing_hash(), tx.signing_hash())
          << "bit flip forged a differently-signed transaction";
    }
  }
}

TEST_P(FuzzSeedTest, TruncatedBlocksRejected) {
  Rng rng(GetParam() + 17);
  const core::Block block = sample_block(4 + rng.uniform(10));
  const Bytes wire = block.encode();
  for (std::size_t cut = 1; cut < wire.size(); cut += 1 + rng.uniform(7)) {
    const Bytes truncated(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(core::Block::decode(truncated).has_value()) << cut;
  }
}

TEST_P(FuzzSeedTest, BlockRoundTripsExactly) {
  const core::Block block = sample_block(GetParam());
  const auto decoded = core::Block::decode(block.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
  EXPECT_EQ(decoded->hash(), block.hash());
  EXPECT_TRUE(decoded->transactions_root_matches());
  EXPECT_TRUE(decoded->ommers_hash_matches());
}

TEST_P(FuzzSeedTest, MessageRoundTripsThroughWire) {
  Rng rng(GetParam() * 31);
  p2p::NewBlock nb{sample_block(rng.uniform(8)), U256(rng.next())};
  auto decoded = p2p::decode_message(p2p::encode_message(p2p::Message{nb}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<p2p::NewBlock>(*decoded).block, nb.block);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------- hostile message envelopes
// A Byzantine peer controls every byte it sends. The decoder must bound
// what a single frame can make us allocate or traverse: oversized frames,
// oversized element counts, absurd request widths, and deeply nested RLP
// are all rejected before any per-element work happens.

TEST(HostileEnvelopeTest, OversizedWireFrameRejectedBeforeParsing) {
  // 1 byte past the frame cap: refused no matter what the bytes contain
  const Bytes huge(p2p::kMaxMessageBytes + 1, 0x00);
  EXPECT_FALSE(p2p::decode_message(huge).has_value());
}

TEST(HostileEnvelopeTest, HashFloodAnnouncementRejected) {
  p2p::NewBlockHashes ann;
  for (std::size_t i = 0; i <= p2p::kMaxHashesPerMessage; ++i) {
    Hash256 h;
    h[0] = static_cast<std::uint8_t>(i);
    ann.hashes.push_back(h);
  }
  EXPECT_FALSE(
      p2p::decode_message(p2p::encode_message(p2p::Message{ann})).has_value());
  // exactly at the cap still decodes
  ann.hashes.pop_back();
  EXPECT_TRUE(
      p2p::decode_message(p2p::encode_message(p2p::Message{ann})).has_value());
}

TEST(HostileEnvelopeTest, TransactionFloodRejected) {
  const core::Transaction tx = sample_tx(3);
  p2p::Transactions batch;
  batch.transactions.assign(p2p::kMaxTxsPerMessage + 1, tx);
  EXPECT_FALSE(p2p::decode_message(p2p::encode_message(p2p::Message{batch}))
                   .has_value());
}

TEST(HostileEnvelopeTest, BlockFloodRejected) {
  p2p::Blocks batch;
  batch.blocks.assign(p2p::kMaxBlocksPerMessage + 1, sample_block(1));
  EXPECT_FALSE(p2p::decode_message(p2p::encode_message(p2p::Message{batch}))
                   .has_value());
}

TEST(HostileEnvelopeTest, NeighborFloodRejected) {
  p2p::Neighbors n;
  n.nodes.assign(p2p::kMaxNeighborsPerMessage + 1, p2p::NodeId{});
  EXPECT_FALSE(
      p2p::decode_message(p2p::encode_message(p2p::Message{n})).has_value());
}

TEST(HostileEnvelopeTest, AbsurdGetBlocksWidthRejected) {
  p2p::GetBlocks req;
  req.head = keccak256(Bytes{0x01});
  req.max_blocks = 1u << 20;  // "send me a million blocks"
  EXPECT_FALSE(
      p2p::decode_message(p2p::encode_message(p2p::Message{req})).has_value());
  req.max_blocks = static_cast<std::uint32_t>(p2p::kMaxGetBlocksRequest);
  EXPECT_TRUE(
      p2p::decode_message(p2p::encode_message(p2p::Message{req})).has_value());
}

/// Length-correct single-element list wrapper (the RLP a hostile encoder
/// would actually produce for a nesting bomb).
Bytes wrap_in_list(Bytes payload) {
  Bytes out;
  const std::size_t len = payload.size();
  if (len <= 55) {
    out.push_back(static_cast<std::uint8_t>(0xc0 + len));
  } else {
    Bytes be;
    for (std::size_t v = len; v > 0; v >>= 8)
      be.insert(be.begin(), static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>(0xf7 + be.size()));
    out.insert(out.end(), be.begin(), be.end());
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(HostileEnvelopeTest, DeeplyNestedRlpRejectedNotRecursedInto) {
  // n nested single-element lists — a stack bomb for an unbounded recursive
  // decoder. With the innermost string at depth n, exactly kMaxDepth is the
  // last accepted nesting.
  for (const std::size_t depth :
       {rlp::kMaxDepth, rlp::kMaxDepth + 1, std::size_t{4000}}) {
    Bytes bomb{0x80};
    for (std::size_t i = 0; i < depth; ++i) bomb = wrap_in_list(bomb);
    const rlp::DecodeResult r = rlp::decode(bomb);
    if (depth > rlp::kMaxDepth) {
      ASSERT_TRUE(r.error.has_value()) << depth;
      EXPECT_EQ(*r.error, rlp::DecodeError::kTooDeep);
    } else {
      EXPECT_FALSE(r.error.has_value()) << depth;
    }
    // and the message layer shrugs it off too
    (void)p2p::decode_message(bomb);
  }
}

TEST(HostileEnvelopeTest, MutatedEnvelopesOfEveryVariantNeverCrash) {
  // one valid encoding of every message variant...
  std::vector<Bytes> wires;
  wires.push_back(p2p::encode_message(p2p::Message{p2p::Ping{}}));
  wires.push_back(p2p::encode_message(p2p::Message{p2p::Pong{}}));
  wires.push_back(
      p2p::encode_message(p2p::Message{p2p::FindNode{keccak256(Bytes{1})}}));
  wires.push_back(p2p::encode_message(
      p2p::Message{p2p::Neighbors{{keccak256(Bytes{2}), keccak256(Bytes{3})}}}));
  wires.push_back(p2p::encode_message(p2p::Message{p2p::Status{}}));
  wires.push_back(p2p::encode_message(
      p2p::Message{p2p::NewBlockHashes{{keccak256(Bytes{4})}}}));
  wires.push_back(p2p::encode_message(
      p2p::Message{p2p::Transactions{{sample_tx(1), sample_tx(2)}}}));
  wires.push_back(p2p::encode_message(
      p2p::Message{p2p::GetBlocks{keccak256(Bytes{5}), 32}}));
  wires.push_back(
      p2p::encode_message(p2p::Message{p2p::Blocks{{sample_block(2)}}}));
  wires.push_back(p2p::encode_message(
      p2p::Message{p2p::NewBlock{sample_block(3), U256(99)}}));
  wires.push_back(p2p::encode_message(p2p::Message{p2p::GetDaoHeader{}}));
  wires.push_back(p2p::encode_message(
      p2p::Message{p2p::DaoHeader{sample_block(6).header}}));
  wires.push_back(p2p::encode_message(p2p::Message{p2p::Disconnect{}}));

  // ...then bit-flip, truncate, and extend each at random: decode either
  // rejects or yields some message, but never crashes or throws
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes wire = wires[rng.uniform(wires.size())];
    switch (rng.uniform(3)) {
      case 0:
        wire[rng.uniform(wire.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(8));
        break;
      case 1:
        wire.resize(rng.uniform(wire.size() + 1));
        break;
      default:
        for (std::size_t i = rng.uniform(16) + 1; i > 0; --i)
          wire.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
        break;
    }
    (void)p2p::decode_message(wire);
  }
  SUCCEED();
}

// ------------------------------------------- block-store record decoding
// A crashed disk controls every byte of the log image the recovery scanner
// reads. Whatever the mutation — truncated length prefixes, corrupted
// checksums, mid-record tears, random tail garbage — the scanner must never
// crash and must never accept a record that isn't byte-identical to one the
// store actually appended (at the same position).

struct StoreImage {
  Bytes image;
  std::vector<core::Block> blocks;
};

StoreImage sample_store_image(std::uint64_t seed) {
  db::SimDisk disk{Rng(seed)};
  db::BlockStore store(disk, "fuzz");
  StoreImage out;
  for (std::uint64_t i = 0; i < 8 + seed % 5; ++i) {
    out.blocks.push_back(sample_block(seed * 7 + i + 1));
    store.append(out.blocks.back());
  }
  out.image = disk.read(store.log_file());
  return out;
}

/// Scan `image` and assert the invariant: never crash, and everything
/// recovered is a byte-identical positional prefix of `originals`.
void expect_only_valid_prefix(const Bytes& image,
                              const std::vector<core::Block>& originals) {
  std::vector<core::Block> recovered;
  db::RecoveryStats stats;
  const std::size_t valid_end = db::BlockStore::scan_image(
      BytesView(image.data(), image.size()), recovered, stats);
  ASSERT_LE(valid_end, image.size());
  ASSERT_LE(recovered.size(), originals.size());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i].hash(), originals[i].hash()) << i;
    ASSERT_EQ(recovered[i].encode(), originals[i].encode()) << i;
  }
  EXPECT_EQ(stats.blocks_recovered, recovered.size());
  EXPECT_GE(stats.records_scanned, recovered.size());
}

class StoreFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreFuzzTest, TruncatedLengthPrefixesNeverCrashOrForge) {
  Rng rng(GetParam() * 211);
  const StoreImage sample = sample_store_image(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    // cut anywhere — mid-length-prefix, mid-checksum, mid-payload
    Bytes image(sample.image.begin(),
                sample.image.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform(sample.image.size())));
    expect_only_valid_prefix(image, sample.blocks);
  }
}

TEST_P(StoreFuzzTest, CorruptedChecksumsAndPayloadsNeverCrashOrForge) {
  Rng rng(GetParam() * 223);
  const StoreImage sample = sample_store_image(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes image = sample.image;
    // 1..4 random bit flips anywhere: length fields, checksums, payloads
    for (std::size_t f = rng.uniform(4) + 1; f > 0; --f)
      image[rng.uniform(image.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    expect_only_valid_prefix(image, sample.blocks);
  }
}

TEST_P(StoreFuzzTest, MidRecordTornWritesNeverCrashOrForge) {
  Rng rng(GetParam() * 227);
  const StoreImage sample = sample_store_image(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    // a torn write: the tail reverts to stale bytes (or vanishes)
    Bytes image(sample.image.begin(),
                sample.image.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform(sample.image.size())));
    for (std::size_t i = rng.uniform(64); i > 0; --i)
      image.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    expect_only_valid_prefix(image, sample.blocks);
  }
}

TEST_P(StoreFuzzTest, RandomTailGarbageIsDetectedNotImported) {
  Rng rng(GetParam() * 229);
  const StoreImage sample = sample_store_image(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes image = sample.image;
    for (std::size_t i = rng.uniform(64) + 1; i > 0; --i)
      image.push_back(static_cast<std::uint8_t>(rng.uniform(256)));

    std::vector<core::Block> recovered;
    db::RecoveryStats stats;
    db::BlockStore::scan_image(BytesView(image.data(), image.size()),
                               recovered, stats);
    // every intact record still recovers; the garbage after them is
    // flagged corrupt, never decoded into a block
    ASSERT_EQ(recovered.size(), sample.blocks.size());
    for (std::size_t i = 0; i < recovered.size(); ++i)
      ASSERT_EQ(recovered[i].hash(), sample.blocks[i].hash());
    EXPECT_EQ(stats.corrupt_records, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzzTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------- keccak property

TEST(KeccakPropertyTest, IncrementalSplitInvariance) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes data = random_bytes(rng, 1000);
    const Hash256 reference = keccak256(data);

    Keccak256 h;
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.uniform(200), data.size() - offset);
      h.update(BytesView(data.data() + offset, chunk));
      offset += chunk;
    }
    EXPECT_EQ(h.digest(), reference);
  }
}

TEST(KeccakPropertyTest, AvalancheOnSingleBitFlip) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes data = random_bytes(rng, 100);
    if (data.empty()) data.push_back(0);
    const Hash256 before = keccak256(data);
    data[rng.uniform(data.size())] ^= 1;
    const Hash256 after = keccak256(data);
    // count differing bits: should be near 128 of 256
    int diff = 0;
    for (std::size_t i = 0; i < 32; ++i)
      diff += std::popcount(static_cast<unsigned>(before[i] ^ after[i]));
    EXPECT_GT(diff, 64);
    EXPECT_LT(diff, 192);
  }
}

// -------------------------------------------- trie node encoding round-trip

using NibbleEntries = std::vector<std::pair<std::vector<std::uint8_t>, Bytes>>;

/// Reference node builder, independent of the trie's own: rebuilds the node
/// over entries [begin, end) (sorted, distinct nibble keys sharing the
/// first `depth` nibbles) from the Yellow Paper rules alone, appends its
/// RLP encoding to `out` after its children's, and returns its reference
/// (the node itself when its encoding is under 32 bytes, else its hash).
rlp::Item reference_node(const NibbleEntries& kvs, std::size_t begin,
                         std::size_t end, std::size_t depth,
                         std::vector<Bytes>& out) {
  const std::vector<std::uint8_t>& first = kvs[begin].first;
  const std::vector<std::uint8_t>& last = kvs[end - 1].first;
  const auto from = [&](std::size_t i) {
    return first.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::size_t common = 0;
  while (depth + common < first.size() && depth + common < last.size() &&
         first[depth + common] == last[depth + common])
    ++common;

  rlp::Item node;
  if (end - begin == 1) {
    node = rlp::Item::list(
        {rlp::Item::str(trie::hex_prefix({from(depth), first.end()}, true)),
         rlp::Item::str(kvs[begin].second)});
  } else if (common > 0) {
    node = rlp::Item::list(
        {rlp::Item::str(
             trie::hex_prefix({from(depth), from(depth + common)}, false)),
         reference_node(kvs, begin, end, depth + common, out)});
  } else {
    std::vector<rlp::Item> slots(17);  // empty strings: absent children
    std::size_t i = begin;
    if (first.size() == depth) slots[16] = rlp::Item::str(kvs[i++].second);
    while (i < end) {
      const std::uint8_t nibble = kvs[i].first[depth];
      std::size_t j = i;
      while (j < end && kvs[j].first[depth] == nibble) ++j;
      slots[nibble] = reference_node(kvs, i, j, depth + 1, out);
      i = j;
    }
    node = rlp::Item::list(std::move(slots));
  }
  Bytes encoded = rlp::encode(node);
  const bool embedded = encoded.size() < 32;
  const Hash256 hash = keccak256(encoded);
  out.push_back(std::move(encoded));
  return embedded ? node : rlp::Item::str(hash.view());
}

/// Build a populated trie and collect the RLP encoding of every one of its
/// nodes, rebuilt by reference_node and tied to the trie by its root hash —
/// i.e. the exact bytes the trie's per-node encoding memo hashes.
std::vector<Bytes> trie_node_encodings(Rng& rng) {
  trie::Trie t;
  for (int i = 0; i < 60; ++i) {
    Bytes key = random_bytes(rng, 6);
    if (key.empty()) key.push_back(static_cast<std::uint8_t>(i));
    Bytes value = random_bytes(rng, 50);
    if (value.empty()) value.push_back(1);
    t.put(key, value);
  }
  NibbleEntries kvs;
  for (auto& [key, value] : t.entries())
    kvs.emplace_back(trie::to_nibbles(key), std::move(value));
  std::vector<Bytes> nodes;
  reference_node(kvs, 0, kvs.size(), 0, nodes);
  EXPECT_EQ(keccak256(nodes.back()), t.root_hash());  // the root is last
  return nodes;
}

class TrieNodeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieNodeFuzzTest, NodeEncodingsRoundTripThroughRlp) {
  Rng rng(GetParam() * 101);
  for (const Bytes& enc : trie_node_encodings(rng)) {
    // every node the trie emits is canonical RLP: it decodes without error,
    // consumes every byte, and re-encodes to the identical byte string
    const rlp::DecodeResult decoded = rlp::decode(enc);
    ASSERT_TRUE(decoded.item.has_value());
    ASSERT_FALSE(decoded.error.has_value());
    EXPECT_EQ(rlp::encode(*decoded.item), enc);
    // structural shape: leaf/extension (2 items) or branch (17 items)
    ASSERT_TRUE(decoded.item->is_list());
    const std::size_t arity = decoded.item->items().size();
    EXPECT_TRUE(arity == 2 || arity == 17) << arity;
  }
}

TEST_P(TrieNodeFuzzTest, MutatedNodeEncodingsNeverCrashDecoders) {
  Rng rng(GetParam() * 103);
  const std::vector<Bytes> nodes = trie_node_encodings(rng);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes enc = nodes[rng.uniform(nodes.size())];
    const std::size_t pos = rng.uniform(enc.size());
    enc[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));

    // the RLP layer must reject or re-shape, never crash
    (void)rlp::decode(enc);
    // nor may the path decoder, fed the (possibly garbage) first payload
    (void)trie::decode_hex_prefix(enc);
  }
}

TEST_P(TrieNodeFuzzTest, HexPrefixRoundTrips) {
  Rng rng(GetParam() * 107);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> nibbles(rng.uniform(12), 0);
    for (auto& n : nibbles) n = static_cast<std::uint8_t>(rng.uniform(16));
    const bool is_leaf = rng.chance(0.5);

    const Bytes encoded = trie::hex_prefix(nibbles, is_leaf);
    const auto decoded = trie::decode_hex_prefix(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first, nibbles);
    EXPECT_EQ(decoded->second, is_leaf);
  }
}

TEST_P(TrieNodeFuzzTest, RandomBytesNeverCrashHexPrefixDecode) {
  Rng rng(GetParam() * 109);
  for (int trial = 0; trial < 500; ++trial) {
    const Bytes junk = random_bytes(rng, 40);
    const auto decoded = trie::decode_hex_prefix(junk);
    // when it does decode, the nibble count must match the payload exactly
    if (decoded.has_value()) {
      for (const auto n : decoded->first) EXPECT_LT(n, 16u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieNodeFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace forksim
