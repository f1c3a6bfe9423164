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

// ------------------------------------------------------ trie proof property

TEST(TrieProofPropertyTest, EveryKeyProvableAtEveryRoot) {
  Rng rng(13);
  trie::Trie t;
  std::vector<Bytes> keys;
  for (int i = 0; i < 80; ++i) {
    Bytes key = random_bytes(rng, 8);
    if (key.empty()) key.push_back(static_cast<std::uint8_t>(i));
    Bytes value = random_bytes(rng, 60);
    if (value.empty()) value.push_back(1);
    t.put(key, value);
    keys.push_back(key);

    // after every insertion, every present key is provable at the new root
    if (i % 16 == 0) {
      const Hash256 root = t.root_hash();
      for (const Bytes& k : keys) {
        if (!t.contains(k)) continue;
        const auto proof = t.prove(k);
        const auto verified = trie::Trie::verify_proof(root, k, proof);
        ASSERT_TRUE(verified.has_value());
        EXPECT_EQ(*verified, *t.get(k));
      }
    }
  }
}

// -------------------------------------------- trie node encoding round-trip

/// Build a populated trie and collect the RLP encoding of every node on
/// every key's proof path — i.e. the exact bytes the trie's per-node
/// encoding memo produces and peers would receive in a proof.
std::vector<Bytes> proof_node_encodings(Rng& rng, std::vector<Bytes>* keys) {
  trie::Trie t;
  for (int i = 0; i < 60; ++i) {
    Bytes key = random_bytes(rng, 6);
    if (key.empty()) key.push_back(static_cast<std::uint8_t>(i));
    Bytes value = random_bytes(rng, 50);
    if (value.empty()) value.push_back(1);
    t.put(key, value);
    if (keys != nullptr) keys->push_back(std::move(key));
  }
  std::vector<Bytes> nodes;
  for (const auto& [key, _] : t.entries())
    for (Bytes& enc : t.prove(key)) nodes.push_back(std::move(enc));
  return nodes;
}

class TrieNodeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieNodeFuzzTest, NodeEncodingsRoundTripThroughRlp) {
  Rng rng(GetParam() * 101);
  for (const Bytes& enc : proof_node_encodings(rng, nullptr)) {
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
  std::vector<Bytes> keys;
  const std::vector<Bytes> nodes = proof_node_encodings(rng, &keys);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes enc = nodes[rng.uniform(nodes.size())];
    const std::size_t pos = rng.uniform(enc.size());
    enc[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));

    // the RLP layer must reject or re-shape, never crash
    (void)rlp::decode(enc);
    // nor may the path decoder, fed the (possibly garbage) first payload
    (void)trie::decode_hex_prefix(enc);

    // a proof whose root node was swapped for the corrupted bytes must fail
    // verification (the root commitment no longer matches) — and not crash
    trie::Trie t;
    t.put(Bytes{0x01}, Bytes{0xaa});
    const Hash256 root = t.root_hash();
    auto proof = t.prove(Bytes{0x01});
    ASSERT_FALSE(proof.empty());
    proof[0] = enc;  // swap in the corrupted node
    EXPECT_FALSE(
        trie::Trie::verify_proof(root, Bytes{0x01}, proof).has_value());
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

TEST(TrieProofPropertyTest, ProofFromOldRootFailsAfterMutation) {
  trie::Trie t;
  t.put(Bytes{0x01}, Bytes{0xaa});
  const Hash256 old_root = t.root_hash();
  const auto old_proof = t.prove(Bytes{0x01});

  t.put(Bytes{0x01}, Bytes{0xbb});  // mutate
  const Hash256 new_root = t.root_hash();
  // old proof fails against the new root...
  EXPECT_FALSE(
      trie::Trie::verify_proof(new_root, Bytes{0x01}, old_proof).has_value());
  // ...but still verifies against the old root (commitments are immutable)
  const auto old_value =
      trie::Trie::verify_proof(old_root, Bytes{0x01}, old_proof);
  ASSERT_TRUE(old_value.has_value());
  EXPECT_EQ(*old_value, (Bytes{0xaa}));
}

}  // namespace
}  // namespace forksim
