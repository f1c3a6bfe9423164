// Durability subsystem tests: SimDisk crash-fault semantics, BlockStore
// append/recover round-trips, head-pointer double-slot atomicity, the
// truncate-at-first-invalid repair, and the end-to-end recovery-equivalence
// property — a store-backed node cold-restarted through a corrupting crash
// re-syncs to the exact head and state root of a replica that never died.
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "core/chain.hpp"
#include "db/blockstore.hpp"
#include "evm/executor.hpp"
#include "obs/metrics.hpp"
#include "sim/miner.hpp"
#include "sim/node.hpp"

namespace forksim::db {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint8_t fill) {
  return Bytes(n, fill);
}

BytesView view(const Bytes& b) { return BytesView(b.data(), b.size()); }

// ------------------------------------------------------------- SimDisk

TEST(SimDiskTest, AppendOverwriteReadTruncate) {
  SimDisk disk{Rng(1)};
  disk.append("f", view(pattern_bytes(8, 0xaa)));
  disk.append("f", view(pattern_bytes(4, 0xbb)));
  EXPECT_EQ(disk.size("f"), 12u);
  EXPECT_EQ(disk.read("f")[0], 0xaa);
  EXPECT_EQ(disk.read("f")[8], 0xbb);

  disk.overwrite("f", 2, view(pattern_bytes(3, 0xcc)));
  EXPECT_EQ(disk.size("f"), 12u);
  EXPECT_EQ(disk.read("f")[2], 0xcc);
  // overwrite past the end zero-extends
  disk.overwrite("f", 14, view(pattern_bytes(2, 0xdd)));
  EXPECT_EQ(disk.size("f"), 16u);
  EXPECT_EQ(disk.read("f")[12], 0x00);
  EXPECT_EQ(disk.read("f")[14], 0xdd);

  disk.truncate("f", 5);
  EXPECT_EQ(disk.size("f"), 5u);
  disk.truncate("f", 100);  // no-op when already smaller
  EXPECT_EQ(disk.size("f"), 5u);

  EXPECT_EQ(disk.size("never-written"), 0u);
  EXPECT_TRUE(disk.read("never-written").empty());

  const DiskCounters& c = disk.counters();
  EXPECT_EQ(c.appends, 2u);
  EXPECT_EQ(c.overwrites, 2u);
  EXPECT_EQ(c.bytes_written, 8u + 4u + 3u + 2u);
}

TEST(SimDiskTest, PerfectDiskCrashIsHarmless) {
  SimDisk disk{Rng(7)};  // all fault probabilities zero
  disk.append("log", view(pattern_bytes(100, 0x11)));
  const Bytes before = disk.read("log");
  disk.crash();
  EXPECT_EQ(disk.read("log"), before);
  EXPECT_EQ(disk.counters().crashes, 1u);
  EXPECT_EQ(disk.counters().torn_writes, 0u);
  EXPECT_EQ(disk.counters().tail_truncations, 0u);
  EXPECT_EQ(disk.counters().bits_flipped, 0u);
}

TEST(SimDiskTest, TornAppendShrinksBackTowardThePreWriteSize) {
  StorageFaults faults;
  faults.torn_write_prob = 1.0;
  SimDisk disk(Rng(3), faults);
  disk.append("log", view(pattern_bytes(50, 0xaa)));
  disk.crash();  // clears last-write state; may shrink the first write
  const std::size_t base = disk.size("log");

  disk.append("log", view(pattern_bytes(100, 0xbb)));
  disk.crash();
  // the torn write keeps 0..99 bytes of the appended 100; everything that
  // was durable before the write survives untouched
  EXPECT_GE(disk.size("log"), base);
  EXPECT_LT(disk.size("log"), base + 100);
  const Bytes& data = disk.read("log");
  for (std::size_t i = 0; i < base; ++i) ASSERT_EQ(data[i], 0xaa) << i;
  for (std::size_t i = base; i < data.size(); ++i)
    ASSERT_EQ(data[i], 0xbb) << i;
  EXPECT_GE(disk.counters().torn_writes, 1u);

  // a crash with no intervening write finds nothing to tear
  const std::uint64_t torn = disk.counters().torn_writes;
  disk.crash();
  EXPECT_EQ(disk.counters().torn_writes, torn);
}

TEST(SimDiskTest, TornOverwriteRevertsTheSuffixToPreviousContents) {
  StorageFaults faults;
  faults.torn_write_prob = 1.0;
  SimDisk disk(Rng(5), faults);
  disk.append("f", view(pattern_bytes(32, 0xaa)));
  disk.crash();  // consume the append's last-write state
  const std::size_t size = disk.size("f");
  ASSERT_GT(size, 0u);

  disk.overwrite("f", 0, view(pattern_bytes(size, 0xbb)));
  disk.crash();
  // in-place tear: a prefix of the new bytes landed, the suffix still holds
  // the old contents, and the file size never changes
  const Bytes& data = disk.read("f");
  ASSERT_EQ(data.size(), size);
  std::size_t kept = 0;
  while (kept < size && data[kept] == 0xbb) ++kept;
  for (std::size_t i = kept; i < size; ++i) ASSERT_EQ(data[i], 0xaa) << i;
  EXPECT_LT(kept, size);  // prob 1.0: some suffix was genuinely lost
}

TEST(SimDiskTest, TailTruncationChopsWithinTheConfiguredBound) {
  StorageFaults faults;
  faults.tail_truncate_prob = 1.0;
  faults.max_truncate_bytes = 16;
  SimDisk disk(Rng(11), faults);
  disk.append("f", view(pattern_bytes(100, 0x22)));
  disk.crash();
  EXPECT_LT(disk.size("f"), 100u);
  EXPECT_GE(disk.size("f"), 100u - 16u);
  EXPECT_EQ(disk.counters().tail_truncations, 1u);
  EXPECT_EQ(disk.counters().truncated_bytes, 100u - disk.size("f"));
}

TEST(SimDiskTest, BitRotFlipsABoundedNumberOfBits) {
  StorageFaults faults;
  faults.bit_rot_prob = 1.0;
  faults.max_bit_flips = 8;
  SimDisk disk(Rng(13), faults);
  const Bytes before = pattern_bytes(64, 0x00);
  disk.append("f", view(before));
  disk.crash();
  const Bytes& after = disk.read("f");
  ASSERT_EQ(after.size(), before.size());  // rot flips, never resizes
  std::size_t diff_bits = 0;
  for (std::size_t i = 0; i < after.size(); ++i)
    diff_bits += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(before[i] ^ after[i])));
  EXPECT_GE(disk.counters().bits_flipped, 1u);
  EXPECT_LE(disk.counters().bits_flipped, 8u);
  // same-position double flips cancel, so observed <= counted
  EXPECT_LE(diff_bits, disk.counters().bits_flipped);
}

TEST(SimDiskTest, SameSeedCrashesBitIdentically) {
  StorageFaults faults;
  faults.torn_write_prob = 0.7;
  faults.tail_truncate_prob = 0.7;
  faults.bit_rot_prob = 0.7;
  SimDisk d1(Rng(99), faults);
  SimDisk d2(Rng(99), faults);
  for (SimDisk* d : {&d1, &d2}) {
    d->append("a", view(pattern_bytes(200, 0x5a)));
    d->append("b", view(pattern_bytes(90, 0xa5)));
    d->crash();
    d->append("a", view(pattern_bytes(40, 0x33)));
    d->crash();
  }
  EXPECT_EQ(d1.read("a"), d2.read("a"));
  EXPECT_EQ(d1.read("b"), d2.read("b"));
  EXPECT_EQ(d1.counters().bits_flipped, d2.counters().bits_flipped);
  EXPECT_EQ(d1.counters().truncated_bytes, d2.counters().truncated_bytes);
}

// ----------------------------------------------------------- BlockStore

class BlockStoreTest : public ::testing::Test {
 protected:
  BlockStoreTest()
      : chain_(core::ChainConfig::mainnet_pre_fork(), executor_,
               core::GenesisAlloc{}) {}

  /// Mine and import `n` blocks, returning them in chain order.
  std::vector<core::Block> mined_chain(std::size_t n) {
    std::vector<core::Block> out;
    for (std::size_t i = 0; i < n; ++i) {
      const core::Block b = chain_.produce_block(
          Address::left_padded(Bytes{0x42}),
          chain_.head().header.timestamp + 14, {});
      EXPECT_EQ(chain_.import(b).result, core::ImportResult::kImported);
      out.push_back(b);
    }
    return out;
  }

  /// Byte offset of record `k` (0-based) in the store's log.
  static std::size_t record_offset(const std::vector<core::Block>& blocks,
                                   std::size_t k) {
    std::size_t off = 0;
    for (std::size_t i = 0; i < k; ++i)
      off += BlockStore::kRecordHeaderBytes + blocks[i].encode().size();
    return off;
  }

  /// Fresh chain sharing the genesis, for replaying recovered blocks.
  core::Blockchain fresh_chain() {
    return core::Blockchain(core::ChainConfig::mainnet_pre_fork(), executor_,
                            core::GenesisAlloc{});
  }

  core::TransferExecutor executor_;
  core::Blockchain chain_;
};

TEST_F(BlockStoreTest, AppendRecoverRoundTrip) {
  SimDisk disk{Rng(1)};
  BlockStore store(disk, "n0");
  const std::vector<core::Block> blocks = mined_chain(10);
  for (const core::Block& b : blocks) store.append(b);
  EXPECT_EQ(store.record_count(), 10u);

  RecoveryStats stats;
  const std::vector<core::Block> recovered = store.recover(&stats);
  ASSERT_EQ(recovered.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    EXPECT_EQ(recovered[i].hash(), blocks[i].hash()) << i;
  EXPECT_EQ(stats.records_scanned, 10u);
  EXPECT_EQ(stats.corrupt_records, 0u);
  EXPECT_EQ(stats.blocks_recovered, 10u);
  EXPECT_EQ(stats.bytes_truncated, 0u);
  EXPECT_TRUE(stats.head_ptr_valid);
  EXPECT_EQ(store.record_count(), 10u);

  // the recovered prefix replays cleanly into a fresh chain
  core::Blockchain replay = fresh_chain();
  for (const core::Block& b : recovered)
    EXPECT_EQ(replay.import(b).result, core::ImportResult::kImported);
  EXPECT_EQ(replay.head().hash(), chain_.head().hash());
}

TEST_F(BlockStoreTest, RecoverOnEmptyStoreIsCleanZero) {
  SimDisk disk{Rng(2)};
  BlockStore store(disk, "n0");
  RecoveryStats stats;
  EXPECT_TRUE(store.recover(&stats).empty());
  EXPECT_EQ(stats.records_scanned, 0u);
  EXPECT_EQ(stats.corrupt_records, 0u);
  EXPECT_FALSE(stats.head_ptr_valid);
  EXPECT_EQ(store.record_count(), 0u);
}

TEST_F(BlockStoreTest, HeadPointerSurvivesAClobberedSlot) {
  SimDisk disk{Rng(3)};
  BlockStore store(disk, "n0");
  const std::vector<core::Block> blocks = mined_chain(6);
  for (const core::Block& b : blocks) store.append(b);
  ASSERT_EQ(disk.size(store.head_file()), 2 * BlockStore::kHeadSlotBytes);

  // a torn head write clobbers at most one slot: garbage over slot 0 still
  // leaves slot 1 naming the previous durable commit
  disk.overwrite(store.head_file(), 0,
                 view(pattern_bytes(BlockStore::kHeadSlotBytes, 0xff)));
  RecoveryStats stats;
  EXPECT_EQ(store.recover(&stats).size(), 6u);
  EXPECT_TRUE(stats.head_ptr_valid);

  // both slots gone: the head pointer is lost, but the checksummed log
  // scan is the real authority and still recovers everything
  disk.overwrite(store.head_file(), 0,
                 view(pattern_bytes(2 * BlockStore::kHeadSlotBytes, 0xff)));
  EXPECT_EQ(store.recover(&stats).size(), 6u);
  EXPECT_FALSE(stats.head_ptr_valid);
  EXPECT_EQ(stats.corrupt_records, 0u);
}

TEST_F(BlockStoreTest, BitRotMidLogTruncatesAtFirstInvalidRecord) {
  SimDisk disk{Rng(4)};
  BlockStore store(disk, "n0");
  const std::vector<core::Block> blocks = mined_chain(10);
  for (const core::Block& b : blocks) store.append(b);

  // flip one payload byte inside record 5 (0-based): records 0..4 stay
  // valid, everything from the rotten record on is discarded
  const std::size_t pos = record_offset(blocks, 5) +
                          BlockStore::kRecordHeaderBytes + 3;
  const std::uint8_t flipped =
      static_cast<std::uint8_t>(disk.read(store.log_file())[pos] ^ 0x01);
  disk.overwrite(store.log_file(), pos, BytesView(&flipped, 1));

  RecoveryStats stats;
  const std::vector<core::Block> recovered = store.recover(&stats);
  ASSERT_EQ(recovered.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(recovered[i].hash(), blocks[i].hash()) << i;
  EXPECT_EQ(stats.corrupt_records, 1u);
  EXPECT_GT(stats.bytes_truncated, 0u);
  EXPECT_EQ(disk.size(store.log_file()), record_offset(blocks, 5));
  EXPECT_EQ(store.record_count(), 5u);

  // the repaired store keeps appending: the lost tail re-appends cleanly
  store.append(blocks[5]);
  EXPECT_EQ(store.recover(&stats).size(), 6u);
  EXPECT_EQ(stats.corrupt_records, 0u);
}

TEST_F(BlockStoreTest, TailTruncationRecoversTheLongestValidPrefix) {
  SimDisk disk{Rng(5)};
  BlockStore store(disk, "n0");
  const std::vector<core::Block> blocks = mined_chain(8);
  for (const core::Block& b : blocks) store.append(b);

  // chop 5 bytes off the log tail: the final record is torn mid-payload
  disk.truncate(store.log_file(), disk.size(store.log_file()) - 5);
  RecoveryStats stats;
  const std::vector<core::Block> recovered = store.recover(&stats);
  ASSERT_EQ(recovered.size(), 7u);
  EXPECT_EQ(stats.corrupt_records, 1u);
  EXPECT_EQ(disk.size(store.log_file()), record_offset(blocks, 7));
}

// Property: whatever a crash does to the disk, recovery only ever yields a
// byte-identical prefix of what was appended — never an invalid or mutated
// block — and that prefix replays cleanly.
TEST_F(BlockStoreTest, CrashFaultsNeverYieldInvalidBlocks) {
  const std::vector<core::Block> blocks = mined_chain(12);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    StorageFaults faults;
    faults.torn_write_prob = 0.8;
    faults.tail_truncate_prob = 0.8;
    faults.bit_rot_prob = 0.6;
    SimDisk disk(Rng(seed), faults);
    BlockStore store(disk, "n0");
    for (const core::Block& b : blocks) store.append(b);
    disk.crash();

    RecoveryStats stats;
    const std::vector<core::Block> recovered = store.recover(&stats);
    ASSERT_LE(recovered.size(), blocks.size()) << seed;
    for (std::size_t i = 0; i < recovered.size(); ++i)
      ASSERT_EQ(recovered[i].hash(), blocks[i].hash()) << seed << ":" << i;

    core::Blockchain replay = fresh_chain();
    for (const core::Block& b : recovered)
      ASSERT_EQ(replay.import(b).result, core::ImportResult::kImported)
          << seed;

    // the repaired store accepts the re-synced tail
    for (std::size_t i = recovered.size(); i < blocks.size(); ++i)
      store.append(blocks[i]);
    EXPECT_EQ(store.record_count(), blocks.size());
  }
}

TEST_F(BlockStoreTest, TelemetryCountsAppends) {
  SimDisk disk{Rng(6)};
  BlockStore store(disk, "n0");
  obs::Registry reg;
  store.attach_telemetry(reg);
  const std::vector<core::Block> blocks = mined_chain(4);
  for (const core::Block& b : blocks) store.append(b);
  EXPECT_EQ(reg.counter_value("db.appends"), 4u);
  EXPECT_GT(reg.counter_value("db.bytes_appended"), 0u);
}

}  // namespace
}  // namespace forksim::db

// ------------------------------------------- recovery equivalence (network)

namespace forksim::sim {
namespace {

using p2p::LatencyModel;

p2p::NodeId test_id(std::uint64_t n) {
  Keccak256 h;
  h.update(std::string_view("db-test"));
  const auto be = be_fixed64(n);
  h.update(BytesView(be.data(), be.size()));
  return h.digest();
}

struct Net {
  explicit Net(LatencyModel latency, std::uint64_t seed = 1)
      : network(loop, Rng(seed), latency) {}

  std::unique_ptr<FullNode> make_node(std::uint64_t id, std::uint64_t seed) {
    NodeOptions options;
    options.genesis_difficulty = U256(100'000);
    return std::make_unique<FullNode>(
        network, test_id(id), core::ChainConfig::mainnet_pre_fork(),
        executor, core::GenesisAlloc{}, Rng(seed), options);
  }

  p2p::EventLoop loop;
  p2p::Network network;
  evm::EvmExecutor executor;
};

// The acceptance property for the whole durability layer: a store-backed
// node crashed cold at randomized heights — through a disk that tears,
// truncates, and rots — replays its surviving log prefix, re-syncs the lost
// tail from peers, and ends on the exact head hash AND state root of the
// replica that never crashed. Zero checksummed records may be refused on
// replay.
TEST(RecoveryEquivalenceTest, ColdRestartsMatchTheNeverCrashedReplica) {
  Net net(LatencyModel{0.02, 0.0, 0.0, 0.0}, 61);
  auto a = net.make_node(1, 1);  // the never-crashed replica (and miner)
  auto b = net.make_node(2, 2);  // store-backed, crashed repeatedly

  db::StorageFaults faults;
  faults.torn_write_prob = 0.7;
  faults.tail_truncate_prob = 0.7;
  faults.bit_rot_prob = 0.5;
  db::SimDisk disk(Rng(4242), faults);
  db::BlockStore store(disk, "b");
  b->attach_store(&store);

  obs::Registry reg;
  a->attach_telemetry(reg);
  b->attach_telemetry(reg);
  store.attach_telemetry(reg);

  a->start({});
  b->start({a->id()});
  Miner miner(*a, Address::left_padded(Bytes{0x01}), 5e4, Rng(7));
  miner.start();

  Rng crash_rng(99);
  double at = 150.0;
  std::uint64_t replayed_total = 0;
  for (int k = 0; k < 4; ++k) {
    net.loop.run_until(at);
    disk.crash();  // power loss corrupts the un-synced tail
    const RecoveryOutcome out = b->cold_restart({a->id()});
    EXPECT_EQ(out.replay_rejected, 0u) << k;
    replayed_total += out.blocks_replayed;
    at = net.loop.now() + 120.0 + static_cast<double>(crash_rng.uniform(200));
  }
  net.loop.run_until(1400.0);
  miner.stop();
  net.loop.run_until(net.loop.now() + 300.0);

  ASSERT_GT(a->chain().height(), 20u);
  EXPECT_EQ(b->counters().cold_restarts, 4u);
  EXPECT_EQ(b->counters().recovery_rejects, 0u);
  EXPECT_GT(replayed_total, 0u);  // the log genuinely shortened the re-sync

  // equivalence: same head, same state commitment as the healthy replica
  EXPECT_EQ(b->chain().head().hash(), a->chain().head().hash());
  EXPECT_EQ(b->chain().head().header.state_root,
            a->chain().head().header.state_root);
  EXPECT_EQ(b->chain().height(), a->chain().height());

  // the store tracked the chain back to full strength: one record per
  // canonical block (replays are never re-appended, re-synced tails are)
  EXPECT_EQ(store.record_count(), b->chain().height());

  // recovery told its story in the shared registry
  EXPECT_EQ(reg.counter_value("node.cold_restarts"), 4u);
  EXPECT_GT(reg.counter_value("db.recovery.records_scanned"), 0u);
  EXPECT_EQ(reg.counter_value("db.recovery.blocks_replayed"), replayed_total);
}

}  // namespace
}  // namespace forksim::sim
