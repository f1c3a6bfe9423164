// Wire protocol messages: the discovery protocol (PING/PONG/FIND_NODE/
// NEIGHBORS, Kademlia's RPCs) and an eth/63-style block & transaction
// protocol (STATUS, NEW_BLOCK, NEW_BLOCK_HASHES, GET_BLOCKS, BLOCKS,
// TRANSACTIONS, DISCONNECT) plus the DAO fork-header challenge geth used
// after the fork to drop peers from the other side of the partition.
//
// Encoding: rlp([message_id, payload...]).
#pragma once

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core/block.hpp"
#include "p2p/simnet.hpp"
#include "rlp/rlp.hpp"

namespace forksim::p2p {

/// Hard ceilings on decoded payloads. Honest traffic sits orders of
/// magnitude below these; anything larger is a resource-exhaustion attempt
/// and decode_message rejects it before element parsing allocates.
inline constexpr std::size_t kMaxMessageBytes = 4u << 20;  // 4 MiB wire frame
inline constexpr std::size_t kMaxHashesPerMessage = 1024;
inline constexpr std::size_t kMaxNeighborsPerMessage = 256;
inline constexpr std::size_t kMaxTxsPerMessage = 4096;
inline constexpr std::size_t kMaxBlocksPerMessage = 512;
inline constexpr std::uint64_t kMaxGetBlocksRequest = 4096;

enum class MsgId : std::uint8_t {
  // discovery
  kPing = 0x01,
  kPong = 0x02,
  kFindNode = 0x03,
  kNeighbors = 0x04,
  // eth
  kStatus = 0x10,
  kNewBlockHashes = 0x11,
  kTransactions = 0x12,
  kGetBlocks = 0x13,
  kBlocks = 0x14,
  kNewBlock = 0x15,
  kGetDaoHeader = 0x16,
  kDaoHeader = 0x17,
  kDisconnect = 0x1f,
};

struct Ping {};
struct Pong {};
struct FindNode {
  NodeId target;
};
struct Neighbors {
  std::vector<NodeId> nodes;
};

struct Status {
  std::uint32_t protocol_version = 63;
  std::uint64_t network_id = 1;
  U256 total_difficulty;
  Hash256 head_hash;
  Hash256 genesis_hash;
  core::BlockNumber head_number = 0;
};

struct NewBlockHashes {
  std::vector<Hash256> hashes;
};

struct Transactions {
  std::vector<core::Transaction> transactions;
};

/// Request up to `max_blocks` blocks ending at `head` walking parents
/// (a compact stand-in for GetBlockHeaders+GetBlockBodies).
struct GetBlocks {
  Hash256 head;
  std::uint32_t max_blocks = 1;
};

struct Blocks {
  std::vector<core::Block> blocks;
};

struct NewBlock {
  core::Block block;
  U256 total_difficulty;
};

/// The DAO challenge: ask the peer for its header at the fork height.
struct GetDaoHeader {};

struct DaoHeader {
  /// Absent if the peer hasn't reached the fork height.
  std::optional<core::BlockHeader> header;
};

enum class DisconnectReason : std::uint8_t {
  kRequested = 0,
  kUselessPeer = 3,
  kBreachOfProtocol = 2,
  kIncompatibleNetwork = 6,
  kWrongFork = 7,  // failed the DAO challenge — the partition in action
  kTooManyPeers = 4,
};

struct Disconnect {
  DisconnectReason reason = DisconnectReason::kRequested;
};

using Message =
    std::variant<Ping, Pong, FindNode, Neighbors, Status, NewBlockHashes,
                 Transactions, GetBlocks, Blocks, NewBlock, GetDaoHeader,
                 DaoHeader, Disconnect>;

Bytes encode_message(const Message& msg);
std::optional<Message> decode_message(BytesView wire);

/// One encoded message as the network carries it: a broadcast, a relay and
/// a duplicated delivery all share one Payload, so every receiver reads the
/// same bytes and the same decoded message. The wire bytes never change;
/// the decoded message and the transaction hashes are worked out on first
/// use and kept. The network is single-threaded, so the memos take no lock.
class Payload {
 public:
  explicit Payload(Bytes wire) : wire_(std::move(wire)) {}

  const Bytes& wire() const noexcept { return wire_; }
  std::size_t size() const noexcept { return wire_.size(); }

  /// decode_message(wire()), run on the first call only; nullptr if the
  /// bytes are malformed (every receiver then sees that same failure).
  const Message* message() const;

  /// The hash of each transaction of a Transactions message, in order,
  /// computed on the first call only. Empty for any other message.
  const std::vector<Hash256>& tx_hashes() const;

 private:
  Bytes wire_;
  mutable bool decoded_ = false;
  mutable std::optional<Message> message_;
  mutable bool hashed_ = false;
  mutable std::vector<Hash256> tx_hashes_;
};

/// A payload that every send of `wire` can share.
inline PayloadPtr make_payload(Bytes wire) {
  return std::make_shared<const Payload>(std::move(wire));
}

}  // namespace forksim::p2p
