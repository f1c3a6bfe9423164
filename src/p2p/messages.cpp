#include "p2p/messages.hpp"

namespace forksim::p2p {

namespace {

rlp::Item id_item(MsgId id) {
  return rlp::Item::u64(static_cast<std::uint64_t>(id));
}

rlp::Item hashes_item(const std::vector<Hash256>& hashes) {
  std::vector<rlp::Item> items;
  items.reserve(hashes.size());
  for (const auto& h : hashes) items.push_back(rlp::Item::str(h.view()));
  return rlp::Item::list(std::move(items));
}

std::optional<std::vector<Hash256>> parse_hashes(const rlp::Item& item,
                                                 std::size_t max_count) {
  if (!item.is_list()) return std::nullopt;
  if (item.items().size() > max_count) return std::nullopt;
  std::vector<Hash256> out;
  for (const auto& child : item.items()) {
    if (!child.is_bytes()) return std::nullopt;
    auto h = Hash256::from_bytes(child.bytes());
    if (!h) return std::nullopt;
    out.push_back(*h);
  }
  return out;
}

}  // namespace

Bytes encode_message(const Message& msg) {
  rlp::Item item = std::visit(
      [](const auto& m) -> rlp::Item {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Ping>) {
          return rlp::Item::list({id_item(MsgId::kPing)});
        } else if constexpr (std::is_same_v<T, Pong>) {
          return rlp::Item::list({id_item(MsgId::kPong)});
        } else if constexpr (std::is_same_v<T, FindNode>) {
          return rlp::Item::list(
              {id_item(MsgId::kFindNode), rlp::Item::str(m.target.view())});
        } else if constexpr (std::is_same_v<T, Neighbors>) {
          return rlp::Item::list(
              {id_item(MsgId::kNeighbors), hashes_item(m.nodes)});
        } else if constexpr (std::is_same_v<T, Status>) {
          return rlp::Item::list({id_item(MsgId::kStatus),
                                  rlp::Item::u64(m.protocol_version),
                                  rlp::Item::u64(m.network_id),
                                  rlp::Item::u256(m.total_difficulty),
                                  rlp::Item::str(m.head_hash.view()),
                                  rlp::Item::str(m.genesis_hash.view()),
                                  rlp::Item::u64(m.head_number)});
        } else if constexpr (std::is_same_v<T, NewBlockHashes>) {
          return rlp::Item::list(
              {id_item(MsgId::kNewBlockHashes), hashes_item(m.hashes)});
        } else if constexpr (std::is_same_v<T, Transactions>) {
          std::vector<rlp::Item> txs;
          txs.reserve(m.transactions.size());
          for (const auto& tx : m.transactions) txs.push_back(tx.to_rlp());
          return rlp::Item::list(
              {id_item(MsgId::kTransactions), rlp::Item::list(std::move(txs))});
        } else if constexpr (std::is_same_v<T, GetBlocks>) {
          return rlp::Item::list({id_item(MsgId::kGetBlocks),
                                  rlp::Item::str(m.head.view()),
                                  rlp::Item::u64(m.max_blocks)});
        } else if constexpr (std::is_same_v<T, Blocks>) {
          std::vector<rlp::Item> blocks;
          blocks.reserve(m.blocks.size());
          for (const auto& b : m.blocks) blocks.push_back(b.to_rlp());
          return rlp::Item::list(
              {id_item(MsgId::kBlocks), rlp::Item::list(std::move(blocks))});
        } else if constexpr (std::is_same_v<T, NewBlock>) {
          return rlp::Item::list({id_item(MsgId::kNewBlock), m.block.to_rlp(),
                                  rlp::Item::u256(m.total_difficulty)});
        } else if constexpr (std::is_same_v<T, GetDaoHeader>) {
          return rlp::Item::list({id_item(MsgId::kGetDaoHeader)});
        } else if constexpr (std::is_same_v<T, DaoHeader>) {
          std::vector<rlp::Item> fields = {id_item(MsgId::kDaoHeader)};
          if (m.header) fields.push_back(m.header->to_rlp());
          return rlp::Item::list(std::move(fields));
        } else {  // Disconnect
          return rlp::Item::list(
              {id_item(MsgId::kDisconnect),
               rlp::Item::u64(static_cast<std::uint64_t>(m.reason))});
        }
      },
      msg);
  return rlp::encode(item);
}

std::optional<Message> decode_message(BytesView wire) {
  if (wire.size() > kMaxMessageBytes) return std::nullopt;
  auto decoded = rlp::decode(wire);
  if (!decoded.ok() || !decoded.item->is_list()) return std::nullopt;
  const auto& fields = decoded.item->items();
  if (fields.empty()) return std::nullopt;
  const auto id_scalar = fields[0].as_u64();
  if (!id_scalar) return std::nullopt;

  const auto id = static_cast<MsgId>(*id_scalar);
  switch (id) {
    case MsgId::kPing:
      return Message{Ping{}};
    case MsgId::kPong:
      return Message{Pong{}};
    case MsgId::kFindNode: {
      if (fields.size() != 2 || !fields[1].is_bytes()) return std::nullopt;
      auto target = Hash256::from_bytes(fields[1].bytes());
      if (!target) return std::nullopt;
      return Message{FindNode{*target}};
    }
    case MsgId::kNeighbors: {
      if (fields.size() != 2) return std::nullopt;
      auto nodes = parse_hashes(fields[1], kMaxNeighborsPerMessage);
      if (!nodes) return std::nullopt;
      return Message{Neighbors{std::move(*nodes)}};
    }
    case MsgId::kStatus: {
      if (fields.size() != 7) return std::nullopt;
      Status s;
      auto version = fields[1].as_u64();
      auto network = fields[2].as_u64();
      auto td = fields[3].as_u256();
      auto number = fields[6].as_u64();
      if (!version || !network || !td || !number) return std::nullopt;
      if (!fields[4].is_bytes() || !fields[5].is_bytes()) return std::nullopt;
      auto head = Hash256::from_bytes(fields[4].bytes());
      auto genesis = Hash256::from_bytes(fields[5].bytes());
      if (!head || !genesis) return std::nullopt;
      s.protocol_version = static_cast<std::uint32_t>(*version);
      s.network_id = *network;
      s.total_difficulty = *td;
      s.head_hash = *head;
      s.genesis_hash = *genesis;
      s.head_number = *number;
      return Message{std::move(s)};
    }
    case MsgId::kNewBlockHashes: {
      if (fields.size() != 2) return std::nullopt;
      auto hashes = parse_hashes(fields[1], kMaxHashesPerMessage);
      if (!hashes) return std::nullopt;
      return Message{NewBlockHashes{std::move(*hashes)}};
    }
    case MsgId::kTransactions: {
      if (fields.size() != 2 || !fields[1].is_list()) return std::nullopt;
      if (fields[1].items().size() > kMaxTxsPerMessage) return std::nullopt;
      Transactions txs;
      for (const auto& item : fields[1].items()) {
        auto tx = core::Transaction::from_rlp(item);
        if (!tx) return std::nullopt;
        txs.transactions.push_back(std::move(*tx));
      }
      return Message{std::move(txs)};
    }
    case MsgId::kGetBlocks: {
      if (fields.size() != 3 || !fields[1].is_bytes()) return std::nullopt;
      auto head = Hash256::from_bytes(fields[1].bytes());
      auto max = fields[2].as_u64();
      if (!head || !max || *max > kMaxGetBlocksRequest) return std::nullopt;
      return Message{GetBlocks{*head, static_cast<std::uint32_t>(*max)}};
    }
    case MsgId::kBlocks: {
      if (fields.size() != 2 || !fields[1].is_list()) return std::nullopt;
      if (fields[1].items().size() > kMaxBlocksPerMessage) return std::nullopt;
      Blocks blocks;
      for (const auto& item : fields[1].items()) {
        auto b = core::Block::from_rlp(item);
        if (!b) return std::nullopt;
        blocks.blocks.push_back(std::move(*b));
      }
      return Message{std::move(blocks)};
    }
    case MsgId::kNewBlock: {
      if (fields.size() != 3) return std::nullopt;
      auto block = core::Block::from_rlp(fields[1]);
      auto td = fields[2].as_u256();
      if (!block || !td) return std::nullopt;
      return Message{NewBlock{std::move(*block), *td}};
    }
    case MsgId::kGetDaoHeader:
      return Message{GetDaoHeader{}};
    case MsgId::kDaoHeader: {
      DaoHeader dh;
      if (fields.size() == 2) {
        auto header = core::BlockHeader::from_rlp(fields[1]);
        if (!header) return std::nullopt;
        dh.header = std::move(*header);
      } else if (fields.size() != 1) {
        return std::nullopt;
      }
      return Message{std::move(dh)};
    }
    case MsgId::kDisconnect: {
      if (fields.size() != 2) return std::nullopt;
      auto reason = fields[1].as_u64();
      if (!reason) return std::nullopt;
      return Message{Disconnect{static_cast<DisconnectReason>(*reason)}};
    }
  }
  return std::nullopt;
}

std::string_view message_name(const Message& msg) {
  return std::visit(
      [](const auto& m) -> std::string_view {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Ping>) return "PING";
        else if constexpr (std::is_same_v<T, Pong>) return "PONG";
        else if constexpr (std::is_same_v<T, FindNode>) return "FIND_NODE";
        else if constexpr (std::is_same_v<T, Neighbors>) return "NEIGHBORS";
        else if constexpr (std::is_same_v<T, Status>) return "STATUS";
        else if constexpr (std::is_same_v<T, NewBlockHashes>)
          return "NEW_BLOCK_HASHES";
        else if constexpr (std::is_same_v<T, Transactions>)
          return "TRANSACTIONS";
        else if constexpr (std::is_same_v<T, GetBlocks>) return "GET_BLOCKS";
        else if constexpr (std::is_same_v<T, Blocks>) return "BLOCKS";
        else if constexpr (std::is_same_v<T, NewBlock>) return "NEW_BLOCK";
        else if constexpr (std::is_same_v<T, GetDaoHeader>)
          return "GET_DAO_HEADER";
        else if constexpr (std::is_same_v<T, DaoHeader>) return "DAO_HEADER";
        else return "DISCONNECT";
      },
      msg);
}

}  // namespace forksim::p2p
