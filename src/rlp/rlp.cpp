#include "rlp/rlp.hpp"

namespace forksim::rlp {

namespace {

constexpr std::size_t kMaxLength = 1u << 30;  // 1 GiB sanity bound

void encode_length(Bytes& out, std::size_t length, std::uint8_t offset) {
  if (length < 56) {
    out.push_back(static_cast<std::uint8_t>(offset + length));
    return;
  }
  const Bytes be = be_trimmed(length);
  out.push_back(static_cast<std::uint8_t>(offset + 55 + be.size()));
  append(out, be);
}

void encode_into(Bytes& out, const Item& item) {
  if (item.is_bytes()) {
    const Bytes& b = item.bytes();
    if (b.size() == 1 && b[0] < 0x80) {
      out.push_back(b[0]);
      return;
    }
    encode_length(out, b.size(), 0x80);
    append(out, b);
    return;
  }
  Bytes payload;
  for (const Item& child : item.items()) encode_into(payload, child);
  encode_length(out, payload.size(), 0xc0);
  append(out, payload);
}

struct Header {
  bool is_list = false;
  std::size_t payload_length = 0;
  std::size_t header_length = 0;
  bool single_byte = false;  // payload is the header byte itself
};

std::optional<DecodeError> parse_header(BytesView input, Header& h) {
  if (input.empty()) return DecodeError::kTruncated;
  const std::uint8_t b0 = input[0];
  if (b0 < 0x80) {
    h = {false, 1, 0, true};
    return std::nullopt;
  }
  auto parse_long_length = [&](std::size_t len_of_len,
                               std::size_t& out_len) -> std::optional<DecodeError> {
    if (input.size() < 1 + len_of_len) return DecodeError::kTruncated;
    if (input[1] == 0) return DecodeError::kNonCanonical;  // leading zero
    if (len_of_len > 8) return DecodeError::kLengthOverflow;
    std::uint64_t len = be_to_u64(input.subspan(1, len_of_len));
    if (len < 56) return DecodeError::kNonCanonical;  // should be short form
    if (len > kMaxLength) return DecodeError::kLengthOverflow;
    out_len = static_cast<std::size_t>(len);
    return std::nullopt;
  };

  if (b0 <= 0xb7) {  // short string
    h = {false, static_cast<std::size_t>(b0 - 0x80), 1, false};
    return std::nullopt;
  }
  if (b0 <= 0xbf) {  // long string
    const std::size_t len_of_len = b0 - 0xb7;
    std::size_t len = 0;
    if (auto err = parse_long_length(len_of_len, len)) return err;
    h = {false, len, 1 + len_of_len, false};
    return std::nullopt;
  }
  if (b0 <= 0xf7) {  // short list
    h = {true, static_cast<std::size_t>(b0 - 0xc0), 1, false};
    return std::nullopt;
  }
  // long list
  const std::size_t len_of_len = b0 - 0xf7;
  std::size_t len = 0;
  if (auto err = parse_long_length(len_of_len, len)) return err;
  h = {true, len, 1 + len_of_len, false};
  return std::nullopt;
}

DecodeResult decode_one(BytesView& input, std::size_t depth) {
  if (depth > kMaxDepth) return {std::nullopt, DecodeError::kTooDeep};
  Header h;
  if (auto err = parse_header(input, h)) return {std::nullopt, err};

  if (h.single_byte) {
    Item item = Item::str(input.subspan(0, 1));
    input = input.subspan(1);
    return {std::move(item), std::nullopt};
  }

  if (input.size() < h.header_length + h.payload_length)
    return {std::nullopt, DecodeError::kTruncated};

  BytesView payload = input.subspan(h.header_length, h.payload_length);

  if (!h.is_list) {
    // canonical check: single byte below 0x80 must not use string form
    if (h.payload_length == 1 && payload[0] < 0x80)
      return {std::nullopt, DecodeError::kNonCanonical};
    Item item = Item::str(payload);
    input = input.subspan(h.header_length + h.payload_length);
    return {std::move(item), std::nullopt};
  }

  std::vector<Item> children;
  BytesView cursor = payload;
  while (!cursor.empty()) {
    DecodeResult child = decode_one(cursor, depth + 1);
    if (!child.ok()) return child;
    children.push_back(std::move(*child.item));
  }
  input = input.subspan(h.header_length + h.payload_length);
  return {Item::list(std::move(children)), std::nullopt};
}

}  // namespace

std::optional<std::uint64_t> Item::as_u64() const {
  if (!is_bytes()) return std::nullopt;
  const Bytes& b = bytes();
  if (b.size() > 8) return std::nullopt;
  if (!b.empty() && b[0] == 0) return std::nullopt;  // non-canonical scalar
  return be_to_u64(b);
}

std::optional<U256> Item::as_u256() const {
  if (!is_bytes()) return std::nullopt;
  const Bytes& b = bytes();
  if (b.size() > 32) return std::nullopt;
  if (!b.empty() && b[0] == 0) return std::nullopt;
  return U256::from_be(b);
}

Bytes encode(const Item& item) {
  Bytes out;
  encode_into(out, item);
  return out;
}

Bytes encode_bytes(BytesView payload) { return encode(Item::str(payload)); }

Bytes wrap_list(BytesView encoded_payload) {
  Bytes out;
  encode_length(out, encoded_payload.size(), 0xc0);
  append(out, encoded_payload);
  return out;
}

DecodeResult decode(BytesView input) {
  BytesView cursor = input;
  DecodeResult result = decode_one(cursor, 0);
  if (!result.ok()) return result;
  if (!cursor.empty()) return {std::nullopt, DecodeError::kTrailingBytes};
  return result;
}

DecodeResult decode_prefix(BytesView& input) { return decode_one(input, 0); }

}  // namespace forksim::rlp
