#include "trie/trie.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "crypto/keccak.hpp"
#include "obs/metrics.hpp"
#include "rlp/rlp.hpp"

namespace forksim::trie {

namespace {
TrieCounters g_counters;
}  // namespace

const TrieCounters& counters() noexcept { return g_counters; }

void reset_counters() noexcept { g_counters = TrieCounters{}; }

void attach_telemetry(obs::Registry& reg) {
  // Report deltas from the attach point: the globals span the whole
  // process, but a registry should only see its own run's work (two
  // same-seed runs in one process must snapshot identically).
  const TrieCounters base = g_counters;
  reg.add_collector([base](obs::Registry& r) {
    r.counter("trie.reads").set(g_counters.reads - base.reads);
    r.counter("trie.writes").set(g_counters.writes - base.writes);
    r.counter("trie.node_visits")
        .set(g_counters.node_visits - base.node_visits);
    r.counter("trie.hash_recomputations")
        .set(g_counters.hash_recomputations - base.hash_recomputations);
  });
}

namespace {
using Nibbles = std::vector<std::uint8_t>;

std::size_t common_prefix(const Nibbles& a, std::size_t a_off,
                          const Nibbles& b, std::size_t b_off) {
  std::size_t n = 0;
  while (a_off + n < a.size() && b_off + n < b.size() &&
         a[a_off + n] == b[b_off + n])
    ++n;
  return n;
}

Nibbles slice(const Nibbles& src, std::size_t from, std::size_t count) {
  return Nibbles(src.begin() + static_cast<std::ptrdiff_t>(from),
                 src.begin() + static_cast<std::ptrdiff_t>(from + count));
}
}  // namespace

std::vector<std::uint8_t> to_nibbles(BytesView key) {
  Nibbles out;
  out.reserve(key.size() * 2);
  for (std::uint8_t b : key) {
    out.push_back(b >> 4);
    out.push_back(b & 0x0f);
  }
  return out;
}

Bytes hex_prefix(const Nibbles& nibbles, bool is_leaf) {
  Bytes out;
  const std::uint8_t flag = is_leaf ? 2 : 0;
  if (nibbles.size() % 2 == 0) {
    out.push_back(static_cast<std::uint8_t>(flag << 4));
    for (std::size_t i = 0; i < nibbles.size(); i += 2)
      out.push_back(static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
  } else {
    out.push_back(static_cast<std::uint8_t>(((flag | 1) << 4) | nibbles[0]));
    for (std::size_t i = 1; i < nibbles.size(); i += 2)
      out.push_back(static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
  }
  return out;
}

std::optional<std::pair<Nibbles, bool>> decode_hex_prefix(BytesView encoded) {
  if (encoded.empty()) return std::nullopt;
  const std::uint8_t flags = encoded[0] >> 4;
  if (flags > 3) return std::nullopt;
  const bool is_leaf = (flags & 2) != 0;
  const bool odd = (flags & 1) != 0;
  Nibbles nibbles;
  if (odd) nibbles.push_back(encoded[0] & 0x0f);
  else if ((encoded[0] & 0x0f) != 0) return std::nullopt;
  for (std::size_t i = 1; i < encoded.size(); ++i) {
    nibbles.push_back(encoded[i] >> 4);
    nibbles.push_back(encoded[i] & 0x0f);
  }
  return std::make_pair(std::move(nibbles), is_leaf);
}

struct Trie::Node {
  enum class Kind { kLeaf, kExtension, kBranch };

  Kind kind;
  Nibbles path;                                    // leaf / extension
  Bytes value;                                     // leaf / branch value
  bool has_value = false;                          // branch only
  std::unique_ptr<Node> child;                     // extension only
  std::array<std::unique_ptr<Node>, 16> children;  // branch only

  // Memoized commitment state: the node's RLP encoding (empty = stale) and,
  // for nodes referenced by hash, the keccak of that encoding. Mutations
  // invalidate these along the touched path only; subtrees that did not
  // change keep their caches, which is what makes re-hashing incremental.
  mutable Bytes enc_cache;
  mutable Hash256 hash_cache;
  mutable bool hash_valid = false;

  void invalidate() noexcept {
    enc_cache.clear();
    hash_valid = false;
  }

  static std::unique_ptr<Node> leaf(Nibbles p, Bytes v) {
    auto n = std::make_unique<Node>();
    n->kind = Kind::kLeaf;
    n->path = std::move(p);
    n->value = std::move(v);
    return n;
  }
  static std::unique_ptr<Node> extension(Nibbles p, std::unique_ptr<Node> c) {
    auto n = std::make_unique<Node>();
    n->kind = Kind::kExtension;
    n->path = std::move(p);
    n->child = std::move(c);
    return n;
  }
  static std::unique_ptr<Node> branch() {
    auto n = std::make_unique<Node>();
    n->kind = Kind::kBranch;
    return n;
  }
};

Trie::Trie() = default;
Trie::~Trie() = default;
Trie::Trie(Trie&&) noexcept = default;
Trie& Trie::operator=(Trie&&) noexcept = default;

namespace {

using Node = Trie::Node;

}  // namespace

// ---------------------------------------------------------------------------
// Lookup

namespace {
const Node* find(const Node* node, const Nibbles& key, std::size_t depth) {
  while (node != nullptr) {
    ++g_counters.node_visits;
    switch (node->kind) {
      case Node::Kind::kLeaf: {
        if (key.size() - depth == node->path.size() &&
            std::equal(node->path.begin(), node->path.end(),
                       key.begin() + static_cast<std::ptrdiff_t>(depth)))
          return node;
        return nullptr;
      }
      case Node::Kind::kExtension: {
        if (key.size() - depth < node->path.size()) return nullptr;
        if (!std::equal(node->path.begin(), node->path.end(),
                        key.begin() + static_cast<std::ptrdiff_t>(depth)))
          return nullptr;
        depth += node->path.size();
        node = node->child.get();
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == key.size()) return node->has_value ? node : nullptr;
        const std::uint8_t nib = key[depth];
        node = node->children[nib].get();
        ++depth;
        break;
      }
    }
  }
  return nullptr;
}
}  // namespace

std::optional<Bytes> Trie::get(BytesView key) const {
  ++g_counters.reads;
  const Nibbles nk = to_nibbles(key);
  const Node* n = find(root_.get(), nk, 0);
  if (n == nullptr) return std::nullopt;
  return n->value;
}

// ---------------------------------------------------------------------------
// Insert

namespace {
std::unique_ptr<Node> insert(std::unique_ptr<Node> node, const Nibbles& key,
                             std::size_t depth, Bytes value) {
  if (!node) return Node::leaf(slice(key, depth, key.size() - depth),
                               std::move(value));

  // every node on the insertion path changes its encoding; subtrees the key
  // does not descend into keep their memoized commitments
  node->invalidate();

  switch (node->kind) {
    case Node::Kind::kLeaf: {
      const std::size_t cp = common_prefix(key, depth, node->path, 0);
      const std::size_t rest_key = key.size() - depth - cp;
      const std::size_t rest_node = node->path.size() - cp;
      if (rest_key == 0 && rest_node == 0) {
        node->value = std::move(value);
        return node;
      }
      // split into a branch under a possible shared-prefix extension
      auto branch = Node::branch();
      if (rest_node == 0) {
        branch->has_value = true;
        branch->value = std::move(node->value);
      } else {
        const std::uint8_t nib = node->path[cp];
        branch->children[nib] =
            Node::leaf(slice(node->path, cp + 1, rest_node - 1),
                       std::move(node->value));
      }
      if (rest_key == 0) {
        branch->has_value = true;
        branch->value = std::move(value);
      } else {
        const std::uint8_t nib = key[depth + cp];
        branch->children[nib] =
            Node::leaf(slice(key, depth + cp + 1, rest_key - 1),
                       std::move(value));
      }
      if (cp == 0) return branch;
      return Node::extension(slice(node->path, 0, cp), std::move(branch));
    }

    case Node::Kind::kExtension: {
      const std::size_t cp = common_prefix(key, depth, node->path, 0);
      if (cp == node->path.size()) {
        node->child =
            insert(std::move(node->child), key, depth + cp, std::move(value));
        return node;
      }
      // key diverges inside the extension path
      auto branch = Node::branch();
      // remainder of the extension path (after cp and the branching nibble)
      {
        const std::uint8_t nib = node->path[cp];
        Nibbles tail = slice(node->path, cp + 1, node->path.size() - cp - 1);
        if (tail.empty())
          branch->children[nib] = std::move(node->child);
        else
          branch->children[nib] =
              Node::extension(std::move(tail), std::move(node->child));
      }
      if (depth + cp == key.size()) {
        branch->has_value = true;
        branch->value = std::move(value);
      } else {
        const std::uint8_t nib = key[depth + cp];
        branch->children[nib] =
            Node::leaf(slice(key, depth + cp + 1, key.size() - depth - cp - 1),
                       std::move(value));
      }
      if (cp == 0) return branch;
      return Node::extension(slice(node->path, 0, cp), std::move(branch));
    }

    case Node::Kind::kBranch: {
      if (depth == key.size()) {
        node->has_value = true;
        node->value = std::move(value);
        return node;
      }
      const std::uint8_t nib = key[depth];
      node->children[nib] = insert(std::move(node->children[nib]), key,
                                   depth + 1, std::move(value));
      return node;
    }
  }
  return node;  // unreachable
}
}  // namespace

void Trie::put(BytesView key, BytesView value) {
  if (value.empty()) {
    erase(key);
    return;
  }
  ++g_counters.writes;
  const Nibbles nk = to_nibbles(key);
  const bool existed = find(root_.get(), nk, 0) != nullptr;
  root_ = insert(std::move(root_), nk, 0, Bytes(value.begin(), value.end()));
  if (!existed) ++size_;
}

// ---------------------------------------------------------------------------
// Erase

namespace {

/// Re-normalize a branch that may have become degenerate (fewer than two
/// referents). Returns the replacement node.
std::unique_ptr<Node> collapse_branch(std::unique_ptr<Node> branch) {
  int child_count = 0;
  int only_index = -1;
  for (int i = 0; i < 16; ++i) {
    if (branch->children[static_cast<std::size_t>(i)]) {
      ++child_count;
      only_index = i;
    }
  }
  const int referents = child_count + (branch->has_value ? 1 : 0);
  if (referents >= 2) return branch;
  if (referents == 0) return nullptr;

  if (branch->has_value) {
    // value only: becomes a leaf with empty path
    return Node::leaf({}, std::move(branch->value));
  }

  // single child: merge the branching nibble into it
  auto child = std::move(branch->children[static_cast<std::size_t>(only_index)]);
  const auto nib = static_cast<std::uint8_t>(only_index);
  switch (child->kind) {
    case Node::Kind::kLeaf:
    case Node::Kind::kExtension: {
      Nibbles merged;
      merged.push_back(nib);
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      child->path = std::move(merged);
      child->invalidate();  // path changed => encoding changed
      return child;
    }
    case Node::Kind::kBranch: {
      return Node::extension({nib}, std::move(child));
    }
  }
  return child;  // unreachable
}

/// Merge an extension with its child where possible.
std::unique_ptr<Node> collapse_extension(std::unique_ptr<Node> ext) {
  if (!ext->child) return nullptr;
  switch (ext->child->kind) {
    case Node::Kind::kLeaf:
    case Node::Kind::kExtension: {
      auto child = std::move(ext->child);
      Nibbles merged = std::move(ext->path);
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      child->path = std::move(merged);
      child->invalidate();  // path changed => encoding changed
      return child;
    }
    case Node::Kind::kBranch:
      return ext;
  }
  return ext;  // unreachable
}

std::unique_ptr<Node> remove(std::unique_ptr<Node> node, const Nibbles& key,
                             std::size_t depth, bool& removed) {
  if (!node) return nullptr;
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      if (key.size() - depth == node->path.size() &&
          std::equal(node->path.begin(), node->path.end(),
                     key.begin() + static_cast<std::ptrdiff_t>(depth))) {
        removed = true;
        return nullptr;
      }
      return node;
    }
    case Node::Kind::kExtension: {
      if (key.size() - depth < node->path.size() ||
          !std::equal(node->path.begin(), node->path.end(),
                      key.begin() + static_cast<std::ptrdiff_t>(depth)))
        return node;
      node->child = remove(std::move(node->child), key,
                           depth + node->path.size(), removed);
      if (!removed) return node;
      node->invalidate();
      return collapse_extension(std::move(node));
    }
    case Node::Kind::kBranch: {
      if (depth == key.size()) {
        if (!node->has_value) return node;
        node->has_value = false;
        node->value.clear();
        removed = true;
        node->invalidate();
        return collapse_branch(std::move(node));
      }
      const std::uint8_t nib = key[depth];
      if (!node->children[nib]) return node;
      node->children[nib] =
          remove(std::move(node->children[nib]), key, depth + 1, removed);
      if (!removed) return node;
      node->invalidate();
      return collapse_branch(std::move(node));
    }
  }
  return node;  // unreachable
}
}  // namespace

bool Trie::erase(BytesView key) {
  ++g_counters.writes;
  const Nibbles nk = to_nibbles(key);
  bool removed = false;
  root_ = remove(std::move(root_), nk, 0, removed);
  if (removed) --size_;
  return removed;
}

// ---------------------------------------------------------------------------
// Hashing

namespace {

rlp::Item encode_item(const Node& node);

/// The node's RLP encoding, memoized until the next mutation on its path.
const Bytes& node_encoding(const Node& node) {
  if (node.enc_cache.empty())
    node.enc_cache = rlp::encode(encode_item(node));
  return node.enc_cache;
}

/// Spec rule: a child node whose RLP encoding is shorter than 32 bytes is
/// embedded directly; otherwise it is referenced by its keccak hash. The
/// hash is memoized alongside the encoding, so an unchanged subtree costs
/// zero keccak permutations per root_hash().
rlp::Item node_ref(const Node* node) {
  if (node == nullptr) return rlp::Item::str(BytesView{});
  const Bytes& encoded = node_encoding(*node);
  if (encoded.size() < 32) return encode_item(*node);  // embedded, tiny
  if (!node->hash_valid) {
    ++g_counters.hash_recomputations;
    node->hash_cache = keccak256(encoded);
    node->hash_valid = true;
  }
  return rlp::Item::str(node->hash_cache.view());
}

rlp::Item encode_item(const Node& node) {
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      return rlp::Item::list({rlp::Item(hex_prefix(node.path, true)),
                              rlp::Item(node.value)});
    }
    case Node::Kind::kExtension: {
      return rlp::Item::list({rlp::Item(hex_prefix(node.path, false)),
                              node_ref(node.child.get())});
    }
    case Node::Kind::kBranch: {
      std::vector<rlp::Item> fields;
      fields.reserve(17);
      for (const auto& child : node.children)
        fields.push_back(node_ref(child.get()));
      fields.push_back(node.has_value ? rlp::Item(node.value)
                                      : rlp::Item::str(BytesView{}));
      return rlp::Item::list(std::move(fields));
    }
  }
  return rlp::Item();  // unreachable
}
}  // namespace

Hash256 empty_trie_root() {
  static const Hash256 kRoot = keccak256(rlp::encode_bytes(BytesView{}));
  return kRoot;
}

Hash256 Trie::root_hash() const {
  if (!root_) return empty_trie_root();
  const Bytes& encoded = node_encoding(*root_);
  // the root is always referenced by hash, even when its encoding is short
  if (!root_->hash_valid) {
    ++g_counters.hash_recomputations;
    root_->hash_cache = keccak256(encoded);
    root_->hash_valid = true;
  }
  return root_->hash_cache;
}

// ---------------------------------------------------------------------------
// Proofs

std::vector<Bytes> Trie::prove(BytesView key) const {
  std::vector<Bytes> proof;
  const Nibbles nk = to_nibbles(key);
  const Node* node = root_.get();
  std::size_t depth = 0;
  bool at_hashed_boundary = true;  // root is always included
  while (node != nullptr) {
    const Bytes& encoded = node_encoding(*node);
    if (at_hashed_boundary) proof.push_back(encoded);
    at_hashed_boundary = encoded.size() >= 32;
    // embedded (short) nodes ride inside their parent's encoding; only
    // nodes referenced by hash appear as separate proof elements — but the
    // *next* hashed node must be appended, so track the boundary flag.
    switch (node->kind) {
      case Node::Kind::kLeaf:
        return proof;
      case Node::Kind::kExtension: {
        if (nk.size() - depth < node->path.size() ||
            !std::equal(node->path.begin(), node->path.end(),
                        nk.begin() + static_cast<std::ptrdiff_t>(depth)))
          return proof;
        depth += node->path.size();
        node = node->child.get();
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nk.size()) return proof;
        node = node->children[nk[depth]].get();
        ++depth;
        break;
      }
    }
  }
  return proof;
}

std::optional<Bytes> Trie::verify_proof(const Hash256& root, BytesView key,
                                        const std::vector<Bytes>& proof) {
  if (proof.empty()) return std::nullopt;

  // index proof elements by their hash
  std::vector<std::pair<Hash256, const Bytes*>> by_hash;
  by_hash.reserve(proof.size());
  for (const Bytes& p : proof) by_hash.emplace_back(keccak256(p), &p);

  auto lookup = [&](const Hash256& h) -> const Bytes* {
    for (const auto& [hash, ptr] : by_hash)
      if (hash == h) return ptr;
    return nullptr;
  };

  const Nibbles nk = to_nibbles(key);
  std::size_t depth = 0;

  const Bytes* root_bytes = lookup(root);
  if (root_bytes == nullptr) return std::nullopt;
  auto decoded = rlp::decode(*root_bytes);
  if (!decoded.ok()) return std::nullopt;
  rlp::Item current = std::move(*decoded.item);

  for (;;) {
    if (!current.is_list()) return std::nullopt;
    const auto& fields = current.items();

    if (fields.size() == 2) {  // leaf or extension
      if (!fields[0].is_bytes()) return std::nullopt;
      auto hp = decode_hex_prefix(fields[0].bytes());
      if (!hp) return std::nullopt;
      const auto& [path, is_leaf] = *hp;
      if (is_leaf) {
        if (nk.size() - depth != path.size() ||
            !std::equal(path.begin(), path.end(),
                        nk.begin() + static_cast<std::ptrdiff_t>(depth)))
          return std::nullopt;
        if (!fields[1].is_bytes()) return std::nullopt;
        return fields[1].bytes();
      }
      if (nk.size() - depth < path.size() ||
          !std::equal(path.begin(), path.end(),
                      nk.begin() + static_cast<std::ptrdiff_t>(depth)))
        return std::nullopt;
      depth += path.size();
      // resolve the child reference
      const rlp::Item& ref = fields[1];
      if (ref.is_list()) {
        rlp::Item embedded = ref;  // copy before overwriting `current`
        current = std::move(embedded);
        continue;
      }
      if (ref.bytes().size() != 32) return std::nullopt;
      const Bytes* next = lookup(Hash256::left_padded(ref.bytes()));
      if (next == nullptr) return std::nullopt;
      auto dec = rlp::decode(*next);
      if (!dec.ok()) return std::nullopt;
      current = std::move(*dec.item);
      continue;
    }

    if (fields.size() == 17) {  // branch
      if (depth == nk.size()) {
        if (!fields[16].is_bytes() || fields[16].bytes().empty())
          return std::nullopt;
        return fields[16].bytes();
      }
      const rlp::Item& ref = fields[nk[depth]];
      ++depth;
      if (ref.is_list()) {
        rlp::Item embedded = ref;  // copy before overwriting `current`
        current = std::move(embedded);
        continue;
      }
      if (ref.bytes().empty()) return std::nullopt;  // absent child
      if (ref.bytes().size() != 32) return std::nullopt;
      const Bytes* next = lookup(Hash256::left_padded(ref.bytes()));
      if (next == nullptr) return std::nullopt;
      auto dec = rlp::decode(*next);
      if (!dec.ok()) return std::nullopt;
      current = std::move(*dec.item);
      continue;
    }

    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Enumeration

namespace {
void walk(const Node* node, Nibbles& prefix,
          std::vector<std::pair<Bytes, Bytes>>& out) {
  if (node == nullptr) return;
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      Nibbles full = prefix;
      full.insert(full.end(), node->path.begin(), node->path.end());
      Bytes key;
      for (std::size_t i = 0; i + 1 < full.size(); i += 2)
        key.push_back(static_cast<std::uint8_t>((full[i] << 4) | full[i + 1]));
      out.emplace_back(std::move(key), node->value);
      return;
    }
    case Node::Kind::kExtension: {
      const std::size_t n = node->path.size();
      prefix.insert(prefix.end(), node->path.begin(), node->path.end());
      walk(node->child.get(), prefix, out);
      prefix.resize(prefix.size() - n);
      return;
    }
    case Node::Kind::kBranch: {
      if (node->has_value) {
        Bytes key;
        for (std::size_t i = 0; i + 1 < prefix.size(); i += 2)
          key.push_back(
              static_cast<std::uint8_t>((prefix[i] << 4) | prefix[i + 1]));
        out.emplace_back(std::move(key), node->value);
      }
      for (std::uint8_t i = 0; i < 16; ++i) {
        if (!node->children[i]) continue;
        prefix.push_back(i);
        walk(node->children[i].get(), prefix, out);
        prefix.pop_back();
      }
      return;
    }
  }
}
}  // namespace

std::vector<std::pair<Bytes, Bytes>> Trie::entries() const {
  std::vector<std::pair<Bytes, Bytes>> out;
  Nibbles prefix;
  walk(root_.get(), prefix, out);
  std::sort(out.begin(), out.end());
  return out;
}

Hash256 ordered_trie_root(const std::vector<Bytes>& values) {
  Trie t;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Bytes key = rlp::encode(rlp::Item::u64(i));
    t.put(key, values[i]);
  }
  return t.root_hash();
}

}  // namespace forksim::trie
