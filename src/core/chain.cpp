#include "core/chain.hpp"

#include <algorithm>

#include "core/headerchain.hpp"

namespace forksim::core {

std::string to_string(ImportResult r) {
  switch (r) {
    case ImportResult::kImported: return "imported";
    case ImportResult::kAlreadyKnown: return "already known";
    case ImportResult::kUnknownParent: return "unknown parent";
    case ImportResult::kInvalidHeader: return "invalid header";
    case ImportResult::kInvalidBody: return "invalid body";
    case ImportResult::kInvalidOmmers: return "invalid ommers";
    case ImportResult::kWrongFork: return "wrong fork";
    case ImportResult::kDisputed: return "disputed";
  }
  return "unknown";
}

Blockchain::Blockchain(ChainConfig config, Executor& executor,
                       const GenesisAlloc& alloc, Gas genesis_gas_limit,
                       U256 genesis_difficulty)
    : config_(std::move(config)), executor_(executor) {
  State genesis_state;
  for (const auto& [addr, balance] : alloc)
    genesis_state.add_balance(addr, balance);

  Block genesis = make_genesis(
      genesis_gas_limit == 0 ? config_.genesis_gas_limit : genesis_gas_limit,
      genesis_difficulty);
  genesis.header.state_root = genesis_state.root();

  const Hash256 h = header_hash(genesis.header);
  Record rec;
  rec.block = genesis;
  rec.total_difficulty = genesis.header.difficulty;
  rec.post_state = std::make_shared<const State>(std::move(genesis_state));
  records_.emplace(h, std::move(rec));
  canonical_[0] = h;
  head_hash_ = h;
}

void Blockchain::reset_to_genesis() {
  // The genesis record — including the post-alloc state — seeds the
  // fresh map.
  const Hash256 genesis_hash = canonical_.at(0);
  Record genesis = std::move(records_.at(genesis_hash));
  records_.clear();
  canonical_.clear();
  records_.emplace(genesis_hash, std::move(genesis));
  canonical_[0] = genesis_hash;
  head_hash_ = genesis_hash;
}

const Blockchain::Record* Blockchain::record(const Hash256& hash) const {
  auto it = records_.find(hash);
  return it == records_.end() ? nullptr : &it->second;
}

const Block& Blockchain::head() const { return record(head_hash_)->block; }

BlockNumber Blockchain::height() const noexcept {
  return records_.at(head_hash_).block.header.number;
}

U256 Blockchain::head_total_difficulty() const {
  return record(head_hash_)->total_difficulty;
}

U256 Blockchain::total_difficulty_of(const Hash256& hash) const {
  const Record* r = record(hash);
  return r ? r->total_difficulty : U256(0);
}

bool Blockchain::contains(const Hash256& hash) const {
  return records_.contains(hash);
}

const Block* Blockchain::block_by_hash(const Hash256& hash) const {
  const Record* r = record(hash);
  return r ? &r->block : nullptr;
}

const Block* Blockchain::block_by_number(BlockNumber n) const {
  auto it = canonical_.find(n);
  if (it == canonical_.end()) return nullptr;
  return block_by_hash(it->second);
}

const State& Blockchain::head_state() const {
  return *record(head_hash_)->post_state;
}

const std::vector<Receipt>* Blockchain::receipts_of(const Hash256& hash) const {
  const Record* r = record(hash);
  return r ? &r->receipts : nullptr;
}

std::optional<Hash256> Blockchain::canonical_hash(BlockNumber n) const {
  auto it = canonical_.find(n);
  if (it == canonical_.end()) return std::nullopt;
  return it->second;
}

bool Blockchain::is_canonical(const Hash256& hash) const {
  const Record* r = record(hash);
  if (r == nullptr) return false;
  auto it = canonical_.find(r->block.header.number);
  return it != canonical_.end() && it->second == hash;
}

void Blockchain::set_dao_accounts(std::vector<Address> accounts,
                                  Address refund) {
  dao_accounts_ = std::move(accounts);
  dao_refund_ = refund;
}

ImportResult Blockchain::validate_header(const BlockHeader& header,
                                         const Record& parent) const {
  // Consensus rules are shared with the light HeaderChain: difficulty,
  // monotonic timestamps, gas-limit bounds, and the DAO partition rule (at
  // the fork block a supporting chain requires the fork marker, a rejecting
  // chain refuses it — what makes the two networks mutually reject each
  // other's history from the fork on).
  switch (validate_child_header(config_, parent.block.header, header)) {
    case HeaderImportResult::kImported: return ImportResult::kImported;
    case HeaderImportResult::kWrongFork: return ImportResult::kWrongFork;
    default: return ImportResult::kInvalidHeader;
  }
}

namespace {

/// Ommer reward per the (pre-Byzantium) schedule: (number + 8 - height)/8
/// of the block reward; the including miner earns 1/32 per ommer.
Wei ommer_reward(const Wei& block_reward, BlockNumber ommer_number,
                 BlockNumber block_number) {
  const std::uint64_t num = ommer_number + 8 - block_number;
  return block_reward * U256(num) / U256(8);
}

}  // namespace

ImportResult Blockchain::validate_ommers(const Block& block) const {
  if (!block.ommers_hash_matches()) return ImportResult::kInvalidOmmers;
  if (block.ommers.size() > kMaxOmmers) return ImportResult::kInvalidOmmers;
  if (block.ommers.empty()) return ImportResult::kImported;

  // gather the ancestry window: ancestor hashes and every ommer hash they
  // already included
  std::unordered_map<Hash256, const Record*, Hash256Hasher> ancestors;
  std::unordered_map<Hash256, bool, Hash256Hasher> used_ommers;
  Hash256 cursor = block.header.parent_hash;
  for (BlockNumber depth = 0; depth <= kOmmerWindow; ++depth) {
    const Record* r = record(cursor);
    if (r == nullptr) break;
    ancestors.emplace(cursor, r);
    for (const BlockHeader& o : r->block.ommers)
      used_ommers.emplace(header_hash(o), true);
    if (r->block.header.number == 0) break;
    cursor = r->block.header.parent_hash;
  }

  std::unordered_map<Hash256, bool, Hash256Hasher> seen_in_block;
  for (const BlockHeader& ommer : block.ommers) {
    const Hash256 ommer_hash = header_hash(ommer);
    // kinship window
    if (ommer.number + kOmmerWindow < block.header.number ||
        ommer.number >= block.header.number)
      return ImportResult::kInvalidOmmers;
    // an ommer is a *stale* relative: child of an ancestor, but not an
    // ancestor itself, and not already rewarded
    if (!ancestors.contains(ommer.parent_hash))
      return ImportResult::kInvalidOmmers;
    if (ancestors.contains(ommer_hash)) return ImportResult::kInvalidOmmers;
    if (used_ommers.contains(ommer_hash)) return ImportResult::kInvalidOmmers;
    if (seen_in_block.contains(ommer_hash))
      return ImportResult::kInvalidOmmers;
    seen_in_block.emplace(ommer_hash, true);
    // the ommer header must be internally valid relative to its parent
    const Record* ommer_parent = ancestors.at(ommer.parent_hash);
    if (validate_header(ommer, *ommer_parent) != ImportResult::kImported)
      return ImportResult::kInvalidOmmers;
  }
  return ImportResult::kImported;
}

std::optional<std::pair<State, std::vector<Receipt>>> Blockchain::execute_body(
    const Block& block, const State& pre) const {
  if (!block.transactions_root_matches()) return std::nullopt;

  State state = pre;

  // the DAO irregular state change applies *before* the fork block's txs
  if (config_.dao_fork_support && config_.dao_fork_block &&
      block.header.number == *config_.dao_fork_block)
    apply_dao_refund(state, dao_accounts_, dao_refund_);

  std::vector<Receipt> receipts;
  Gas gas_used = 0;
  const BlockContext ctx{block.header.coinbase, block.header.number,
                         block.header.timestamp, block.header.gas_limit,
                         block.header.difficulty};
  for (const Transaction& tx : block.transactions) {
    ExecutionResult result = executor_.execute(
        state, tx, ctx, config_, block.header.gas_limit - gas_used);
    if (!result.accepted()) return std::nullopt;  // blocks carry no bad txs
    gas_used += result.receipt->gas_used;
    result.receipt->cumulative_gas_used = gas_used;
    receipts.push_back(std::move(*result.receipt));
  }

  // block reward + 1/32 per included ommer; each ommer's miner gets the
  // depth-scaled partial reward
  const Wei base_reward = config_.block_reward();
  state.add_balance(block.header.coinbase,
                    base_reward + base_reward * U256(block.ommers.size()) /
                                      U256(32));
  for (const BlockHeader& ommer : block.ommers)
    state.add_balance(ommer.coinbase,
                      ommer_reward(base_reward, ommer.number,
                                   block.header.number));

  if (gas_used != block.header.gas_used) return std::nullopt;
  if (receipts_root(receipts) != block.header.receipts_root)
    return std::nullopt;
  if (state.root() != block.header.state_root) return std::nullopt;
  return std::make_pair(std::move(state), std::move(receipts));
}

namespace {

/// Metric-name slug per import outcome (to_string() is for humans).
const char* result_slug(ImportResult r) {
  switch (r) {
    case ImportResult::kImported: return "imported";
    case ImportResult::kAlreadyKnown: return "already_known";
    case ImportResult::kUnknownParent: return "unknown_parent";
    case ImportResult::kInvalidHeader: return "invalid_header";
    case ImportResult::kInvalidBody: return "invalid_body";
    case ImportResult::kInvalidOmmers: return "invalid_ommers";
    case ImportResult::kWrongFork: return "wrong_fork";
    case ImportResult::kDisputed: return "disputed";
  }
  return "unknown";
}

}  // namespace

void Blockchain::attach_telemetry(obs::Registry& reg) {
  for (std::size_t i = 0; i < tm_results_.size(); ++i) {
    const auto r = static_cast<ImportResult>(i);
    tm_results_[i] =
        &reg.counter(std::string("chain.import.") + result_slug(r));
  }
  // chain.import.disputed stays lazily registered (first dispute creates
  // it): attaching must not change the metric set — and so the registry
  // fingerprint — of runs without a validation overlay.
  tm_reg_ = &reg;
  tm_reorg_ = &reg.histogram("chain.reorg_depth",
                             obs::Histogram::linear_bounds(1.0, 1.0, 16));
  tm_produced_ = &reg.counter("chain.blocks_produced");
}

ImportOutcome Blockchain::import(const Block& block) {
  const ImportOutcome outcome = import_impl(block);
  if (outcome.result == ImportResult::kDisputed) {
    if (tm_disputed_ == nullptr && tm_reg_ != nullptr)
      tm_disputed_ = &tm_reg_->counter("chain.import.disputed");
    obs::inc(tm_disputed_);
  } else {
    obs::inc(tm_results_[static_cast<std::size_t>(outcome.result)]);
  }
  if (outcome.reorg_depth > 0)
    obs::observe(tm_reorg_, static_cast<double>(outcome.reorg_depth));
  return outcome;
}

ImportOutcome Blockchain::import_impl(const Block& block) {
  const Hash256 hash = header_hash(block.header);
  if (records_.contains(hash)) return {ImportResult::kAlreadyKnown};

  const Record* parent = record(block.header.parent_hash);
  if (parent == nullptr) return {ImportResult::kUnknownParent};

  ImportResult header_check = validate_header(block.header, *parent);
  // The validation overlay (when installed) reviews every built-in verdict;
  // a quirk inside its bug window overturns kImported into kDisputed here.
  if (rules_ != nullptr)
    header_check = rules_->review_header(block.header, hash, header_check);
  if (header_check != ImportResult::kImported) return {header_check};

  const ImportResult ommer_check = validate_ommers(block);
  if (ommer_check != ImportResult::kImported) return {ommer_check};

  auto executed = execute_body(block, *parent->post_state);
  if (!executed) return {ImportResult::kInvalidBody};

  Record rec;
  rec.block = block;
  rec.total_difficulty = parent->total_difficulty + block.header.difficulty;
  rec.post_state =
      std::make_shared<const State>(std::move(executed->first));
  rec.receipts = std::move(executed->second);
  const U256 new_td = rec.total_difficulty;
  records_.emplace(hash, std::move(rec));

  ImportOutcome outcome{ImportResult::kImported};
  if (new_td > head_total_difficulty()) update_canonical(hash, outcome);
  return outcome;
}

void Blockchain::update_canonical(const Hash256& new_head,
                                  ImportOutcome& outcome) {
  // walk back from the new head until we meet the existing canonical chain
  std::vector<Hash256> branch;
  Hash256 cursor = new_head;
  while (!is_canonical(cursor)) {
    branch.push_back(cursor);
    cursor = record(cursor)->block.header.parent_hash;
  }
  const BlockNumber fork_point = record(cursor)->block.header.number;
  const BlockNumber old_height = records_.at(head_hash_).block.header.number;
  outcome.reorg_depth =
      old_height > fork_point ? static_cast<std::size_t>(old_height - fork_point)
                              : 0;

  // drop canonical entries above the fork point, then graft the new branch
  canonical_.erase(canonical_.upper_bound(fork_point), canonical_.end());
  for (auto it = branch.rbegin(); it != branch.rend(); ++it)
    canonical_[record(*it)->block.header.number] = *it;
  head_hash_ = new_head;
  outcome.became_head = true;
}

std::vector<BlockHeader> Blockchain::collect_ommers() const {
  // ancestry window of the block under construction (child of head)
  std::unordered_map<Hash256, bool, Hash256Hasher> ancestors;
  std::unordered_map<Hash256, bool, Hash256Hasher> used;
  Hash256 cursor = head_hash_;
  for (BlockNumber depth = 0; depth <= kOmmerWindow; ++depth) {
    const Record* r = record(cursor);
    if (r == nullptr) break;
    ancestors.emplace(cursor, true);
    for (const BlockHeader& o : r->block.ommers)
      used.emplace(header_hash(o), true);
    if (r->block.header.number == 0) break;
    cursor = r->block.header.parent_hash;
  }

  const BlockNumber child_number = height() + 1;
  std::vector<BlockHeader> out;
  for (const auto& [hash, rec] : records_) {
    if (out.size() >= kMaxOmmers) break;
    const BlockHeader& h = rec.block.header;
    if (h.number + kOmmerWindow < child_number || h.number >= child_number)
      continue;
    if (ancestors.contains(hash) || used.contains(hash)) continue;
    if (!ancestors.contains(h.parent_hash)) continue;
    out.push_back(h);
  }
  return out;
}

std::size_t Blockchain::stale_block_count() const {
  std::size_t stale = 0;
  for (const auto& [hash, rec] : records_)
    if (!is_canonical(hash)) ++stale;
  return stale;
}

U256 Blockchain::next_block_difficulty(Timestamp timestamp) const {
  const BlockHeader& h = head().header;
  return next_difficulty(config_, h.number + 1, timestamp, h.difficulty,
                         h.timestamp);
}

Block Blockchain::produce_block(const Address& coinbase, Timestamp timestamp,
                                const std::vector<Transaction>& candidate_txs,
                                std::uint64_t pow_nonce) {
  const Record& parent = records_.at(head_hash_);
  const BlockHeader& ph = parent.block.header;

  Block block;
  BlockHeader& h = block.header;
  h.parent_hash = head_hash_;
  h.coinbase = coinbase;
  h.number = ph.number + 1;
  h.timestamp = std::max(timestamp, ph.timestamp + 1);
  h.difficulty =
      next_difficulty(config_, h.number, h.timestamp, ph.difficulty,
                      ph.timestamp);
  h.gas_limit = ph.gas_limit;  // keep the limit steady
  h.nonce = pow_nonce;
  block.ommers = collect_ommers();
  h.ommers_hash = block.compute_ommers_hash();
  if (config_.dao_fork_support && config_.dao_fork_block &&
      h.number == *config_.dao_fork_block)
    h.extra_data = dao_fork_extra_data();

  State state = *parent.post_state;
  if (config_.dao_fork_support && config_.dao_fork_block &&
      h.number == *config_.dao_fork_block)
    apply_dao_refund(state, dao_accounts_, dao_refund_);

  std::vector<Receipt> receipts;
  Gas gas_used = 0;
  const BlockContext ctx{coinbase, h.number, h.timestamp, h.gas_limit,
                         h.difficulty};
  for (const Transaction& tx : candidate_txs) {
    ExecutionResult result =
        executor_.execute(state, tx, ctx, config_, h.gas_limit - gas_used);
    if (!result.accepted()) continue;  // miner skips unincludable txs
    gas_used += result.receipt->gas_used;
    result.receipt->cumulative_gas_used = gas_used;
    receipts.push_back(std::move(*result.receipt));
    block.transactions.push_back(tx);
  }

  const Wei base_reward = config_.block_reward();
  state.add_balance(coinbase, base_reward + base_reward *
                                                U256(block.ommers.size()) /
                                                U256(32));
  for (const BlockHeader& ommer : block.ommers)
    state.add_balance(ommer.coinbase,
                      ommer_reward(base_reward, ommer.number, h.number));

  h.gas_used = gas_used;
  h.transactions_root = block.compute_transactions_root();
  h.receipts_root = receipts_root(receipts);
  h.state_root = state.root();
  obs::inc(tm_produced_);
  return block;
}

}  // namespace forksim::core
