#include "metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s", "lower"},
      {"wall_s", "s", "lower"},
      {"events_per_s", "1/s", "higher"},
      {"imports_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"checks_passed_frac", "frac", "higher"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      // p2p/scheduler
      {"p2p.scheduler.pushes", "count", "lower"},
      {"p2p.scheduler.pops", "count", "lower"},
      {"p2p.scheduler.cancels", "count", "lower"},
      {"p2p.scheduler.sift_steps", "count", "lower"},
      {"p2p.scheduler.sift_per_pop", "ratio", "lower"},
      {"p2p.scheduler.max_size", "count", "lower"},
      {"p2p.scheduler.pops_per_import", "ratio", "lower"},
      // p2p/simnet + sim/node gossip and sync
      {"p2p.simnet.messages_sent", "count", "lower"},
      {"p2p.simnet.messages_delivered", "count", "lower"},
      {"p2p.simnet.bytes_sent", "B", "lower"},
      {"p2p.simnet.bytes_per_import", "B", "lower"},
      {"sim.node.dup_block_pushes", "count", "lower"},
      {"sim.node.txs_received", "count", "lower"},
      {"sim.node.sync_timeouts", "count", "lower"},
      {"sim.node.sync_retries", "count", "lower"},
      {"sim.node.honest_bans", "count", "lower"},
      // core/chain
      {"core.chain.import_attempts", "count", "lower"},
      {"core.chain.imported", "count", "higher"},
      {"core.chain.useful_import_ratio", "ratio", "higher"},
      {"core.chain.reorgs", "count", "lower"},
      {"core.chain.reorg_depth_sum", "count", "lower"},
      {"core.chain.header_cache_hit_ratio", "ratio", "higher"},
      {"core.chain.import_self_s", "s", "lower"},
      {"core.chain.import_us_p50", "us", "lower"},
      {"core.chain.import_us_p99", "us", "lower"},
      // core/state + trie
      {"core.state.root_commits_full", "count", "lower"},
      {"core.state.root_commits_incremental", "count", "higher"},
      {"core.state.journal_entries", "count", "lower"},
      {"trie.hash_recomputations", "count", "lower"},
      {"trie.hashes_per_import", "ratio", "lower"},
      {"trie.node_visits", "count", "lower"},
      {"trie.writes", "count", "lower"},
      // evm
      {"evm.txs", "count", "lower"},
      {"evm.ops", "count", "lower"},
      {"evm.execute_s", "s", "lower"},
      {"evm.execute_us_per_tx", "us", "lower"},
      // core/txpool
      {"core.txpool.added", "count", "higher"},
      {"core.txpool.rejected", "count", "lower"},
      {"core.txpool.evicted", "count", "lower"},
      // db
      {"db.appends", "count", "lower"},
      {"db.records_scanned", "count", "lower"},
      {"db.blocks_replayed", "count", "lower"},
      {"db.corrupt_records", "count", "lower"},
      {"db.replay_rejected", "count", "lower"},
      // sim/scalesim
      {"sim.scalesim.deliveries", "count", "higher"},
      {"sim.scalesim.dup_suppressed", "count", "lower"},
      {"sim.scalesim.useful_ratio", "ratio", "higher"},
      {"sim.scalesim.run_s", "s", "lower"},
      // PDES: ScaleSim shards, PhaseBarrier, KeyedTimedQueue
      {"sim.pdes.epochs", "count", "lower"},
      {"sim.pdes.cross_shard_msgs", "count", "lower"},
      {"sim.pdes.cross_shard_share", "ratio", "lower"},
      {"sim.pdes.events_per_epoch", "ratio", "higher"},
      {"sim.pdes.lookahead_s", "s", "higher"},
      {"proc.cpu_s", "s", "lower"},
      {"proc.parallel_efficiency", "ratio", "higher"},
      // setup: p2p/topology, p2p/geo, engine constructors
      {"p2p.topology.generate_s", "s", "lower"},
      {"setup.engine_s", "s", "lower"},
      // whole run
      {"sim.run.events", "count", "lower"},
      {"sim.run.imports", "count", "higher"},
      {"trace.overhead_s", "s", "lower"},
  };
  return kSpecs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLength) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string name(specs[i].name);
    const auto it = values.find(name);
    if (it == values.end())
      throw std::logic_error("result_json: no value for metric " + name);
    if (!std::isfinite(it->second))
      throw std::logic_error("result_json: non-finite value for " + name);
    std::snprintf(buf, sizeof buf, "%.17g", it->second);
    if (i > 0) out += ", ";
    out += json_string(name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(specs[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
