// Deterministic fault injection for the simulated network.
//
// A FaultInjector interposes on Network::send and adjudicates every
// message with its own seeded Rng: per-link latency/loss overrides, hard
// link cuts (network-layer partitions independent of the consensus fork),
// probabilistic duplication and reordering, and an arbitrary drop filter
// for surgical tests ("lose exactly the next Blocks reply"). Cuts can be
// scheduled ahead of time through the event loop, so a whole chaos
// timeline replays bit-identically from a seed.
//
// ChurnSchedule is the node-level counterpart: a seeded crash/restart
// timetable. It is pure data — the sim layer (sim/chaos.hpp) applies it to
// FullNodes, because this layer knows endpoints only as NodeIds.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "p2p/simnet.hpp"

namespace forksim::p2p {

/// Directed link (from -> to). Faults are directed so a test can sever one
/// direction (requests get through, replies are lost); the _bidi helpers
/// configure both directions at once.
struct LinkKey {
  NodeId from;
  NodeId to;
  bool operator==(const LinkKey&) const = default;
};

struct LinkKeyHasher {
  std::size_t operator()(const LinkKey& k) const noexcept {
    const std::size_t a = NodeIdHasher{}(k.from);
    const std::size_t b = NodeIdHasher{}(k.to);
    return a * 0x100000001b3ull ^ b;
  }
};

struct FaultCounters {
  std::uint64_t dropped_by_loss = 0;
  std::uint64_t dropped_by_cut = 0;
  std::uint64_t dropped_by_filter = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  /// Messages whose latency came from a per-link override.
  std::uint64_t link_overrides = 0;
};

class FaultInjector {
 public:
  /// A drop filter sees every message before any other fault decision and
  /// returns true to drop it. It is called once per send, before any
  /// duplication. The wire bytes can be decoded with decode_message for
  /// type-targeted faults.
  using DropFilter =
      std::function<bool(const NodeId& from, const NodeId& to, const Bytes&)>;

  FaultInjector(EventLoop& loop, Rng rng) : loop_(loop), rng_(rng) {}

  /// Route every subsequent Network::send through this injector. The
  /// injector must outlive the network (or be detached first).
  void attach_to(Network& network) { network.set_fault_injector(this); }
  static void detach_from(Network& network) {
    network.set_fault_injector(nullptr);
  }

  // ---- per-link latency/loss overrides ----------------------------------
  void set_link_latency(const NodeId& from, const NodeId& to, LatencyModel m);
  void clear_link_latency(const NodeId& from, const NodeId& to);

  // ---- link cuts --------------------------------------------------------
  void cut_link(const NodeId& from, const NodeId& to);
  void cut_link_bidi(const NodeId& a, const NodeId& b);
  void heal_link(const NodeId& from, const NodeId& to);
  void heal_link_bidi(const NodeId& a, const NodeId& b);
  bool link_is_cut(const NodeId& from, const NodeId& to) const;
  /// Cut both directions `start_in` seconds from now, heal after
  /// `duration` more seconds.
  void schedule_link_cut(const NodeId& a, const NodeId& b, double start_in,
                         double duration);

  // ---- global knobs (applied on top of the effective latency model) -----
  /// Extra drop probability for every message.
  void set_extra_loss(double p) { extra_loss_ = p; }
  /// Probability a message is delivered twice (both copies carry the one
  /// shared payload).
  void set_duplicate_prob(double p) { duplicate_prob_ = p; }
  /// Probability a message is delayed by an extra `reorder_delay` seconds,
  /// letting later sends overtake it.
  void set_reorder_prob(double p) { reorder_prob_ = p; }
  void set_reorder_delay(double seconds) { reorder_delay_ = seconds; }
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  const FaultCounters& counters() const noexcept { return counters_; }

  /// Bind counters() into `reg` as faults.* metrics.
  void attach_telemetry(obs::Registry& reg);

  /// Called by Network::send for every message while attached.
  void on_send(Network& network, const NodeId& from, const NodeId& to,
               PayloadPtr data);

 private:
  EventLoop& loop_;
  Rng rng_;
  std::unordered_map<LinkKey, LatencyModel, LinkKeyHasher> link_latency_;
  std::unordered_set<LinkKey, LinkKeyHasher> link_cuts_;
  double extra_loss_ = 0.0;
  double duplicate_prob_ = 0.0;
  double reorder_prob_ = 0.0;
  double reorder_delay_ = 0.5;
  DropFilter drop_filter_;
  FaultCounters counters_;
};

/// One scheduled crash (`up == false`) or restart (`up == true`).
struct ChurnEvent {
  double at = 0;
  std::size_t node_index = 0;
  bool up = false;
};

/// A seeded crash/restart timetable over a population of node indices.
/// Pure data: sample or script it here, apply it in the sim layer.
class ChurnSchedule {
 public:
  void add(double at, std::size_t node_index, bool up);

  /// Events sorted by time (stable for equal times).
  const std::vector<ChurnEvent>& events() const noexcept { return events_; }
  std::size_t crash_count() const;
  std::size_t restart_count() const;

  /// Sample a schedule: `count` distinct nodes drawn from `candidates`
  /// crash at Uniform(window_start, window_end); each restarts with
  /// probability `restart_prob` after Exponential(mean_downtime) seconds
  /// (nodes that miss the coin model the permanent exodus at the fork).
  static ChurnSchedule sample(Rng& rng, std::vector<std::size_t> candidates,
                              std::size_t count, double window_start,
                              double window_end, double mean_downtime,
                              double restart_prob);

 private:
  std::vector<ChurnEvent> events_;
};

}  // namespace forksim::p2p
