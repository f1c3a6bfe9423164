// Discrete-event network substrate: a deterministic event loop plus a
// message-passing network with configurable latency and loss. All of the
// p2p and agent code runs on top of this — no real sockets, no wall-clock
// time, fully reproducible from a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "p2p/scheduler.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/timeseries.hpp"  // SimTime

namespace forksim::p2p {

/// Deterministic event loop over the 4-ary KeyedTimedQueue, keyed by
/// schedule order: ties at equal times fire in insertion order — the same
/// total order as the original priority_queue scheduler, so the heap is
/// invisible to golden fingerprints.
class EventLoop {
 public:
  using Callback = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (>= 0).
  void schedule(SimTime delay, Callback fn);

  /// Run events until the queue empties or `deadline` passes. Returns the
  /// number of events executed.
  std::size_t run_until(SimTime deadline);

  /// Run everything (no deadline).
  std::size_t run();

  std::size_t pending() const noexcept { return queue_.size(); }

  /// Heap-work counters of the underlying scheduler (pushes, pops, sift
  /// depth, high-water mark) — the topology bench reports these.
  const TimedQueueProfile& scheduler_profile() const noexcept {
    return queue_.profile();
  }

 private:
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;  // the queue key: schedule order
  KeyedTimedQueue<Callback> queue_;
};

/// Endpoint identifier on the simulated network (a devp2p node id).
using NodeId = Hash256;
using NodeIdHasher = Hash256Hasher;

/// Latency model for a message between two endpoints.
struct LatencyModel {
  /// Fixed propagation floor in seconds.
  double base = 0.05;
  /// Additional lognormal jitter: exp(N(mu, sigma)) * scale seconds.
  double jitter_scale = 0.05;
  double jitter_sigma = 0.6;
  /// Probability a message is silently dropped.
  double loss = 0.0;

  /// Sampled delay, never negative (a pathological negative `base` clamps
  /// to zero rather than scheduling into the past).
  double sample(Rng& rng) const;

  static LatencyModel lan() { return {0.005, 0.005, 0.3, 0.0}; }
  static LatencyModel wan() { return {0.05, 0.05, 0.6, 0.0}; }
  static LatencyModel lossy_wan(double loss_rate) {
    LatencyModel m = wan();
    m.loss = loss_rate;
    return m;
  }
};

class FaultInjector;
class GeoModel;

/// Message-passing network: endpoints register a receive handler; send()
/// schedules delivery through the event loop with sampled latency. An
/// optional FaultInjector (p2p/faults.hpp) can be interposed to add
/// per-link faults; without one, send() behaves exactly as before, draw
/// for draw, so fault-free runs are unchanged. An optional GeoModel
/// (p2p/geo.hpp) replaces the uniform latency base with the per-pair
/// region RTT — also draw-neutral when absent.
class Network {
 public:
  using Handler = std::function<void(const NodeId& from, const Bytes& data)>;

  Network(EventLoop& loop, Rng rng, LatencyModel latency = LatencyModel::wan())
      : loop_(loop), rng_(rng), latency_(latency) {}

  EventLoop& loop() noexcept { return loop_; }
  const LatencyModel& default_latency() const noexcept { return latency_; }

  /// The latency model governing `from -> to`: the default model, with its
  /// base (and jitter shape) swapped for the region pair's when a GeoModel
  /// is attached and both endpoints are placed. Exactly one jitter draw
  /// either way, so attaching geo never shifts the rng stream structure.
  LatencyModel effective_latency(const NodeId& from, const NodeId& to) const;

  void attach(const NodeId& id, Handler handler);
  void detach(const NodeId& id);
  bool is_attached(const NodeId& id) const { return handlers_.contains(id); }

  /// Send `data` from `from` to `to`. Silently dropped if `to` is detached
  /// (models a crashed peer) or the loss coin comes up. With a fault
  /// injector attached, the injector adjudicates delivery instead.
  void send(const NodeId& from, const NodeId& to, Bytes data);

  /// Schedule delivery after `delay` seconds, bypassing latency/loss
  /// sampling. Used by the fault injector once it has made its decision.
  /// The in-flight message lives in a recycled slot pool, not a fresh
  /// closure capture — at thousands of nodes the per-message allocation
  /// was the event loop's dominant cost.
  void deliver_after(double delay, const NodeId& from, const NodeId& to,
                     Bytes data);

  void set_fault_injector(FaultInjector* faults) noexcept { faults_ = faults; }
  FaultInjector* fault_injector() const noexcept { return faults_; }

  /// Attach a region latency model. `placement` maps endpoint ids to the
  /// model's node indices (the scenario knows the id <-> index mapping).
  /// The model must outlive the network; pass nullptr to detach.
  void set_geo(const GeoModel* geo,
               std::unordered_map<NodeId, std::uint32_t, NodeIdHasher>
                   placement = {});

  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  /// In-flight slot pool high-water mark (capacity actually retained).
  std::size_t message_pool_size() const noexcept { return pool_.size(); }

  /// Register net.* metrics in `reg` and start feeding them. Without a
  /// registry the hot path pays one null check per metric and consumes no
  /// extra Rng draws, so attaching telemetry never perturbs a seeded run.
  void attach_telemetry(obs::Registry& reg);

 private:
  /// One in-flight message. Slots are recycled through free_slots_ so a
  /// steady-state run stops allocating: the Bytes buffer is moved in on
  /// acquire and its capacity retained on release.
  struct InFlight {
    NodeId from;
    NodeId to;
    Bytes data;
  };
  std::uint32_t acquire_slot(const NodeId& from, const NodeId& to,
                             Bytes&& data);
  void deliver_slot(std::uint32_t slot);

  EventLoop& loop_;
  Rng rng_;
  LatencyModel latency_;
  FaultInjector* faults_ = nullptr;
  const GeoModel* geo_ = nullptr;
  std::unordered_map<NodeId, std::uint32_t, NodeIdHasher> geo_placement_;
  std::unordered_map<NodeId, Handler, NodeIdHasher> handlers_;
  std::vector<InFlight> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t bytes_sent_ = 0;
  obs::Counter* tm_sent_ = nullptr;
  obs::Counter* tm_delivered_ = nullptr;
  obs::Counter* tm_bytes_ = nullptr;
  obs::Counter* tm_dropped_loss_ = nullptr;
  obs::Counter* tm_dropped_detached_ = nullptr;
  obs::Histogram* tm_delay_ = nullptr;
};

}  // namespace forksim::p2p
