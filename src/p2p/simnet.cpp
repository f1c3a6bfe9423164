#include "p2p/simnet.hpp"

#include <algorithm>
#include <cmath>

#include "p2p/faults.hpp"
#include "p2p/geo.hpp"

namespace forksim::p2p {

void EventLoop::schedule(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;
  queue_.push(now_ + delay, next_seq_++, std::move(fn));
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    auto ev = queue_.pop();
    now_ = ev.at;
    ev.payload();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::size_t EventLoop::run() {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    auto ev = queue_.pop();
    now_ = ev.at;
    ev.payload();
    ++executed;
  }
  return executed;
}

double LatencyModel::sample(Rng& rng) const {
  const double jitter =
      jitter_scale > 0 ? rng.lognormal(0.0, jitter_sigma) * jitter_scale : 0.0;
  return std::max(0.0, base + jitter);
}

LatencyModel Network::effective_latency(const NodeId& from,
                                        const NodeId& to) const {
  if (geo_ != nullptr) {
    const auto a = geo_placement_.find(from);
    const auto b = geo_placement_.find(to);
    if (a != geo_placement_.end() && b != geo_placement_.end())
      return geo_->link_model(a->second, b->second, latency_.loss);
  }
  return latency_;
}

void Network::set_geo(
    const GeoModel* geo,
    std::unordered_map<NodeId, std::uint32_t, NodeIdHasher> placement) {
  geo_ = geo;
  geo_placement_ = std::move(placement);
}

void Network::attach(const NodeId& id, Handler handler) {
  handlers_[id] = std::move(handler);
}

void Network::detach(const NodeId& id) { handlers_.erase(id); }

void Network::send(const NodeId& from, const NodeId& to, Bytes data) {
  ++messages_sent_;
  bytes_sent_ += data.size();
  obs::inc(tm_sent_);
  obs::inc(tm_bytes_, data.size());
  if (faults_ != nullptr) {
    faults_->on_send(*this, from, to, std::move(data));
    return;
  }
  if (latency_.loss > 0.0 && rng_.chance(latency_.loss)) {
    obs::inc(tm_dropped_loss_);
    return;
  }
  deliver_after(effective_latency(from, to).sample(rng_), from, to,
                std::move(data));
}

std::uint32_t Network::acquire_slot(const NodeId& from, const NodeId& to,
                                    Bytes&& data) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    InFlight& m = pool_[slot];
    m.from = from;
    m.to = to;
    // assign() reuses the retained buffer capacity; the caller's allocation
    // is freed here, but steady-state slots stop growing
    m.data.assign(data.begin(), data.end());
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(InFlight{from, to, std::move(data)});
  }
  return slot;
}

void Network::deliver_slot(std::uint32_t slot) {
  // Move the message out first: the handler may send — which acquires
  // slots and can reallocate pool_ — so no reference into the pool may be
  // live across the call.
  const NodeId from = pool_[slot].from;
  const NodeId to = pool_[slot].to;
  Bytes data = std::move(pool_[slot].data);
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    obs::inc(tm_dropped_detached_);
  } else {
    ++messages_delivered_;
    obs::inc(tm_delivered_);
    it->second(from, data);
  }
  // hand the buffer (and its capacity) back to the slot for reuse
  data.clear();
  pool_[slot].data = std::move(data);
  free_slots_.push_back(slot);
}

void Network::deliver_after(double delay, const NodeId& from, const NodeId& to,
                            Bytes data) {
  obs::observe(tm_delay_, delay);
  const std::uint32_t slot = acquire_slot(from, to, std::move(data));
  loop_.schedule(delay, [this, slot] { deliver_slot(slot); });
}

void Network::attach_telemetry(obs::Registry& reg) {
  tm_sent_ = &reg.counter("net.messages_sent");
  tm_delivered_ = &reg.counter("net.messages_delivered");
  tm_bytes_ = &reg.counter("net.bytes_sent");
  // catch up on traffic sent before attachment (nodes dial their
  // bootstrap peers at construction time) so the registry mirrors the
  // lifetime accessors exactly
  tm_sent_->inc(messages_sent_);
  tm_delivered_->inc(messages_delivered_);
  tm_bytes_->inc(bytes_sent_);
  tm_dropped_loss_ = &reg.counter("net.dropped_loss");
  tm_dropped_detached_ = &reg.counter("net.dropped_detached");
  tm_delay_ = &reg.histogram(
      "net.delay_seconds", obs::Histogram::exponential_bounds(0.001, 2.0, 12));
}

}  // namespace forksim::p2p
