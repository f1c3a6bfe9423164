#include "p2p/simnet.hpp"

#include <algorithm>
#include <cmath>

#include "p2p/faults.hpp"
#include "p2p/geo.hpp"
#include "p2p/messages.hpp"

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

void Network::attach_payload(const NodeId& id, Handler handler) {
  handlers_[id] = std::move(handler);
}

void Network::attach(const NodeId& id, BytesHandler handler) {
  attach_payload(id, [handler = std::move(handler)](const NodeId& from,
                                                    const Payload& data) {
    handler(from, data.wire());
  });
}

void Network::detach(const NodeId& id) { handlers_.erase(id); }

void Network::send(const NodeId& from, const NodeId& to, PayloadPtr data) {
  ++messages_sent_;
  bytes_sent_ += data->size();
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

void Network::send(const NodeId& from, const NodeId& to, Bytes data) {
  send(from, to, make_payload(std::move(data)));
}

std::uint32_t Network::acquire_slot(const NodeId& from, const NodeId& to,
                                    PayloadPtr&& data) {
  if (free_slots_.empty()) {
    pool_.push_back(InFlight{from, to, std::move(data)});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  pool_[slot] = InFlight{from, to, std::move(data)};
  return slot;
}

void Network::deliver_slot(std::uint32_t slot) {
  // Move the message out first: the handler may send — which acquires
  // slots and can reallocate pool_ — so no reference into the pool may be
  // live across the call. The local reference keeps the payload alive
  // through the handler.
  const InFlight m = std::move(pool_[slot]);
  free_slots_.push_back(slot);
  auto it = handlers_.find(m.to);
  if (it == handlers_.end()) {
    obs::inc(tm_dropped_detached_);
    return;
  }
  ++messages_delivered_;
  it->second(m.from, *m.data);
}

void Network::deliver_after(double delay, const NodeId& from, const NodeId& to,
                            PayloadPtr data) {
  obs::observe(tm_delay_, delay);
  const std::uint32_t slot = acquire_slot(from, to, std::move(data));
  loop_.schedule(delay, [this, slot] { deliver_slot(slot); });
}

void Network::attach_telemetry(obs::Registry& reg) {
  reg.bind("net.messages_sent", messages_sent_);
  reg.bind("net.messages_delivered", messages_delivered_);
  reg.bind("net.bytes_sent", bytes_sent_);
  tm_dropped_loss_ = &reg.counter("net.dropped_loss");
  tm_dropped_detached_ = &reg.counter("net.dropped_detached");
  tm_delay_ = &reg.histogram(
      "net.delay_seconds", obs::Histogram::exponential_bounds(0.001, 2.0, 12));
}

}  // namespace forksim::p2p
