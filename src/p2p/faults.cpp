#include "p2p/faults.hpp"

#include <algorithm>

#include "p2p/messages.hpp"

namespace forksim::p2p {

void FaultInjector::set_link_latency(const NodeId& from, const NodeId& to,
                                     LatencyModel m) {
  link_latency_[LinkKey{from, to}] = m;
}

void FaultInjector::clear_link_latency(const NodeId& from, const NodeId& to) {
  link_latency_.erase(LinkKey{from, to});
}

void FaultInjector::cut_link(const NodeId& from, const NodeId& to) {
  link_cuts_.insert(LinkKey{from, to});
}

void FaultInjector::cut_link_bidi(const NodeId& a, const NodeId& b) {
  cut_link(a, b);
  cut_link(b, a);
}

void FaultInjector::heal_link(const NodeId& from, const NodeId& to) {
  link_cuts_.erase(LinkKey{from, to});
}

void FaultInjector::heal_link_bidi(const NodeId& a, const NodeId& b) {
  heal_link(a, b);
  heal_link(b, a);
}

bool FaultInjector::link_is_cut(const NodeId& from, const NodeId& to) const {
  return link_cuts_.contains(LinkKey{from, to});
}

void FaultInjector::schedule_link_cut(const NodeId& a, const NodeId& b,
                                      double start_in, double duration) {
  loop_.schedule(start_in, [this, a, b] { cut_link_bidi(a, b); });
  loop_.schedule(start_in + duration, [this, a, b] { heal_link_bidi(a, b); });
}

void FaultInjector::on_send(Network& network, const NodeId& from,
                            const NodeId& to, PayloadPtr data) {
  if (drop_filter_ && drop_filter_(from, to, data->wire())) {
    ++counters_.dropped_by_filter;
    return;
  }
  if (link_cuts_.contains(LinkKey{from, to})) {
    ++counters_.dropped_by_cut;
    return;
  }
  // per-link override beats geography beats the uniform default; same
  // draw count either way, so attaching geo never shifts the rng stream
  LatencyModel effective = network.effective_latency(from, to);
  const LatencyModel* model = &effective;
  auto it = link_latency_.find(LinkKey{from, to});
  if (it != link_latency_.end()) {
    model = &it->second;
    ++counters_.link_overrides;
  }
  // the effective model's own loss, then the global extra-loss knob
  if (model->loss > 0.0 && rng_.chance(model->loss)) {
    ++counters_.dropped_by_loss;
    return;
  }
  if (extra_loss_ > 0.0 && rng_.chance(extra_loss_)) {
    ++counters_.dropped_by_loss;
    return;
  }
  std::uint32_t copies = 1;
  if (duplicate_prob_ > 0.0 && rng_.chance(duplicate_prob_)) {
    ++copies;
    ++counters_.duplicated;
  }
  for (std::uint32_t c = 0; c < copies; ++c) {
    double delay = model->sample(rng_);
    if (reorder_prob_ > 0.0 && rng_.chance(reorder_prob_)) {
      delay += reorder_delay_;
      ++counters_.reordered;
    }
    network.deliver_after(delay, from, to, data);
  }
}

void FaultInjector::attach_telemetry(obs::Registry& reg) {
  reg.bind("faults.dropped_by_loss", counters_.dropped_by_loss);
  reg.bind("faults.dropped_by_cut", counters_.dropped_by_cut);
  reg.bind("faults.dropped_by_filter", counters_.dropped_by_filter);
  reg.bind("faults.duplicated", counters_.duplicated);
  reg.bind("faults.reordered", counters_.reordered);
  reg.bind("faults.link_overrides", counters_.link_overrides);
}

void ChurnSchedule::add(double at, std::size_t node_index, bool up) {
  ChurnEvent ev{at, node_index, up};
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), ev,
      [](const ChurnEvent& a, const ChurnEvent& b) { return a.at < b.at; });
  events_.insert(pos, ev);
}

std::size_t ChurnSchedule::crash_count() const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [](const ChurnEvent& e) { return !e.up; }));
}

std::size_t ChurnSchedule::restart_count() const {
  return events_.size() - crash_count();
}

ChurnSchedule ChurnSchedule::sample(Rng& rng,
                                    std::vector<std::size_t> candidates,
                                    std::size_t count, double window_start,
                                    double window_end, double mean_downtime,
                                    double restart_prob) {
  ChurnSchedule schedule;
  count = std::min(count, candidates.size());
  // partial Fisher-Yates: the first `count` entries are the victims
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.uniform(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
  }
  const double window = std::max(0.0, window_end - window_start);
  for (std::size_t i = 0; i < count; ++i) {
    const double crash_at = window_start + rng.uniform01() * window;
    schedule.add(crash_at, candidates[i], /*up=*/false);
    if (rng.chance(restart_prob)) {
      const double downtime = std::max(1.0, rng.exponential(mean_downtime));
      schedule.add(crash_at + downtime, candidates[i], /*up=*/true);
    }
  }
  return schedule;
}

}  // namespace forksim::p2p
