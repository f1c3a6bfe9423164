#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "crypto/keccak.hpp"

namespace forksim::sim {

namespace {

void require_prob(double value, const char* field) {
  if (!(value >= 0.0 && value <= 1.0))
    throw std::invalid_argument(std::string("ChaosParams::") + field +
                                " must be a probability in [0, 1], got " +
                                std::to_string(value));
}

void require_non_negative(double value, const char* field) {
  if (!(value >= 0.0))
    throw std::invalid_argument(std::string("ChaosParams::") + field +
                                " must be >= 0, got " +
                                std::to_string(value));
}

}  // namespace

void ChaosParams::validate() const {
  // internet-scale wiring: degree/region configs fail loudly and by name
  // (a 5k-node sweep with degree > n-1 must die here, not an hour in)
  if (scenario.topology.enabled)
    scenario.topology.validate(scenario.nodes_eth + scenario.nodes_etc);
  if (scenario.geo.enabled) scenario.geo.validate();
  // client-mix / consensus-bug layer: inverted bug windows, mix fractions
  // that don't sum to 1, unknown families etc. die here by name, like the
  // degree/region configs above (no-op while the layer is disabled)
  scenario.clients.validate();
  require_prob(extra_loss, "extra_loss");
  require_prob(duplicate_prob, "duplicate_prob");
  require_prob(reorder_prob, "reorder_prob");
  require_non_negative(reorder_delay, "reorder_delay");
  // negative cut_start is the documented "no cut" flag; the duration and
  // share must make sense regardless, so enabling the cut later can't
  // surface a latent nonsense value
  require_non_negative(cut_duration, "cut_duration");
  require_prob(partitioned_share, "partitioned_share");
  require_prob(churn_fraction, "churn_fraction");
  if (churn_end < churn_start)
    throw std::invalid_argument(
        "ChaosParams: churn_end (" + std::to_string(churn_end) +
        ") precedes churn_start (" + std::to_string(churn_start) + ")");
  require_non_negative(mean_downtime, "mean_downtime");
  require_prob(restart_prob, "restart_prob");
  require_prob(cold_restart_prob, "cold_restart_prob");
  require_prob(storage_faults.torn_write_prob,
               "storage_faults.torn_write_prob");
  require_prob(storage_faults.tail_truncate_prob,
               "storage_faults.tail_truncate_prob");
  require_prob(storage_faults.bit_rot_prob, "storage_faults.bit_rot_prob");
  require_non_negative(mining_duration, "mining_duration");
  require_non_negative(settle_deadline, "settle_deadline");
  require_prob(adversaries.fraction, "adversaries.fraction");
  require_non_negative(eclipse.start, "eclipse.start");
  if (eclipse.budget > 0) {
    if (!(eclipse.interval > 0.0))
      throw std::invalid_argument(
          "ChaosParams::eclipse.interval must be > 0, got " +
          std::to_string(eclipse.interval));
    if (eclipse.victims == 0)
      throw std::invalid_argument(
          "ChaosParams::eclipse.victims must be >= 1 when eclipse.budget "
          "> 0");
  }
  if (probe.enabled) {
    if (!(probe.interval > 0.0))
      throw std::invalid_argument(
          "ChaosParams::probe.interval must be > 0, got " +
          std::to_string(probe.interval));
    require_prob(probe.quorum_fraction, "probe.quorum_fraction");
    require_non_negative(probe.heal_sustain, "probe.heal_sustain");
    if (probe.failure_start >= 0 && probe.failure_end >= 0 &&
        probe.failure_end < probe.failure_start)
      throw std::invalid_argument(
          "ChaosParams: probe.failure_end precedes probe.failure_start");
  }
}

AvailabilityStats summarize_availability(
    const std::vector<AvailabilitySample>& samples,
    const ChaosParams::AvailabilityProbe& probe) {
  AvailabilityStats stats;
  stats.samples = samples.size();
  if (samples.empty()) return stats;

  std::size_t pre_total = 0, pre_ok = 0;
  std::size_t dur_total = 0, dur_ok = 0;
  std::size_t post_total = 0, post_ok = 0;
  for (const AvailabilitySample& s : samples) {
    const bool ok = s.available();
    if (!ok) stats.degraded_seconds += probe.interval;
    if (s.t < probe.failure_start) {
      ++pre_total;
      pre_ok += ok;
    } else if (s.t < probe.failure_end) {
      ++dur_total;
      dur_ok += ok;
    } else {
      ++post_total;
      post_ok += ok;
    }
  }
  const auto frac = [](std::size_t ok, std::size_t total) {
    return total ? static_cast<double>(ok) / static_cast<double>(total)
                 : -1.0;
  };
  stats.pre = frac(pre_ok, pre_total);
  stats.during_failure = frac(dur_ok, dur_total);
  stats.post = frac(post_ok, post_total);

  // Time-to-heal: the first post-failure instant from which availability
  // held for heal_sustain seconds. A streak that runs into the end of
  // sampling counts — the run ended (typically by converging) while still
  // healthy, which is the opposite of a relapse.
  const double last_t = samples.back().t;
  double streak_start = -1.0;
  for (const AvailabilitySample& s : samples) {
    if (s.t < probe.failure_end) continue;
    if (!s.available()) {
      streak_start = -1.0;
      continue;
    }
    if (streak_start < 0) streak_start = s.t;
    if (s.t - streak_start >= probe.heal_sustain) {
      stats.time_to_heal = std::max(0.0, streak_start - probe.failure_end);
      return stats;
    }
  }
  if (streak_start >= 0 && last_t - streak_start >= 0)
    stats.time_to_heal = std::max(0.0, streak_start - probe.failure_end);
  return stats;
}

namespace {

// An attack run hardens every honest node; an adversary-free run must leave
// the scenario params untouched so its behavior (and fingerprints) match
// builds without the Byzantine layer.
ChaosParams apply_adversary_hardening(ChaosParams p) {
  if (p.adversaries.fraction > 0)
    p.scenario.node_options.hardening.enabled = true;
  return p;
}

// An eclipse run with defenses requested switches every honest node's
// eclipse-resistance stack on; a defenses-off (or eclipse-free) run leaves
// the scenario params untouched so fingerprints match builds without the
// eclipse layer.
ChaosParams apply_eclipse_defenses(ChaosParams p) {
  if (p.eclipse.budget > 0 && p.eclipse.defenses)
    p.scenario.node_options.eclipse.enabled = true;
  return p;
}

// Validation runs before any member that could do work is built, so a bad
// sweep config fails at construction with a named field, not mid-run.
ChaosParams validated(ChaosParams p) {
  p.validate();
  return p;
}

}  // namespace

ChaosRunner::ChaosRunner(ChaosParams params)
    : params_(apply_eclipse_defenses(
          apply_adversary_hardening(validated(std::move(params))))),
      rng_(params_.scenario.seed ^ 0xc8a05f4d2b179e63ull),
      tracer_([this] { return scenario_->loop().now(); }),
      scenario_(std::make_unique<ForkScenario>(params_.scenario)) {
  faults_ = std::make_unique<p2p::FaultInjector>(scenario_->loop(),
                                                 rng_.fork());
  faults_->attach_to(scenario_->network());
  faults_->set_extra_loss(params_.extra_loss);
  faults_->set_duplicate_prob(params_.duplicate_prob);
  faults_->set_reorder_prob(params_.reorder_prob);
  faults_->set_reorder_delay(params_.reorder_delay);
  install_cut();
  // Host selection draws no rng, so it can run before churn (which must
  // exempt adversary hosts) without shifting the adversary-free draw
  // sequence; the draw-consuming install comes after churn.
  select_adversary_hosts();
  // Cast selection draws no rng either; it must precede churn so victims
  // and swarm hosts can be exempted.
  select_eclipse_cast();
  // Stores fork one disk Rng per node, so this must come before churn for a
  // stable draw order — and does nothing (zero draws) when the durability
  // layer is off.
  install_stores();
  install_churn();
  install_adversaries();
  install_eclipse();
  install_probe();
  scenario_->attach_telemetry(registry_, &tracer_);
  faults_->attach_telemetry(registry_);
  for (auto& adv : adversaries_) adv->attach_telemetry(registry_);
  for (auto& adv : eclipse_adversaries_) adv->attach_telemetry(registry_);
  for (auto& store : stores_) store->attach_telemetry(registry_);
}

void ChaosRunner::install_stores() {
  if (params_.cold_restart_prob <= 0) return;
  const std::size_t n = scenario_->node_count();
  disks_.reserve(n);
  stores_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // one disk per node: crash faults on one machine never touch another
    disks_.push_back(std::make_unique<db::SimDisk>(rng_.fork(),
                                                   params_.storage_faults));
    stores_.push_back(std::make_unique<db::BlockStore>(
        *disks_.back(), "node" + std::to_string(i)));
    scenario_->node(i).attach_store(stores_.back().get());
  }
}

std::vector<p2p::NodeId> ChaosRunner::rejoin_bootstrap_for(
    std::size_t i) const {
  const std::size_t anchor =
      scenario_->is_eth_node(i) ? 0 : params_.scenario.nodes_eth;
  return {scenario_->node(anchor).id()};
}

void ChaosRunner::install_cut() {
  if (params_.cut_start < 0) return;
  const std::size_t n = scenario_->node_count();
  // Seeded random victim set, independent of the consensus fork sides. The
  // shuffle is a full Fisher-Yates regardless of the share so every share
  // consumes the identical rng sequence — partitioned_share == 0.5 picks
  // the same nodes, draw for draw, as the historical hardcoded bisection.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t j = i + rng_.uniform(n - i);
    std::swap(order[i], order[j]);
  }
  // floor() the scaled count (+epsilon against 0.3*10 = 2.999... artifacts)
  // so share 0.5 yields exactly the old n/2 even for odd n
  const auto count = std::min(
      n, static_cast<std::size_t>(
             params_.partitioned_share * static_cast<double>(n) + 1e-9));
  cut_members_.assign(order.begin(), order.begin() + count);
  std::sort(cut_members_.begin(), cut_members_.end());
  std::unordered_set<std::size_t> half(order.begin(), order.begin() + count);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (half.contains(i) != half.contains(j))
        faults_->schedule_link_cut(scenario_->node(i).id(),
                                   scenario_->node(j).id(),
                                   params_.cut_start, params_.cut_duration);
}

void ChaosRunner::select_adversary_hosts() {
  if (params_.adversaries.fraction <= 0) return;
  const std::size_t n = scenario_->node_count();
  std::unordered_set<const FullNode*> miner_hosts;
  for (std::size_t m = 0; m < scenario_->miner_count(); ++m)
    miner_hosts.insert(&scenario_->miner(m).node());
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || i == params_.scenario.nodes_eth) continue;
    if (miner_hosts.contains(&scenario_->node(i))) continue;
    candidates.push_back(i);
  }
  // The highest-indexed eligible nodes turn hostile: deterministic without
  // consuming any rng draws (so fraction == 0 runs replay unchanged).
  auto count = static_cast<std::size_t>(std::ceil(
      params_.adversaries.fraction * static_cast<double>(n)));
  count = std::min(count, candidates.size());
  for (std::size_t k = 0; k < count; ++k)
    adversary_hosts_.insert(candidates[candidates.size() - 1 - k]);
}

void ChaosRunner::install_churn() {
  const std::size_t n = scenario_->node_count();
  // exempt the bootstrap anchors (first node on each side), miner hosts,
  // adversary hosts (an attacker that crashes is no test of defenses), and
  // the eclipse cast (the runner schedules the victim's reboot itself)
  std::unordered_set<const FullNode*> hosts;
  for (std::size_t m = 0; m < scenario_->miner_count(); ++m)
    hosts.insert(&scenario_->miner(m).node());
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || i == params_.scenario.nodes_eth) continue;
    if (hosts.contains(&scenario_->node(i))) continue;
    if (adversary_hosts_.contains(i)) continue;
    if (eclipse_protected_.contains(i)) continue;
    candidates.push_back(i);
  }
  const auto count = static_cast<std::size_t>(
      std::ceil(params_.churn_fraction * static_cast<double>(n)));
  churn_ = p2p::ChurnSchedule::sample(
      rng_, std::move(candidates), count, params_.churn_start,
      params_.churn_end, params_.mean_downtime, params_.restart_prob);

  auto& loop = scenario_->loop();
  // Cold-vs-warm is decided per restart event here, at install time, so the
  // runtime callbacks stay draw-free (and prob == 0 draws nothing at all).
  const auto& events = churn_.events();
  std::vector<char> cold(events.size(), 0);
  if (params_.cold_restart_prob > 0)
    for (std::size_t k = 0; k < events.size(); ++k)
      if (events[k].up && rng_.chance(params_.cold_restart_prob)) cold[k] = 1;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const p2p::ChurnEvent& ev = events[k];
    const bool is_cold = cold[k] != 0;
    loop.schedule(ev.at, [this, ev, is_cold] {
      FullNode& node = scenario_->node(ev.node_index);
      if (ev.up) {
        if (node.running()) return;
        // rejoin through the node's own side's anchor: a post-fork restart
        // should pull toward its network, not burn dials on peers that
        // will DAO-challenge it away
        const std::vector<p2p::NodeId> rejoin =
            rejoin_bootstrap_for(ev.node_index);
        if (is_cold) {
          // the crash mangled the disk tail; recovery scans and repairs
          if (ev.node_index < disks_.size())
            disks_[ev.node_index]->crash();
          const RecoveryOutcome out = node.cold_restart(rejoin);
          ++cold_restarts_;
          store_replay_rejected_ += out.replay_rejected;
          recovery_seconds_ += out.resume_delay;
          // mining resumes with the node, after the modeled recovery time
          const std::size_t idx = ev.node_index;
          scenario_->loop().schedule(out.resume_delay, [this, idx] {
            if (scenario_->node(idx).running()) set_node_mining(idx, true);
          });
        } else {
          node.start(rejoin);
          set_node_mining(ev.node_index, true);
        }
        ++restarts_;
      } else {
        if (!node.running()) return;
        set_node_mining(ev.node_index, false);
        node.shutdown();
        ++crashes_;
      }
    });
  }
}

void ChaosRunner::install_adversaries() {
  if (adversary_hosts_.empty()) return;
  const auto& mix = params_.adversaries;
  std::vector<AdversaryKind> kinds;
  if (mix.forgers) kinds.push_back(AdversaryKind::kInvalidForger);
  if (mix.withholders) kinds.push_back(AdversaryKind::kWithholder);
  if (mix.spammers) kinds.push_back(AdversaryKind::kTxSpammer);
  if (mix.equivocators) kinds.push_back(AdversaryKind::kEquivocator);
  if (kinds.empty()) kinds.push_back(AdversaryKind::kInvalidForger);

  std::vector<std::size_t> ordered(adversary_hosts_.begin(),
                                   adversary_hosts_.end());
  std::sort(ordered.begin(), ordered.end());
  auto& loop = scenario_->loop();
  std::size_t k = 0;
  for (std::size_t idx : ordered) {
    AdversaryOptions opt;
    opt.kind = kinds[k++ % kinds.size()];
    opt.interval = mix.interval;
    auto adv = std::make_unique<Adversary>(scenario_->node(idx), opt,
                                           rng_.fork());
    Adversary* raw = adv.get();
    // first attack round fires at start + interval
    loop.schedule(mix.start, [raw] { raw->start(); });
    adversaries_.push_back(std::move(adv));
  }
}

void ChaosRunner::select_eclipse_cast() {
  if (params_.eclipse.budget == 0) return;
  const std::size_t n = scenario_->node_count();
  std::unordered_set<const FullNode*> miner_hosts;
  for (std::size_t m = 0; m < scenario_->miner_count(); ++m)
    miner_hosts.insert(&scenario_->miner(m).node());
  const auto eligible = [&](std::size_t i) {
    if (i == 0 || i == params_.scenario.nodes_eth) return false;  // anchors
    if (miner_hosts.contains(&scenario_->node(i))) return false;
    if (adversary_hosts_.contains(i)) return false;
    return true;
  };
  // Victims: the lowest-indexed eligible ETH-side nodes; swarm hosts: the
  // highest-indexed eligible nodes (either side). Both picks are
  // deterministic and draw-free, mirroring select_adversary_hosts.
  for (std::size_t i = 0;
       i < params_.scenario.nodes_eth &&
       eclipse_victims_.size() < params_.eclipse.victims;
       ++i)
    if (eligible(i)) eclipse_victims_.push_back(i);
  if (eclipse_victims_.size() < params_.eclipse.victims)
    throw std::invalid_argument(
        "ChaosParams::eclipse.victims: only " +
        std::to_string(eclipse_victims_.size()) +
        " eligible ETH-side nodes for " +
        std::to_string(params_.eclipse.victims) + " victims");
  std::unordered_set<std::size_t> victim_set(eclipse_victims_.begin(),
                                             eclipse_victims_.end());
  for (std::size_t i = n; i-- > 0 &&
                          eclipse_hosts_.size() < eclipse_victims_.size();)
    if (eligible(i) && !victim_set.contains(i)) eclipse_hosts_.push_back(i);
  if (eclipse_hosts_.size() < eclipse_victims_.size())
    throw std::invalid_argument(
        "ChaosParams::eclipse: not enough eligible nodes to host " +
        std::to_string(eclipse_victims_.size()) + " sybil swarms");
  for (std::size_t i : eclipse_victims_) eclipse_protected_.insert(i);
  for (std::size_t i : eclipse_hosts_) eclipse_protected_.insert(i);
  isolation_seconds_.assign(eclipse_victims_.size(), 0.0);
}

void ChaosRunner::install_eclipse() {
  if (eclipse_victims_.empty()) return;
  auto& loop = scenario_->loop();
  const std::size_t n = scenario_->node_count();

  for (std::size_t v = 0; v < eclipse_victims_.size(); ++v) {
    EclipseOptions opt;
    opt.victim = scenario_->node(eclipse_victims_[v]).id();
    // flooding the victim's seed makes its own outbound bootstrap dials
    // bounce with kTooManyPeers on an undefended network
    opt.slot_targets = rejoin_bootstrap_for(eclipse_victims_[v]);
    opt.sybil_budget = params_.eclipse.budget;
    opt.interval = params_.eclipse.interval;
    eclipse_adversaries_.push_back(std::make_unique<EclipseAdversary>(
        scenario_->node(eclipse_hosts_[v]), std::move(opt)));
  }

  // Region oracle (the IP-prefix analog): every honest node is its own
  // group — an honest peer set never looks homogeneous — while all sybils
  // of swarm k share group 100+k, which is exactly what the diversity caps
  // and the isolation detector key on. Unknown ids (none in practice) fall
  // back to a stable id-derived group.
  auto regions = std::make_shared<
      std::unordered_map<p2p::NodeId, std::uint32_t, p2p::NodeIdHasher>>();
  for (std::size_t i = 0; i < n; ++i)
    (*regions)[scenario_->node(i).id()] =
        1000u + static_cast<std::uint32_t>(i);
  for (std::size_t k = 0; k < eclipse_adversaries_.size(); ++k)
    for (const p2p::NodeId& sybil : eclipse_adversaries_[k]->sybils())
      (*regions)[sybil] = 100u + static_cast<std::uint32_t>(k);
  const auto region_fn = [regions](const p2p::NodeId& id) -> std::uint32_t {
    const auto it = regions->find(id);
    if (it != regions->end()) return it->second;
    return 0x80000000u | (static_cast<std::uint32_t>(id.data()[0]) << 8) |
           id.data()[1];
  };
  for (std::size_t i = 0; i < n; ++i)
    scenario_->node(i).set_region_fn(region_fn);

  // The attack opens at `start`; three rounds later the runner reboots each
  // victim into the entrenched swarm — the canonical reboot-then-eclipse
  // (an established honest session can't be displaced, but a rebooting
  // node's empty slots are up for grabs). reengage() fires the swarm's
  // handshakes at the same instant, so they land while the slots are still
  // empty.
  for (std::size_t v = 0; v < eclipse_victims_.size(); ++v) {
    EclipseAdversary* raw = eclipse_adversaries_[v].get();
    loop.schedule(params_.eclipse.start, [raw] { raw->start(); });
    const std::size_t idx = eclipse_victims_[v];
    const double strike = params_.eclipse.start +
                          3.0 * params_.eclipse.interval;
    loop.schedule(strike, [this, raw, idx] {
      FullNode& node = scenario_->node(idx);
      if (!node.running()) return;
      set_node_mining(idx, false);
      node.shutdown();
      raw->reengage();
      node.start(rejoin_bootstrap_for(idx));
      set_node_mining(idx, true);
    });
  }
  loop.schedule(params_.eclipse.interval, [this] { eclipse_probe_tick(); });
}

bool ChaosRunner::is_sybil_id(const p2p::NodeId& id) const {
  for (const auto& adv : eclipse_adversaries_)
    if (adv->is_sybil(id)) return true;
  return false;
}

bool ChaosRunner::victim_isolated(std::size_t idx) const {
  const FullNode& node = scenario_->node(idx);
  if (!node.running()) return false;
  // isolated = no honest active peer: a sybil-only set and an empty set
  // both mean the victim cannot hear the honest network
  for (const p2p::NodeId& peer : node.peers().active_peers())
    if (!is_sybil_id(peer)) return false;
  return true;
}

// Reads node state only — no messages, no rng draws — so the accounting
// never perturbs the attack timeline it measures.
void ChaosRunner::eclipse_probe_tick() {
  auto& loop = scenario_->loop();
  for (std::size_t v = 0; v < eclipse_victims_.size(); ++v)
    if (victim_isolated(eclipse_victims_[v]))
      isolation_seconds_[v] += params_.eclipse.interval;
  if (loop.now() + params_.eclipse.interval <=
      params_.mining_duration + params_.settle_deadline)
    loop.schedule(params_.eclipse.interval,
                  [this] { eclipse_probe_tick(); });
}

void ChaosRunner::install_probe() {
  probe_ = params_.probe;
  if (!probe_.enabled) return;
  // Per-family sampling rides on the probe: one timeline per mix slice.
  if (params_.scenario.clients.enabled) {
    for (const ClientShare& share : params_.scenario.clients.mix)
      family_list_.push_back(share.family);
    family_samples_.resize(family_list_.size());
    family_divergence_seconds_.assign(family_list_.size(), 0.0);
  }
  // Derive the phase window when the caller left it implicit: the cut
  // window when a partition is scheduled, else the consensus-bug window
  // when the clients layer schedules a patch, else the churn window. All
  // absent leaves a zero-width window at t=0 (everything is "post").
  if (probe_.failure_start < 0) {
    if (params_.cut_start >= 0) {
      probe_.failure_start = params_.cut_start;
      probe_.failure_end = params_.cut_start + params_.cut_duration;
    } else if (params_.scenario.clients.enabled &&
               params_.scenario.clients.patch_time >= 0) {
      probe_.failure_start = params_.scenario.clients.onset_time;
      probe_.failure_end = params_.scenario.clients.patch_time;
    } else if (params_.churn_fraction > 0) {
      probe_.failure_start = params_.churn_start;
      probe_.failure_end = params_.churn_end;
    } else {
      probe_.failure_start = 0.0;
      probe_.failure_end = 0.0;
    }
  }
  if (probe_.failure_end < probe_.failure_start)
    probe_.failure_end = probe_.failure_start;
  scenario_->loop().schedule(probe_.interval, [this] { probe_tick(); });
}

// The probe only reads node state — no messages, no rng draws — so a
// probe-less same-seed run is unchanged draw for draw, and a probed run
// is itself deterministic.
void ChaosRunner::probe_tick() {
  auto& loop = scenario_->loop();
  AvailabilitySample s;
  s.t = loop.now();
  s.eth_ok = side_meets_quorum(/*eth_side=*/true);
  s.etc_ok = side_meets_quorum(/*eth_side=*/false);
  availability_samples_.push_back(s);
  for (std::size_t f = 0; f < family_list_.size(); ++f) {
    AvailabilitySample fs;
    fs.t = s.t;
    // a family sample is a single verdict ("the family's honest members
    // meet quorum against their own sides' best heights"), mirrored into
    // both slots so summarize_availability folds it unchanged
    fs.eth_ok = fs.etc_ok = family_meets_quorum(family_list_[f]);
    family_samples_[f].push_back(fs);
    if (family_diverged(family_list_[f]))
      family_divergence_seconds_[f] += probe_.interval;
  }
  if (loop.now() + probe_.interval <=
      params_.mining_duration + params_.settle_deadline)
    loop.schedule(probe_.interval, [this] { probe_tick(); });
}

bool ChaosRunner::side_meets_quorum(bool eth_side) const {
  // Availability is a statement about the honest population: adversary
  // hosts neither count toward the quorum nor define the side's head.
  std::size_t honest = 0;
  core::BlockNumber best = 0;
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    if (scenario_->is_eth_node(i) != eth_side) continue;
    if (adversary_hosts_.contains(i)) continue;
    ++honest;
    const FullNode& node = scenario_->node(i);
    if (node.running()) best = std::max(best, node.chain().height());
  }
  if (honest == 0) return false;
  std::size_t live_and_synced = 0;
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    if (scenario_->is_eth_node(i) != eth_side) continue;
    if (adversary_hosts_.contains(i)) continue;
    const FullNode& node = scenario_->node(i);
    if (node.running() && node.chain().height() + probe_.max_head_lag >= best)
      ++live_and_synced;
  }
  // epsilon guards exact-threshold quorums (0.6 * 5 = 3.0000000000000004)
  return static_cast<double>(live_and_synced) + 1e-9 >=
         probe_.quorum_fraction * static_cast<double>(honest);
}

bool ChaosRunner::family_meets_quorum(ClientFamily family) const {
  // Like side_meets_quorum, but the population is the family's honest
  // members across BOTH fork sides, each judged against its own side's
  // best height (an ETC-side parity node lagging the ETH tip is not
  // degraded — the fork, not the bug, put it there).
  core::BlockNumber best_eth = 0, best_etc = 0;
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    if (adversary_hosts_.contains(i)) continue;
    const FullNode& node = scenario_->node(i);
    if (!node.running()) continue;
    auto& best = scenario_->is_eth_node(i) ? best_eth : best_etc;
    best = std::max(best, node.chain().height());
  }
  std::size_t members = 0, live_and_synced = 0;
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    if (adversary_hosts_.contains(i)) continue;
    if (scenario_->client_family_of(i) != family) continue;
    ++members;
    const FullNode& node = scenario_->node(i);
    const core::BlockNumber best =
        scenario_->is_eth_node(i) ? best_eth : best_etc;
    if (node.running() && node.chain().height() + probe_.max_head_lag >= best)
      ++live_and_synced;
  }
  if (members == 0) return false;
  return static_cast<double>(live_and_synced) + 1e-9 >=
         probe_.quorum_fraction * static_cast<double>(members);
}

bool ChaosRunner::family_diverged(ClientFamily family) const {
  // The family is diverged while any running honest member holds a head
  // its own side's anchor does not consider canonical: behind-but-on-chain
  // heads are canonical in the anchor's view, competing-branch heads are
  // not. (Anchors are churn-exempt, so "anchor down" only happens in
  // hand-built tests; treat it as no evidence.)
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    if (adversary_hosts_.contains(i)) continue;
    if (scenario_->client_family_of(i) != family) continue;
    const FullNode& node = scenario_->node(i);
    if (!node.running()) continue;
    const std::size_t anchor_index =
        scenario_->is_eth_node(i) ? 0 : params_.scenario.nodes_eth;
    if (i == anchor_index) continue;
    const FullNode& anchor = scenario_->node(anchor_index);
    if (!anchor.running()) continue;
    if (!anchor.chain().is_canonical(node.chain().head().hash())) return true;
  }
  return false;
}

void ChaosRunner::set_node_mining(std::size_t node_index, bool on) {
  const FullNode* node = &scenario_->node(node_index);
  for (std::size_t m = 0; m < scenario_->miner_count(); ++m) {
    Miner& miner = scenario_->miner(m);
    if (&miner.node() != node) continue;
    if (on)
      miner.start();
    else
      miner.stop();
  }
}

bool ChaosRunner::converged() const {
  std::optional<Hash256> eth_head;
  std::optional<Hash256> etc_head;
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    const FullNode& node = scenario_->node(i);
    if (!node.running()) continue;
    // Adversary hosts don't count: a banned attacker legitimately lags
    // while its victims refuse to serve it.
    if (adversary_hosts_.contains(i)) continue;
    const Hash256 head = node.chain().head().hash();
    auto& side = scenario_->is_eth_node(i) ? eth_head : etc_head;
    if (side.has_value() && *side != head) return false;
    side = head;
  }
  if (!eth_head || !etc_head) return false;  // a whole side died
  // both sides must be past the fork, otherwise "one head per side" could
  // just mean nobody reached the divergence point yet
  return scenario_->best_height_eth() >= params_.scenario.fork_block &&
         scenario_->best_height_etc() >= params_.scenario.fork_block;
}

Hash256 ChaosRunner::fingerprint(const obs::Snapshot& telemetry) const {
  Keccak256 h;
  h.update(std::string_view("forksim/chaos-fingerprint"));
  h.update(telemetry.fingerprint().view());
  auto u64 = [&](std::uint64_t v) {
    const auto be = be_fixed64(v);
    h.update(BytesView(be.data(), be.size()));
  };
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    const FullNode& node = scenario_->node(i);
    u64(i);
    u64(node.running() ? 1 : 0);
    h.update(node.chain().head().hash().view());
    u64(node.chain().height());
    u64(node.blocks_imported());
    u64(node.sync_retries());
    u64(node.sync_timeouts());
    u64(node.peers_banned());
  }
  u64(scenario_->network().messages_sent());
  u64(scenario_->network().messages_delivered());
  const auto& f = faults_->counters();
  u64(f.dropped_by_loss);
  u64(f.dropped_by_cut);
  u64(f.duplicated);
  u64(f.reordered);
  // Folded only for store-backed runs, so store-less fingerprints stay
  // byte-identical to those produced before the durability layer existed.
  if (!stores_.empty()) {
    u64(stores_.size());
    for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
      const FullNode& node = scenario_->node(i);
      u64(node.cold_restarts());
      u64(node.recovery_scanned());
      u64(node.recovery_corrupt());
      u64(node.recovery_replayed());
      u64(node.recovery_rejects());
      u64(stores_[i]->record_count());
      const db::DiskCounters& d = disks_[i]->counters();
      u64(d.appends);
      u64(d.crashes);
      u64(d.torn_writes);
      u64(d.tail_truncations);
      u64(d.bits_flipped);
    }
  }
  // Folded only for probed runs, so probe-less fingerprints stay
  // byte-identical to those produced before the availability layer existed.
  if (probe_.enabled) {
    const auto fx = [](double v) {
      return static_cast<std::uint64_t>(std::llround(v * 1e6));
    };
    u64(availability_samples_.size());
    for (const AvailabilitySample& s : availability_samples_) {
      u64(fx(s.t));
      u64(s.eth_ok ? 1 : 0);
      u64(s.etc_ok ? 1 : 0);
    }
    u64(fx(probe_.failure_start));
    u64(fx(probe_.failure_end));
  }
  // Folded only for client-diversity runs, so clients-off fingerprints
  // stay byte-identical to those produced before this layer existed.
  if (params_.scenario.clients.enabled) {
    const auto fx = [](double v) {
      return static_cast<std::uint64_t>(std::llround(v * 1e6));
    };
    u64(scenario_->node_count());
    for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
      const FullNode& node = scenario_->node(i);
      u64(static_cast<std::uint64_t>(scenario_->client_family_of(i)));
      u64(node.disputed_blocks());
      u64(node.divergence_events());
      u64(node.consensus_patches());
    }
    if (scenario_->quirk_rules() != nullptr) {
      u64(scenario_->quirk_rules()->disputes());
      u64(scenario_->quirk_rules()->patched() ? 1 : 0);
    }
    for (std::size_t f = 0; f < family_list_.size(); ++f) {
      u64(family_samples_[f].size());
      for (const AvailabilitySample& s : family_samples_[f]) {
        u64(fx(s.t));
        u64(s.eth_ok ? 1 : 0);
      }
      u64(fx(family_divergence_seconds_[f]));
    }
  }
  // Folded only for attack runs, so adversary-free fingerprints stay
  // byte-identical to those produced before this layer existed.
  if (!adversaries_.empty()) {
    u64(adversaries_.size());
    for (const auto& adv : adversaries_) {
      const AdversaryCounters& c = adv->counters();
      u64(static_cast<std::uint64_t>(adv->options().kind));
      u64(c.rounds);
      u64(c.blocks_forged);
      u64(c.phantom_announcements);
      u64(c.txs_spammed);
      u64(c.equivocations);
    }
  }
  // Folded only for eclipse runs, so eclipse-free fingerprints stay
  // byte-identical to those produced before this layer existed.
  if (!eclipse_adversaries_.empty()) {
    const auto fx = [](double v) {
      return static_cast<std::uint64_t>(std::llround(v * 1e6));
    };
    u64(eclipse_adversaries_.size());
    for (std::size_t v = 0; v < eclipse_adversaries_.size(); ++v) {
      const EclipseCounters& c = eclipse_adversaries_[v]->counters();
      u64(eclipse_victims_[v]);
      u64(eclipse_hosts_[v]);
      u64(c.rounds);
      u64(c.table_floods);
      u64(c.status_floods);
      u64(c.lookups_answered);
      u64(c.withheld_requests);
      u64(fx(isolation_seconds_[v]));
    }
    for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
      const FullNode& node = scenario_->node(i);
      u64(node.eclipse_suspicions());
      u64(node.eclipse_recoveries());
    }
  }
  return h.digest();
}

ChaosReport ChaosRunner::run() {
  auto& loop = scenario_->loop();
  while (loop.now() < params_.mining_duration) scenario_->run_for(5.0);
  for (std::size_t m = 0; m < scenario_->miner_count(); ++m)
    scenario_->miner(m).stop();
  // The attack window is the mining window. Stopping the agents with the
  // miners keeps the settle phase honest-only: with no fresh blocks, an
  // equivocated total-difficulty tie could otherwise pin a lagging node on
  // a clone forever (ties never displace a head).
  //
  // Eclipse swarms are the exception: a real eclipse doesn't politely end
  // when mining does, so they keep flooding through the settle window — an
  // undefended victim must stay eclipsed (and the run unconverged), while
  // defended nodes must converge THROUGH the ongoing attack.
  for (auto& adv : adversaries_) adv->stop();
  const double mining_stopped = loop.now();

  ChaosReport report;
  while (loop.now() < mining_stopped + params_.settle_deadline) {
    scenario_->run_for(5.0);
    if (converged()) {
      report.converged = true;
      report.time_to_convergence = loop.now() - mining_stopped;
      break;
    }
  }

  report.height_eth = scenario_->best_height_eth();
  report.height_etc = scenario_->best_height_etc();
  for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
    const FullNode& node = scenario_->node(i);
    if (node.running()) {
      ++(scenario_->is_eth_node(i) ? report.survivors_eth
                                   : report.survivors_etc);
    }
    report.sync_timeouts += node.sync_timeouts();
    report.sync_retries += node.sync_retries();
    report.dial_attempts += node.dial_attempts();
    report.peers_banned += node.peers_banned();
    report.disputed_blocks += node.disputed_blocks();
    report.divergence_events += node.divergence_events();
    report.consensus_patches += node.consensus_patches();
  }
  report.crashes = crashes_;
  report.restarts = restarts_;
  report.messages_sent = scenario_->network().messages_sent();
  report.faults = faults_->counters();

  report.cold_restarts = cold_restarts_;
  report.store_replay_rejected = store_replay_rejected_;
  report.recovery_seconds = recovery_seconds_;
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const FullNode& node = scenario_->node(i);
    report.store_records_scanned += node.recovery_scanned();
    report.store_corrupt_records += node.recovery_corrupt();
    report.store_blocks_replayed += node.recovery_replayed();
    const db::DiskCounters& d = disks_[i]->counters();
    report.store_appends += d.appends;
    report.disk_torn_writes += d.torn_writes;
    report.disk_tail_truncations += d.tail_truncations;
    report.disk_bits_flipped += d.bits_flipped;
  }

  report.adversaries = adversaries_.size();
  for (const auto& adv : adversaries_) {
    const AdversaryCounters& c = adv->counters();
    report.blocks_forged += c.blocks_forged;
    report.phantom_announcements += c.phantom_announcements;
    report.txs_spammed += c.txs_spammed;
    report.equivocations += c.equivocations;
  }
  if (!adversaries_.empty()) {
    for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
      if (adversary_hosts_.contains(i)) continue;
      FullNode& node = scenario_->node(i);
      report.wasted_executions += node.wasted_executions();
      report.invalid_cache_hits += node.invalid_cache_hits();
      report.rate_limited += node.rate_limited();
      report.txpool_evictions += node.txpool().evictions();
    }
    for (const auto& adv : adversaries_) {
      bool banned = false;
      for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
        if (adversary_hosts_.contains(i)) continue;
        if (scenario_->node(i).peers().ever_banned(adv->host().id())) {
          banned = true;
          break;
        }
      }
      if (banned) ++report.attackers_banned;
    }
  }
  report.eclipse_victims = eclipse_victims_.size();
  for (const auto& adv : eclipse_adversaries_) {
    const EclipseCounters& c = adv->counters();
    report.eclipse_sybils += adv->sybils().size();
    report.eclipse_table_floods += c.table_floods;
    report.eclipse_status_floods += c.status_floods;
    report.eclipse_lookups_answered += c.lookups_answered;
    report.eclipse_withheld_requests += c.withheld_requests;
  }
  if (!eclipse_adversaries_.empty()) {
    for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
      if (adversary_hosts_.contains(i)) continue;
      const FullNode& node = scenario_->node(i);
      report.eclipse_suspicions += node.eclipse_suspicions();
      report.eclipse_recoveries += node.eclipse_recoveries();
    }
    report.isolation_seconds = isolation_seconds_;
    for (std::size_t idx : eclipse_victims_)
      if (victim_isolated(idx)) ++report.victims_eclipsed_at_end;
  }

  // Friendly-fire oracle: counted whenever something could cause it — an
  // attack run (defenses active), a consensus-bug run (validity
  // disagreement between honest peers must NOT feed the ban machinery), or
  // an eclipse run (recovery drops sessions, it must never ban them).
  if (!adversaries_.empty() || params_.scenario.clients.enabled ||
      !eclipse_adversaries_.empty()) {
    for (std::size_t i = 0; i < scenario_->node_count(); ++i) {
      if (adversary_hosts_.contains(i)) continue;
      const FullNode& node = scenario_->node(i);
      for (std::size_t j = 0; j < scenario_->node_count(); ++j) {
        if (j == i || adversary_hosts_.contains(j)) continue;
        if (node.peers().ever_banned(scenario_->node(j).id()))
          ++report.honest_ban_events;
      }
    }
  }
  for (std::size_t f = 0; f < family_list_.size(); ++f) {
    ChaosReport::ClientFamilyReport fr;
    fr.family = family_list_[f];
    for (std::size_t i = 0; i < scenario_->node_count(); ++i)
      if (scenario_->client_family_of(i) == fr.family) ++fr.nodes;
    fr.availability = summarize_availability(family_samples_[f], probe_);
    fr.divergence_seconds = family_divergence_seconds_[f];
    report.client_families.push_back(fr);
  }
  report.availability = summarize_availability(availability_samples_, probe_);
  report.telemetry = registry_.snapshot();
  report.fingerprint = fingerprint(report.telemetry);
  return report;
}

}  // namespace forksim::sim
