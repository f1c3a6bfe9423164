#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

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

// Validation runs before any member that could do work is built, so a bad
// sweep config fails at construction with a named field, not mid-run. An
// attack run then hardens every honest node, and an eclipse run with
// defenses switches their eclipse-resistance stack on; any other run
// leaves the scenario params untouched, so its fingerprints match builds
// without those layers.
ChaosParams prepared(ChaosParams p) {
  p.validate();
  if (p.adversaries.fraction > 0)
    p.scenario.node_options.hardening.enabled = true;
  if (p.eclipse.budget > 0 && p.eclipse.defenses)
    p.scenario.node_options.eclipse.enabled = true;
  return p;
}

constexpr std::array<AdversaryKind, 4> kAdversaryKinds = {
    AdversaryKind::kInvalidForger, AdversaryKind::kWithholder,
    AdversaryKind::kTxSpammer, AdversaryKind::kEquivocator};

}  // namespace

ChaosRunner::ChaosRunner(ChaosParams params)
    : params_(prepared(std::move(params))),
      rng_(params_.scenario.seed ^ 0xc8a05f4d2b179e63ull),
      tracer_([this] { return scenario_->loop().now(); }),
      scenario_(std::make_unique<ForkScenario>(params_.scenario)) {
  faults_ = std::make_unique<p2p::FaultInjector>(scenario_->loop(),
                                                 rng_.fork());
  faults_->attach_to(scenario_->network());
  faults_->set_extra_loss(params_.extra_loss);
  faults_->set_duplicate_prob(params_.duplicate_prob);
  faults_->set_reorder_prob(params_.reorder_prob);
  install_cut();
  // Casting draws no rng, so it can precede churn (which exempts every
  // role) without shifting the draw sequence.
  cast_roles();
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

std::size_t ChaosRunner::anchor_of(std::size_t i) const {
  return scenario_->is_eth_node(i) ? 0 : params_.scenario.nodes_eth;
}

std::vector<p2p::NodeId> ChaosRunner::rejoin_bootstrap_for(
    std::size_t i) const {
  return {scenario_->node(anchor_of(i)).id()};
}

void ChaosRunner::cast_roles() {
  const std::size_t n = scenario_->node_count();
  roles_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (anchor_of(i) == i) roles_[i] |= kAnchor;
    for (std::size_t m = 0; m < scenario_->miner_count(); ++m)
      if (&scenario_->miner(m).node() == &scenario_->node(i))
        roles_[i] |= kMinerHost;
  }
  // Each later pick takes only nodes with no role yet, by index alone.
  // Adversary hosts: the highest-indexed ones.
  auto hostile = static_cast<std::size_t>(
      std::ceil(params_.adversaries.fraction * static_cast<double>(n)));
  for (std::size_t i = n; i-- > 0 && hostile > 0;)
    if (roles_[i] == 0) {
      roles_[i] = kAdversaryHost;
      --hostile;
    }
  if (params_.eclipse.budget == 0) return;
  // Eclipse victims: the lowest-indexed ETH-side ones; swarm hosts: the
  // highest-indexed ones left (either side).
  for (std::size_t i = 0; i < params_.scenario.nodes_eth &&
                          eclipse_victims_.size() < params_.eclipse.victims;
       ++i)
    if (roles_[i] == 0) eclipse_victims_.push_back(i);
  if (eclipse_victims_.size() < params_.eclipse.victims)
    throw std::invalid_argument(
        "ChaosParams::eclipse.victims: only " +
        std::to_string(eclipse_victims_.size()) +
        " eligible ETH-side nodes for " +
        std::to_string(params_.eclipse.victims) + " victims");
  for (std::size_t i : eclipse_victims_) roles_[i] = kEclipseVictim;
  for (std::size_t i = n;
       i-- > 0 && eclipse_hosts_.size() < eclipse_victims_.size();)
    if (roles_[i] == 0) {
      roles_[i] = kSwarmHost;
      eclipse_hosts_.push_back(i);
    }
  if (eclipse_hosts_.size() < eclipse_victims_.size())
    throw std::invalid_argument(
        "ChaosParams::eclipse: not enough eligible nodes to host " +
        std::to_string(eclipse_victims_.size()) + " sybil swarms");
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
  std::vector<char> cut(n, 0);
  for (std::size_t i : cut_members_) cut[i] = 1;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (cut[i] != cut[j])
        faults_->schedule_link_cut(scenario_->node(i).id(),
                                   scenario_->node(j).id(),
                                   params_.cut_start, params_.cut_duration);
}

void ChaosRunner::install_churn() {
  // churn hits only role-free nodes: anchors and miner hosts are the
  // network's stable core, an attacker that crashes is no test of defenses,
  // and the runner schedules an eclipse victim's reboot itself
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < roles_.size(); ++i)
    if (roles_[i] == 0) candidates.push_back(i);
  const auto count = static_cast<std::size_t>(std::ceil(
      params_.churn_fraction * static_cast<double>(roles_.size())));
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
        const std::vector<p2p::NodeId> rejoin =
            rejoin_bootstrap_for(ev.node_index);
        if (is_cold) {
          // the crash mangled the disk tail; recovery scans and repairs
          if (ev.node_index < disks_.size())
            disks_[ev.node_index]->crash();
          const RecoveryOutcome out = node.cold_restart(rejoin);
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
  auto& loop = scenario_->loop();
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    if (honest(i)) continue;
    AdversaryOptions opt;
    opt.kind = kAdversaryKinds[adversaries_.size() % kAdversaryKinds.size()];
    opt.interval = params_.adversaries.interval;
    auto adv =
        std::make_unique<Adversary>(scenario_->node(i), opt, rng_.fork());
    Adversary* raw = adv.get();
    // first attack round fires at start + interval
    loop.schedule(params_.adversaries.start, [raw] { raw->start(); });
    adversaries_.push_back(std::move(adv));
  }
}

void ChaosRunner::install_eclipse() {
  if (eclipse_victims_.empty()) return;
  auto& loop = scenario_->loop();
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
  isolation_seconds_.assign(eclipse_victims_.size(), 0.0);

  // Region oracle (the IP-prefix analog): every honest node is its own
  // group — an honest peer set never looks homogeneous — while all sybils
  // of swarm k share group 100+k, which is exactly what the diversity caps
  // and the isolation detector key on. Unknown ids (none in practice) fall
  // back to a stable id-derived group. The oracle is only consulted once
  // the run starts, so the sybils can join the map after it is installed.
  auto regions = std::make_shared<
      std::unordered_map<p2p::NodeId, std::uint32_t, p2p::NodeIdHasher>>();
  const auto region_fn = [regions](const p2p::NodeId& id) -> std::uint32_t {
    const auto it = regions->find(id);
    if (it != regions->end()) return it->second;
    return 0x80000000u | (static_cast<std::uint32_t>(id.data()[0]) << 8) |
           id.data()[1];
  };
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    (*regions)[scenario_->node(i).id()] =
        1000u + static_cast<std::uint32_t>(i);
    scenario_->node(i).set_region_fn(region_fn);
  }
  for (std::size_t k = 0; k < eclipse_adversaries_.size(); ++k)
    for (const p2p::NodeId& sybil : eclipse_adversaries_[k]->sybils())
      (*regions)[sybil] = 100u + static_cast<std::uint32_t>(k);

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
  sample_every(params_.eclipse.interval, &ChaosRunner::eclipse_tick);
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

// Runs `tick` every `interval` seconds from t = interval through the end of
// the settle window. Ticks only read node state — no messages, no rng
// draws — so a sampled run replays draw for draw like an unsampled one.
void ChaosRunner::sample_every(double interval, void (ChaosRunner::*tick)()) {
  scenario_->loop().schedule(interval, [this, interval, tick] {
    (this->*tick)();
    if (scenario_->loop().now() + interval <=
        params_.mining_duration + params_.settle_deadline)
      sample_every(interval, tick);
  });
}

void ChaosRunner::eclipse_tick() {
  for (std::size_t v = 0; v < eclipse_victims_.size(); ++v)
    if (victim_isolated(eclipse_victims_[v]))
      isolation_seconds_[v] += params_.eclipse.interval;
}

void ChaosRunner::install_probe() {
  probe_ = params_.probe;
  if (!probe_.enabled) return;
  // Per-family sampling rides on the probe: one timeline per mix slice.
  if (params_.scenario.clients.enabled) {
    family_samples_.resize(params_.scenario.clients.mix.size());
    family_divergence_seconds_.assign(family_samples_.size(), 0.0);
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
  sample_every(probe_.interval, &ChaosRunner::probe_tick);
}

void ChaosRunner::probe_tick() {
  // Availability is a statement about the honest population: adversary
  // hosts neither count toward a quorum nor define a side's head.
  SideHeights best{};
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    const FullNode& node = scenario_->node(i);
    if (!honest(i) || !node.running()) continue;
    auto& side = best[scenario_->is_eth_node(i) ? 0 : 1];
    side = std::max(side, node.chain().height());
  }
  const double t = scenario_->loop().now();
  AvailabilitySample s;
  s.t = t;
  s.eth_ok = meets_quorum(best, [&](std::size_t i) {
    return scenario_->is_eth_node(i);
  });
  s.etc_ok = meets_quorum(best, [&](std::size_t i) {
    return !scenario_->is_eth_node(i);
  });
  availability_samples_.push_back(s);
  for (std::size_t f = 0; f < family_samples_.size(); ++f) {
    const ClientFamily family = params_.scenario.clients.mix[f].family;
    // A family spans BOTH fork sides, each member judged against its own
    // side's best height (an ETC-side parity node lagging the ETH tip is
    // not degraded — the fork, not the bug, put it there). Its single
    // verdict is mirrored into both slots so summarize_availability folds
    // it unchanged.
    AvailabilitySample fs;
    fs.t = t;
    fs.eth_ok = fs.etc_ok = meets_quorum(best, [&](std::size_t i) {
      return scenario_->client_family_of(i) == family;
    });
    family_samples_[f].push_back(fs);
    if (family_diverged(family))
      family_divergence_seconds_[f] += probe_.interval;
  }
}

// Quorum over the honest nodes `member` selects: at least quorum_fraction
// of them run within max_head_lag blocks of their own side's best height.
template <class Member>
bool ChaosRunner::meets_quorum(const SideHeights& best, Member member) const {
  std::size_t members = 0, live_and_synced = 0;
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    if (!honest(i) || !member(i)) continue;
    ++members;
    const FullNode& node = scenario_->node(i);
    if (node.running() && node.chain().height() + probe_.max_head_lag >=
                              best[scenario_->is_eth_node(i) ? 0 : 1])
      ++live_and_synced;
  }
  if (members == 0) return false;
  // epsilon guards exact-threshold quorums (0.6 * 5 = 3.0000000000000004)
  return static_cast<double>(live_and_synced) + 1e-9 >=
         probe_.quorum_fraction * static_cast<double>(members);
}

bool ChaosRunner::family_diverged(ClientFamily family) const {
  // The family is diverged while any running honest member holds a head
  // its own side's anchor does not consider canonical: behind-but-on-chain
  // heads are canonical in the anchor's view, competing-branch heads are
  // not. (Anchors are churn-exempt, so "anchor down" only happens in
  // hand-built tests; treat it as no evidence.)
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    if (!honest(i) || scenario_->client_family_of(i) != family) continue;
    const FullNode& node = scenario_->node(i);
    if (!node.running() || anchor_of(i) == i) continue;
    const FullNode& anchor = scenario_->node(anchor_of(i));
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
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    const FullNode& node = scenario_->node(i);
    // Adversary hosts don't count: a banned attacker legitimately lags
    // while its victims refuse to serve it.
    if (!node.running() || !honest(i)) continue;
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
  const auto u64 = [&](std::uint64_t v) {
    const auto be = be_fixed64(v);
    h.update(BytesView(be.data(), be.size()));
  };
  // sim-time values fold as whole microseconds
  const auto fx = [&](double v) {
    u64(static_cast<std::uint64_t>(std::llround(v * 1e6)));
  };
  const std::size_t n = scenario_->node_count();
  for (std::size_t i = 0; i < n; ++i) {
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
  // Each layer below folds only when it is on, so a run without it keeps
  // the bytes it had before the layer existed.
  if (!stores_.empty()) {
    u64(stores_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const NodeCounters& c = scenario_->node(i).counters();
      u64(c.cold_restarts);
      u64(c.recovery_scanned);
      u64(c.recovery_corrupt);
      u64(c.recovery_replayed);
      u64(c.recovery_rejects);
      u64(stores_[i]->record_count());
      const db::DiskCounters& d = disks_[i]->counters();
      u64(d.appends);
      u64(d.crashes);
      u64(d.torn_writes);
      u64(d.tail_truncations);
      u64(d.bits_flipped);
    }
  }
  if (probe_.enabled) {
    u64(availability_samples_.size());
    for (const AvailabilitySample& s : availability_samples_) {
      fx(s.t);
      u64(s.eth_ok ? 1 : 0);
      u64(s.etc_ok ? 1 : 0);
    }
    fx(probe_.failure_start);
    fx(probe_.failure_end);
  }
  if (params_.scenario.clients.enabled) {
    u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeCounters& c = scenario_->node(i).counters();
      u64(static_cast<std::uint64_t>(scenario_->client_family_of(i)));
      u64(c.disputed_blocks);
      u64(c.divergence_events);
      u64(c.consensus_patches);
    }
    if (scenario_->quirk_rules() != nullptr) {
      u64(scenario_->quirk_rules()->disputes());
      u64(scenario_->quirk_rules()->patched() ? 1 : 0);
    }
    for (std::size_t k = 0; k < family_samples_.size(); ++k) {
      u64(family_samples_[k].size());
      for (const AvailabilitySample& s : family_samples_[k]) {
        fx(s.t);
        u64(s.eth_ok ? 1 : 0);
      }
      fx(family_divergence_seconds_[k]);
    }
  }
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
  if (!eclipse_adversaries_.empty()) {
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
      fx(isolation_seconds_[v]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const NodeCounters& c = scenario_->node(i).counters();
      u64(c.eclipse_suspicions);
      u64(c.eclipse_recoveries);
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

  const bool attack = !adversaries_.empty();
  const bool eclipse = !eclipse_adversaries_.empty();
  const bool durable = !stores_.empty();
  // Friendly-fire oracle: counted whenever something could cause it — an
  // attack run (defenses active), a consensus-bug run (validity
  // disagreement between honest peers must NOT feed the ban machinery), or
  // an eclipse run (recovery drops sessions, it must never ban them).
  const bool friendly_fire =
      attack || eclipse || params_.scenario.clients.enabled;

  report.height_eth = scenario_->best_height_eth();
  report.height_etc = scenario_->best_height_etc();
  report.crashes = crashes_;
  report.restarts = restarts_;
  report.messages_sent = scenario_->network().messages_sent();
  report.faults = faults_->counters();
  report.recovery_seconds = recovery_seconds_;
  report.adversaries = adversaries_.size();
  report.eclipse_victims = eclipse_victims_.size();
  report.isolation_seconds = isolation_seconds_;
  for (std::size_t f = 0; f < family_samples_.size(); ++f) {
    ChaosReport::ClientFamilyReport fr;
    fr.family = params_.scenario.clients.mix[f].family;
    fr.availability = summarize_availability(family_samples_[f], probe_);
    fr.divergence_seconds = family_divergence_seconds_[f];
    report.client_families.push_back(fr);
  }

  // One pass over the nodes. An adversary host counts in the network-wide
  // sums but not in the honest-defense ones; an attacker counts as banned
  // once any honest node banned it.
  std::vector<char> attacker_banned(roles_.size(), 0);
  for (std::size_t i = 0; i < roles_.size(); ++i) {
    FullNode& node = scenario_->node(i);
    const NodeCounters& c = node.counters();
    if (node.running())
      ++(scenario_->is_eth_node(i) ? report.survivors_eth
                                   : report.survivors_etc);
    report.sync_timeouts += c.sync_timeouts;
    report.sync_retries += c.sync_retries;
    report.dial_attempts += c.dial_attempts;
    report.peers_banned += node.peers_banned();
    report.disputed_blocks += c.disputed_blocks;
    report.divergence_events += c.divergence_events;
    report.consensus_patches += c.consensus_patches;
    report.cold_restarts += c.cold_restarts;
    report.store_replay_rejected += c.recovery_rejects;
    for (ChaosReport::ClientFamilyReport& fr : report.client_families)
      if (scenario_->client_family_of(i) == fr.family) ++fr.nodes;
    if (durable) {
      report.store_records_scanned += c.recovery_scanned;
      report.store_corrupt_records += c.recovery_corrupt;
      report.store_blocks_replayed += c.recovery_replayed;
      const db::DiskCounters& d = disks_[i]->counters();
      report.store_appends += d.appends;
      report.disk_torn_writes += d.torn_writes;
      report.disk_tail_truncations += d.tail_truncations;
      report.disk_bits_flipped += d.bits_flipped;
    }
    if ((roles_[i] & kEclipseVictim) && victim_isolated(i))
      ++report.victims_eclipsed_at_end;
    if (!honest(i)) continue;
    if (attack) {
      report.wasted_executions += c.wasted_executions;
      report.invalid_cache_hits += c.invalid_cache_hits;
      report.rate_limited += c.rate_limited;
      report.txpool_evictions += node.txpool().evictions();
    }
    if (eclipse) {
      report.eclipse_suspicions += c.eclipse_suspicions;
      report.eclipse_recoveries += c.eclipse_recoveries;
    }
    if (!friendly_fire) continue;
    for (std::size_t j = 0; j < roles_.size(); ++j) {
      if (j == i || !node.peers().ever_banned(scenario_->node(j).id()))
        continue;
      if (honest(j))
        ++report.honest_ban_events;
      else
        attacker_banned[j] = 1;
    }
  }
  report.attackers_banned = static_cast<std::size_t>(
      std::count(attacker_banned.begin(), attacker_banned.end(), 1));
  for (const auto& adv : adversaries_) {
    const AdversaryCounters& c = adv->counters();
    report.blocks_forged += c.blocks_forged;
    report.phantom_announcements += c.phantom_announcements;
    report.txs_spammed += c.txs_spammed;
    report.equivocations += c.equivocations;
  }
  for (const auto& adv : eclipse_adversaries_) {
    const EclipseCounters& c = adv->counters();
    report.eclipse_sybils += adv->sybils().size();
    report.eclipse_table_floods += c.table_floods;
    report.eclipse_status_floods += c.status_floods;
    report.eclipse_lookups_answered += c.lookups_answered;
    report.eclipse_withheld_requests += c.withheld_requests;
  }
  report.availability = summarize_availability(availability_samples_, probe_);
  report.telemetry = registry_.snapshot();
  report.fingerprint = fingerprint(report.telemetry);
  return report;
}

}  // namespace forksim::sim
