#include "p2p/peers.hpp"

#include <algorithm>

namespace forksim::p2p {

namespace {

/// Session score at (or below) which a peer is dropped and banned.
constexpr int kBanScore = -5;
/// Score ceiling so long-lived good peers can't bank unlimited credit.
constexpr int kMaxScore = 8;
/// How long a banned peer stays un-dialable (sim seconds).
constexpr double kBanSeconds = 180.0;
/// Active peer silent for this long -> send a keepalive ping.
constexpr double kPingAfter = 30.0;
/// Still silent this long after the ping -> drop as unresponsive. This is
/// what unsticks sessions to crashed peers (churn): the remote never said
/// goodbye, so only silence gives it away.
constexpr double kDropAfter = 90.0;

}  // namespace

bool TokenBucket::take(SimTime now, double cost) {
  if (!enabled()) return true;
  if (now > last) {
    tokens = std::min(capacity, tokens + (now - last) * rate);
    last = now;
  }
  if (tokens < cost) return false;
  tokens -= cost;
  return true;
}

bool BoundedHashSet::insert(const Hash256& h) {
  if (!set_.insert(h).second) return false;
  order_.push_back(h);
  if (order_.size() > kCapacity) {
    set_.erase(order_.front());
    order_.pop_front();
  }
  return true;
}

std::size_t PeerSession::note_child(const Hash256& parent,
                                    const Hash256& child) {
  auto it = children_seen.find(parent);
  if (it == children_seen.end()) {
    children_seen.emplace(parent, std::vector<Hash256>{child});
    children_order.push_back(parent);
    if (children_order.size() > 256) {
      children_seen.erase(children_order.front());
      children_order.pop_front();
    }
    return 1;
  }
  auto& kids = it->second;
  if (std::find(kids.begin(), kids.end(), child) == kids.end())
    kids.push_back(child);
  return kids.size();
}

std::size_t PeerSet::active_count() const {
  std::size_t n = 0;
  for (const auto& [_, s] : sessions_)
    if (s.state == PeerState::kActive) ++n;
  return n;
}

std::vector<NodeId> PeerSet::session_ids() const {
  std::vector<NodeId> out;
  out.reserve(sessions_.size());
  for (const auto& [id, _] : sessions_) out.push_back(id);
  return out;
}

PeerSession* PeerSet::session(const NodeId& id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const PeerSession* PeerSet::session(const NodeId& id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

std::vector<NodeId> PeerSet::active_peers() const {
  std::vector<NodeId> out;
  for (const auto& [id, s] : sessions_)
    if (s.state == PeerState::kActive) out.push_back(id);
  return out;
}

bool PeerSet::connect(const NodeId& id) {
  if (sessions_.contains(id) || !has_capacity() || is_banned(id)) return false;
  PeerSession s;
  s.inbound = false;
  s.last_message = now();
  sessions_.emplace(id, std::move(s));
  cb_.send(id, Message{cb_.make_status()});
  return true;
}

void PeerSet::disconnect(const NodeId& id, DisconnectReason reason) {
  drop(id, reason, /*notify_remote=*/true);
}

void PeerSet::drop(const NodeId& id, DisconnectReason reason,
                   bool notify_remote) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (notify_remote) cb_.send(id, Message{Disconnect{reason}});
  sessions_.erase(it);
  if (reason == DisconnectReason::kWrongFork) ++wrong_fork_drops_;
  if (cb_.on_drop) cb_.on_drop(id, reason);
}

bool PeerSet::inbound_over_caps(const NodeId& from) const {
  if (policy_.max_inbound == 0 && policy_.inbound_group_cap == 0) return false;
  std::size_t inbound_total = 0;
  std::size_t same_group = 0;
  const std::uint32_t group = group_fn_ ? group_fn_(from) : 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.inbound) continue;
    ++inbound_total;
    if (group_fn_ && group_fn_(id) == group) ++same_group;
  }
  if (policy_.max_inbound > 0 && inbound_total >= policy_.max_inbound)
    return true;
  return policy_.inbound_group_cap > 0 && group_fn_ &&
         same_group >= policy_.inbound_group_cap;
}

void PeerSet::on_status(const NodeId& from, const Status& status) {
  auto it = sessions_.find(from);
  const bool inbound = it == sessions_.end();
  if (inbound) {
    if (inbound_over_caps(from)) {
      ++inbound_rejections_;
      cb_.send(from, Message{Disconnect{DisconnectReason::kTooManyPeers}});
      return;
    }
    if (!has_capacity() || is_banned(from)) {
      cb_.send(from, Message{Disconnect{DisconnectReason::kTooManyPeers}});
      return;
    }
    PeerSession s;
    s.inbound = true;
    s.last_message = now();
    it = sessions_.emplace(from, std::move(s)).first;
    // reciprocate the handshake
    cb_.send(from, Message{cb_.make_status()});
  }
  PeerSession& session = it->second;
  if (session.state != PeerState::kHandshaking) {
    if (session.state == PeerState::kAwaitingDaoHeader) return;  // duplicate
    // A Status on an established session means the remote restarted (our
    // transport has no connection teardown, so a crashed peer's session
    // lingers until something breaks the silence). Re-handshake: reset the
    // session, reciprocate, and fall through to re-validate.
    session.state = PeerState::kHandshaking;
    session.stalled_ticks = 0;
    session.ping_outstanding = false;
    cb_.send(from, Message{cb_.make_status()});
  }

  if (status.network_id != network_id_ ||
      status.genesis_hash != genesis_hash_) {
    drop(from, DisconnectReason::kIncompatibleNetwork, true);
    return;
  }
  session.remote = status;

  // The DAO challenge: if we have a fork-height header, demand the peer's.
  if (cb_.dao_header && cb_.dao_header().has_value()) {
    session.state = PeerState::kAwaitingDaoHeader;
    cb_.send(from, Message{GetDaoHeader{}});
    return;
  }
  activate(from);
}

std::size_t PeerSet::reap_stalled(std::uint32_t max_ticks) {
  const SimTime t = now();
  std::vector<NodeId> dead;
  std::size_t liveness_dead = 0;
  for (auto& [id, session] : sessions_) {
    if (session.state == PeerState::kActive) {
      session.stalled_ticks = 0;
      const SimTime silent = t - session.last_message;
      if (silent > kDropAfter && session.ping_outstanding) {
        dead.push_back(id);
        ++liveness_dead;
      } else if (silent > kPingAfter && !session.ping_outstanding) {
        session.ping_outstanding = true;
        cb_.send(id, Message{Ping{}});
      }
      continue;
    }
    if (++session.stalled_ticks > max_ticks) dead.push_back(id);
  }
  liveness_drops_ += liveness_dead;
  for (const NodeId& id : dead)
    drop(id, DisconnectReason::kUselessPeer, /*notify_remote=*/true);
  // lapsed bans come off the list so the dialer can try those peers again
  std::erase_if(banned_, [t](const auto& kv) { return kv.second <= t; });
  return dead.size();
}

void PeerSet::touch(const NodeId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  it->second.last_message = now();
  it->second.ping_outstanding = false;
}

void PeerSet::note_useful(const NodeId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  it->second.score = std::min(it->second.score + 1, kMaxScore);
}

void PeerSet::note_timeout(const NodeId& id) { penalize(id, 1); }

void PeerSet::note_garbage(const NodeId& id) { penalize(id, 3); }

void PeerSet::note_spam(const NodeId& id) {
  ++spam_penalties_;
  penalize(id, 1);
}

void PeerSet::penalize(const NodeId& id, int amount) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  it->second.score -= amount;
  if (it->second.score > kBanScore) return;
  banned_[id] = now() + kBanSeconds;
  ban_history_.insert(id);
  ++bans_;
  drop(id, DisconnectReason::kUselessPeer, /*notify_remote=*/true);
}

bool PeerSet::is_banned(const NodeId& id) const {
  auto it = banned_.find(id);
  return it != banned_.end() && it->second > now();
}

void PeerSet::reset() { sessions_.clear(); }

void PeerSet::rechallenge(const NodeId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.state != PeerState::kActive) return;
  it->second.state = PeerState::kAwaitingDaoHeader;
  cb_.send(id, Message{GetDaoHeader{}});
}

void PeerSet::activate(const NodeId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  it->second.state = PeerState::kActive;
  if (cb_.on_active) cb_.on_active(id, it->second.remote);
}

bool PeerSet::handle(const NodeId& from, const Message& msg) {
  return std::visit(
      [&](const auto& m) -> bool {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Status>) {
          on_status(from, m);
          return true;
        } else if constexpr (std::is_same_v<T, GetDaoHeader>) {
          DaoHeader reply;
          if (cb_.dao_header) reply.header = cb_.dao_header();
          cb_.send(from, Message{std::move(reply)});
          return true;
        } else if constexpr (std::is_same_v<T, DaoHeader>) {
          auto it = sessions_.find(from);
          if (it == sessions_.end()) return true;
          if (it->second.state != PeerState::kAwaitingDaoHeader) return true;
          if (cb_.check_dao_header && !cb_.check_dao_header(m.header)) {
            drop(from, DisconnectReason::kWrongFork, true);
            return true;
          }
          activate(from);
          return true;
        } else if constexpr (std::is_same_v<T, Disconnect>) {
          drop(from, m.reason, /*notify_remote=*/false);
          return true;
        } else {
          return false;  // eth payload messages are the node's business
        }
      },
      msg);
}

void PeerSet::attach_telemetry(obs::Registry& reg) {
  reg.bind("peers.wrong_fork_drops", wrong_fork_drops_);
  reg.bind("peers.bans", bans_);
  reg.bind("peers.liveness_drops", liveness_drops_);
  reg.bind("peers.spam_penalties", spam_penalties_, &spam_penalties_);
  reg.bind("peers.inbound_rejections", inbound_rejections_,
           &inbound_rejections_);
}

}  // namespace forksim::p2p
