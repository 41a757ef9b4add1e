#include "routing/link_state.hpp"

#include <algorithm>
#include <cassert>

#include "routing/install.hpp"
#include "util/log.hpp"

namespace fatih::routing {

namespace {
constexpr std::uint32_t kHelloBytes = 24;
constexpr const char* kComponent = "link-state";
}  // namespace

LinkStateRouting::LinkStateRouting(sim::Network& net, const crypto::KeyRegistry& keys,
                                   LinkStateConfig config)
    : net_(net), keys_(keys), config_(config) {
  daemons_.resize(net_.node_count());
  for (util::NodeId n = 0; n < net_.node_count(); ++n) {
    daemons_[n].id = n;
    daemons_[n].is_router = net_.is_router(n);
    net_.node(n).add_control_sink([this, n](const sim::Packet& p, util::NodeId prev,
                                            util::SimTime) { on_control(n, p, prev); });
  }
  // A restarted router comes back with empty soft state (adjacencies,
  // LSDB, response state) but a monotonic LSA sequence number.
  net_.add_node_status_hook([this](util::NodeId id, bool up, util::SimTime) {
    if (up) reset_soft_state(id);
  });
}

void LinkStateRouting::start() {
  for (util::NodeId n = 0; n < net_.node_count(); ++n) {
    if (!net_.is_router(n)) continue;  // hosts don't participate in adjacency formation
    // Stagger first hellos across the interval to avoid lockstep.
    const auto offset = util::Duration::nanos(
        net_.rng().uniform_int(0, config_.hello_interval.count_nanos() - 1));
    net_.sim().schedule_in(offset, [this, n] { send_hello(n); });
    net_.sim().schedule_in(offset + config_.hello_interval, [this, n] { scan_neighbors(n); });
  }
}

void LinkStateRouting::send_hello(util::NodeId n) {
  // The timer keeps ticking while the node is down (deterministic event
  // pattern); a down node just doesn't emit.
  net_.sim().schedule_in(config_.hello_interval, [this, n] { send_hello(n); });
  if (!net_.node_up(n)) return;
  auto payload = std::make_shared<HelloPayload>();
  payload->from = n;
  auto& node = net_.node(n);
  for (std::size_t i = 0; i < node.interface_count(); ++i) {
    auto& iface = node.interface(i);
    if (!net_.is_router(iface.peer())) continue;  // hosts don't form adjacencies
    sim::PacketHeader hdr;
    hdr.src = n;
    hdr.dst = iface.peer();
    hdr.proto = sim::Protocol::kControl;
    sim::Packet p = net_.make_packet(hdr, kHelloBytes);
    p.control = payload;
    iface.send(p);
  }
}

void LinkStateRouting::scan_neighbors(util::NodeId n) {
  net_.sim().schedule_in(config_.hello_interval, [this, n] { scan_neighbors(n); });
  if (!net_.node_up(n)) return;
  Daemon& d = daemons_[n];
  const auto now = net_.sim().now();
  bool withdrew = false;
  for (auto it = d.neighbors_up.begin(); it != d.neighbors_up.end();) {
    const auto heard = d.last_hello.find(*it);
    if (heard == d.last_hello.end() || heard->second + config_.dead_interval <= now) {
      util::log(util::LogLevel::kInfo, kComponent, "%s declares neighbor %s dead",
                net_.node(n).name().c_str(), util::node_name(*it).c_str());
      if (heard != d.last_hello.end()) d.last_hello.erase(heard);
      it = d.neighbors_up.erase(it);
      withdrew = true;
    } else {
      ++it;
    }
  }
  if (withdrew) {
    originate_lsa(n);  // withdraw the dead adjacency from the fabric
    schedule_spf(n);
  }
}

void LinkStateRouting::on_control(util::NodeId n, const sim::Packet& p, util::NodeId prev) {
  if (p.control == nullptr) return;
  Daemon& d = daemons_[n];
  switch (p.control->kind()) {
    case kKindHello: {
      if (!d.is_router) break;  // hosts ignore adjacency formation
      const auto& hello = static_cast<const HelloPayload&>(*p.control);
      d.last_hello[hello.from] = net_.sim().now();
      if (!d.neighbors_up.contains(hello.from)) {
        d.neighbors_up.insert(hello.from);
        originate_lsa(n);
        synchronize_lsdb(n, hello.from);
      }
      break;
    }
    case kKindLsa: {
      const auto& lsa = static_cast<const LsaPayload&>(*p.control);
      if (!crypto::verify(keys_, lsa.envelope)) return;
      if (lsa.envelope.signer != lsa.origin) return;
      auto it = d.lsdb.find(lsa.origin);
      if (it != d.lsdb.end() && it->second.seq >= lsa.seq) return;  // stale/duplicate
      d.lsdb[lsa.origin] = lsa;
      flood(n, std::shared_ptr<const sim::ControlPayload>(p.control), p.size_bytes, prev);
      if (d.is_router) schedule_spf(n);
      break;
    }
    case kKindAlert: {
      const auto& alert = static_cast<const AlertPayload&>(*p.control);
      if (!crypto::verify(keys_, alert.envelope)) return;
      if (alert.envelope.signer != alert.reporter) return;
      if (!remember_alert(d, alert)) return;
      flood(n, std::shared_ptr<const sim::ControlPayload>(p.control), p.size_bytes, prev);
      if (d.is_router) accept_alert(n, alert);
      break;
    }
    default:
      break;
  }
}

void LinkStateRouting::originate_lsa(util::NodeId n) {
  Daemon& d = daemons_[n];
  if (!net_.node_up(n)) return;
  const auto now = net_.sim().now();
  if (now - d.last_lsa < config_.lsa_min_interval) {
    if (!d.lsa_pending) {
      d.lsa_pending = true;
      net_.sim().schedule_at(d.last_lsa + config_.lsa_min_interval, [this, n] {
        daemons_[n].lsa_pending = false;
        originate_lsa(n);
      });
    }
    return;
  }
  d.last_lsa = now;

  auto lsa = std::make_shared<LsaPayload>();
  lsa->origin = n;
  lsa->seq = ++d.own_seq;
  auto& node = net_.node(n);
  for (std::size_t i = 0; i < node.interface_count(); ++i) {
    const util::NodeId peer = node.interface(i).peer();
    if (net_.is_router(peer)) {
      // Router adjacencies require a live hello exchange.
      if (!d.neighbors_up.contains(peer)) continue;
    } else {
      // Host-attached interfaces are stub links, advertised whenever the
      // link itself is up (hosts don't hello).
      if (!node.interface(i).up()) continue;
    }
    std::uint32_t metric = 1;
    // Metric comes from the physical adjacency table.
    for (const auto& adj : net_.adjacencies()) {
      if (adj.from == n && adj.to == peer) {
        metric = adj.metric;
        break;
      }
    }
    lsa->neighbors.push_back(Topology::Edge{peer, metric});
  }
  lsa->envelope = crypto::sign(keys_, n, lsa_bytes(*lsa));

  // Accept our own LSA locally, then flood.
  d.lsdb[n] = *lsa;
  const std::uint32_t bytes = 48 + 8 * static_cast<std::uint32_t>(lsa->neighbors.size());
  flood(n, lsa, bytes, util::kInvalidNode);
  schedule_spf(n);
}

void LinkStateRouting::flood(util::NodeId n, std::shared_ptr<const sim::ControlPayload> payload,
                             std::uint32_t bytes, util::NodeId except_peer) {
  // A protocol-faulty daemon simply refuses to propagate (it can still
  // originate its own traffic, which except_peer == kInvalidNode marks).
  if (suppressed_.contains(n) && except_peer != util::kInvalidNode) return;
  if (!net_.node_up(n)) return;
  auto& node = net_.node(n);
  for (std::size_t i = 0; i < node.interface_count(); ++i) {
    auto& iface = node.interface(i);
    if (iface.peer() == except_peer) continue;
    if (!net_.is_router(iface.peer())) continue;  // hosts don't participate in flooding
    sim::PacketHeader hdr;
    hdr.src = n;
    hdr.dst = iface.peer();
    hdr.proto = sim::Protocol::kControl;
    sim::Packet p = net_.make_packet(hdr, bytes);
    p.control = payload;
    iface.send(p);
  }
}

void LinkStateRouting::synchronize_lsdb(util::NodeId n, util::NodeId peer) {
  // OSPF database-exchange analogue: a freshly formed adjacency receives a
  // copy of everything this router knows. Without it a restarted
  // (amnesiac) router would only relearn LSAs that happen to re-originate;
  // distant, unchanged LSAs never re-flood on their own. The receiver's
  // (origin, seq) dedup absorbs the duplicates.
  if (suppressed_.contains(n)) return;  // protocol-faulty: won't help peers
  Daemon& d = daemons_[n];
  auto* iface = net_.node(n).interface_to(peer);
  if (iface == nullptr) return;
  for (const auto& [origin, lsa] : d.lsdb) {
    auto payload = std::make_shared<LsaPayload>(lsa);
    sim::PacketHeader hdr;
    hdr.src = n;
    hdr.dst = peer;
    hdr.proto = sim::Protocol::kControl;
    const std::uint32_t bytes = 48 + 8 * static_cast<std::uint32_t>(lsa.neighbors.size());
    sim::Packet p = net_.make_packet(hdr, bytes);
    p.control = std::move(payload);
    iface->send(p);
  }
}

void LinkStateRouting::schedule_spf(util::NodeId n) {
  Daemon& d = daemons_[n];
  if (d.spf_scheduled) return;
  d.spf_scheduled = true;
  const auto now = net_.sim().now();
  auto when = now + config_.spf_delay;
  if (d.spf_ran_once && d.last_spf + config_.spf_hold > when) {
    when = d.last_spf + config_.spf_hold;
  }
  FATIH_TRACE_EMIT(net_.sim().trace(), route(now, obs::TraceCode::kSpfScheduled, n,
                                             util::kInvalidNode, when.nanos()));
  net_.sim().schedule_at(when, [this, n] { run_spf(n); });
}

namespace {
/// FNV-1a accumulation, for the installed-routes fingerprint.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
}
}  // namespace

void LinkStateRouting::run_spf(util::NodeId n) {
  Daemon& d = daemons_[n];
  d.spf_scheduled = false;
  if (!net_.node_up(n)) return;  // scheduled before a crash; drop on the floor
  d.spf_ran_once = true;
  d.last_spf = net_.sim().now();
  ++d.spf_count;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   route(d.last_spf, obs::TraceCode::kSpfRun, n, util::kInvalidNode, d.spf_count));

  // Build this router's topology view from its LSDB. Router-router edges
  // require two-way confirmation (both origins advertise each other) so a
  // crashed router's stale LSA cannot keep a withdrawn adjacency alive.
  // Host stub links are one-sided by construction — the attached router
  // vouches for them — and links are physically symmetric, so both get
  // added as duplex edges.
  Topology topo;
  if (net_.node_count() > 0) topo.ensure_node(static_cast<util::NodeId>(net_.node_count() - 1));
  for (const auto& [origin, lsa] : d.lsdb) {
    for (const auto& e : lsa.neighbors) {
      if (net_.is_router(e.to)) {
        const auto back = d.lsdb.find(e.to);
        if (back == d.lsdb.end()) continue;
        const auto& back_edges = back->second.neighbors;
        const bool reciprocal =
            std::any_of(back_edges.begin(), back_edges.end(),
                        [origin = origin](const Topology::Edge& r) { return r.to == origin; });
        if (!reciprocal) continue;
      }
      topo.add_duplex(origin, e.to, e.metric);
    }
  }
  d.view = topo;

  // Install routes, fingerprinting what goes in so we can tell an actual
  // table change from an SPF that recomputed the same answer.
  std::uint64_t sig = 1469598103934665603ULL;
  auto& router = net_.router(n);
  const PeerIndex peers(router, net_.node_count());
  router.clear_routes(net_.node_count());
  if (d.banned.empty()) {
    const RoutingTables tables(topo);
    const auto row = tables.row(n);
    for (util::NodeId dst = 0; dst < row.size(); ++dst) {
      if (row[dst] == util::kInvalidNode) continue;
      const std::uint32_t iface = peers.iface_to(row[dst]);
      if (iface == PeerIndex::kNone) continue;
      router.set_route(dst, iface);
      mix(sig, (static_cast<std::uint64_t>(dst) << 32) | iface);
    }
  } else {
    const PolicyRoutes routes(topo, d.banned);
    for (util::NodeId dst = 0; dst < net_.node_count(); ++dst) {
      if (dst == n) continue;
      if (auto nh = routes.next_hop(n, n, dst)) {
        if (const std::uint32_t iface = peers.iface_to(*nh); iface != PeerIndex::kNone) {
          router.set_route(dst, iface);
          mix(sig, (static_cast<std::uint64_t>(dst) << 32) | iface);
        }
      }
      for (std::size_t i = 0; i < router.interface_count(); ++i) {
        const util::NodeId prev = router.interface(i).peer();
        const auto nh = routes.next_hop(prev, n, dst);
        if (!nh) {
          router.set_policy_drop(prev, dst);
          mix(sig, (static_cast<std::uint64_t>(prev) << 40) | (static_cast<std::uint64_t>(dst) << 8));
        } else if (const std::uint32_t iface = peers.iface_to(*nh); iface != PeerIndex::kNone) {
          router.set_policy_route(prev, dst, iface);
          mix(sig, (static_cast<std::uint64_t>(prev) << 40) | (static_cast<std::uint64_t>(dst) << 8) |
                       (iface + 1));
        }
      }
    }
  }

  util::log(util::LogLevel::kInfo, kComponent, "%s ran SPF #%zu at %s",
            net_.node(n).name().c_str(), d.spf_count, util::to_string(d.last_spf).c_str());
  const bool changed = d.route_change_count == 0 || sig != d.route_signature;
  if (changed) {
    d.route_signature = sig;
    d.last_route_change = d.last_spf;
    ++d.route_change_count;
    FATIH_TRACE_EMIT(net_.sim().trace(), route(d.last_spf, obs::TraceCode::kRouteChange, n,
                                               util::kInvalidNode, d.route_change_count));
    for (const auto& hook : route_change_hooks_) hook(n, d.last_spf);
  }
}

void LinkStateRouting::accept_alert(util::NodeId n, const AlertPayload& alert) {
  Daemon& d = daemons_[n];
  // Countermeasure rule (§4.2.2): only a suspicion reported by a router
  // adjacent to the segment (i.e. one of its members) triggers exclusion;
  // anything else could be a faulty router framing correct ones at a
  // distance.
  if (!alert.segment.contains(alert.reporter)) return;
  for (const auto& b : d.banned) {
    if (b == alert.segment) return;
  }
  d.banned.push_back(alert.segment);
  util::log(util::LogLevel::kInfo, kComponent, "%s accepts alert %s from %s",
            net_.node(n).name().c_str(), alert.segment.to_string().c_str(),
            util::node_name(alert.reporter).c_str());
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   route(net_.sim().now(), obs::TraceCode::kAlertAccepted, n, alert.reporter));
  schedule_spf(n);
}

void LinkStateRouting::announce_suspicion(util::NodeId reporter, const PathSegment& segment,
                                          util::TimeInterval interval) {
  auto alert = std::make_shared<AlertPayload>();
  alert->reporter = reporter;
  alert->segment = segment;
  alert->interval = interval;
  alert->envelope = crypto::sign(keys_, reporter, alert_bytes(*alert));

  Daemon& d = daemons_[reporter];
  if (!remember_alert(d, *alert)) return;
  if (d.is_router) accept_alert(reporter, *alert);
  const std::uint32_t bytes = 48 + 8 * static_cast<std::uint32_t>(segment.length());
  flood(reporter, alert, bytes, util::kInvalidNode);
}

bool LinkStateRouting::remember_alert(Daemon& d, const AlertPayload& alert) {
  const auto now = net_.sim().now();
  // Age out records whose accusation interval ended long ago: by then the
  // alert has been applied (or superseded) everywhere, so the suppression
  // memory stays bounded by the alert arrival rate over one horizon
  // instead of growing for the lifetime of the run.
  for (auto it = d.seen_alerts.begin(); it != d.seen_alerts.end();) {
    if (it->second + config_.alert_memory <= now) {
      it = d.seen_alerts.erase(it);
    } else {
      ++it;
    }
  }
  const auto key = std::make_pair(alert.reporter, alert.segment);
  if (d.seen_alerts.contains(key)) return false;
  d.seen_alerts.emplace(key, alert.interval.end);
  return true;
}

void LinkStateRouting::reset_soft_state(util::NodeId n) {
  Daemon& d = daemons_[n];
  d.neighbors_up.clear();
  d.last_hello.clear();
  d.lsdb.clear();
  d.lsa_pending = false;
  d.spf_ran_once = false;
  d.banned.clear();
  d.seen_alerts.clear();
  d.view = Topology{};
  // own_seq, spf counters and route-change introspection survive: the
  // sequence number must stay monotonic so post-restart LSAs supersede
  // pre-crash ones, and the counters describe the whole experiment.
}

bool LinkStateRouting::converged(util::NodeId r) const {
  std::size_t routers = 0;
  for (util::NodeId n = 0; n < net_.node_count(); ++n) {
    if (net_.is_router(n)) ++routers;
  }
  return daemons_.at(r).lsdb.size() == routers && daemons_.at(r).spf_ran_once;
}

std::size_t LinkStateRouting::spf_runs(util::NodeId r) const { return daemons_.at(r).spf_count; }

const std::vector<PathSegment>& LinkStateRouting::banned_segments(util::NodeId r) const {
  return daemons_.at(r).banned;
}

const Topology& LinkStateRouting::topology_view(util::NodeId r) const {
  return daemons_.at(r).view;
}

util::SimTime LinkStateRouting::last_route_change(util::NodeId r) const {
  return daemons_.at(r).last_route_change;
}

std::size_t LinkStateRouting::route_changes(util::NodeId r) const {
  return daemons_.at(r).route_change_count;
}

const std::set<util::NodeId>& LinkStateRouting::neighbors(util::NodeId r) const {
  return daemons_.at(r).neighbors_up;
}

std::size_t LinkStateRouting::seen_alert_count(util::NodeId r) const {
  return daemons_.at(r).seen_alerts.size();
}

std::vector<std::byte> LinkStateRouting::lsa_bytes(const LsaPayload& lsa) {
  std::vector<std::byte> out;
  crypto::append_bytes(out, lsa.origin);
  crypto::append_bytes(out, lsa.seq);
  for (const auto& e : lsa.neighbors) {
    crypto::append_bytes(out, e.to);
    crypto::append_bytes(out, e.metric);
  }
  return out;
}

std::vector<std::byte> LinkStateRouting::alert_bytes(const AlertPayload& alert) {
  std::vector<std::byte> out;
  crypto::append_bytes(out, alert.reporter);
  for (util::NodeId n : alert.segment.nodes()) crypto::append_bytes(out, n);
  crypto::append_bytes(out, alert.interval.begin.nanos());
  crypto::append_bytes(out, alert.interval.end.nanos());
  return out;
}

}  // namespace fatih::routing
