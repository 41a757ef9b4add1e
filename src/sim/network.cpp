#include "sim/network.hpp"

#include <cassert>
#include <stdexcept>

#include "util/hash.hpp"

namespace fatih::sim {

Network::Network(std::uint64_t seed) : seed_(seed), rng_(seed) {}

Network::Network(std::uint64_t seed, ShardPlan plan)
    : seed_(seed), rng_(seed), plan_(std::move(plan)) {
  // An empty plan degrades to the classic single-simulator network, so
  // callers can build either mode through one constructor.
  if (plan_.pops == 0) return;
  assert(plan_.lookahead > util::Duration{});
  pop_sims_.reserve(plan_.pops);
  for (std::uint32_t pop = 0; pop < plan_.pops; ++pop) {
    pop_sims_.push_back(std::make_unique<Simulator>());
  }
}

Router& Network::add_router(std::string name) {
  const auto id = static_cast<util::NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<Router>(node_sim(id), id, std::move(name), rng_.next_u64()));
  node_is_router_.push_back(true);
  if (sharded()) identities_.push_back(NodeIdentity{util::Rng(rng_.next_u64()), 1});
  return static_cast<Router&>(*nodes_.back());
}

Host& Network::add_host(std::string name) {
  const auto id = static_cast<util::NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Host>(node_sim(id), id, std::move(name)));
  node_is_router_.push_back(false);
  if (sharded()) identities_.push_back(NodeIdentity{util::Rng(rng_.next_u64()), 1});
  return static_cast<Host&>(*nodes_.back());
}

std::unique_ptr<OutputQueue> Network::make_queue(const LinkConfig& cfg) {
  if (cfg.queue == QueueKind::kRed) {
    return std::make_unique<RedQueue>(cfg.red, rng_.next_u64());
  }
  return std::make_unique<DropTailQueue>(cfg.queue_limit_bytes);
}

void Network::connect(util::NodeId a, util::NodeId b, const LinkConfig& cfg) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  const LinkParams link{cfg.bandwidth_bps, cfg.delay};

  Interface& ab = nodes_[a]->add_interface(b, link, make_queue(cfg));
  Interface& ba = nodes_[b]->add_interface(a, link, make_queue(cfg));
  ab.set_peer_node(nodes_[b].get());
  ba.set_peer_node(nodes_[a].get());
  if (sharded() && plan_.remote(a, b)) {
    // PoP-crossing traffic goes through the shard lanes; the conservative
    // window is only sound if every such link respects the lookahead.
    assert(cfg.delay >= plan_.lookahead);
    ab.set_remote(true);
    ba.set_remote(true);
  }

  adjacencies_.push_back(Adjacency{a, b, cfg.metric, link});
  adjacencies_.push_back(Adjacency{b, a, cfg.metric, link});
}

void Network::apply_interface_states(util::NodeId id) {
  Node& n = *nodes_.at(id);
  for (std::size_t i = 0; i < n.interface_count(); ++i) {
    Interface& iface = n.interface(i);
    iface.set_up(n.up() && link_admin_up(id, iface.peer()));
  }
}

void Network::set_link_up(util::NodeId a, util::NodeId b, bool up) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  const auto key = link_key(a, b);
  const bool currently_up = link_admin_down_.find(key) == link_admin_down_.end();
  if (currently_up == up) return;
  if (up) {
    link_admin_down_.erase(key);
  } else {
    link_admin_down_[key] = true;
  }
  if (Interface* ab = nodes_[a]->interface_to(b)) ab->set_up(up && nodes_[a]->up());
  if (Interface* ba = nodes_[b]->interface_to(a)) ba->set_up(up && nodes_[b]->up());
  FATIH_TRACE_EMIT(sim_.trace(),
                   route(sim_.now(), up ? obs::TraceCode::kLinkUp : obs::TraceCode::kLinkDown,
                         a, b));
  for (const auto& hook : link_hooks_) hook(a, b, up, sim_.now());
}

bool Network::link_admin_up(util::NodeId a, util::NodeId b) const {
  return link_admin_down_.find(link_key(a, b)) == link_admin_down_.end();
}

bool Network::link_usable(util::NodeId a, util::NodeId b) const {
  return link_admin_up(a, b) && nodes_.at(a)->up() && nodes_.at(b)->up();
}

void Network::crash_router(util::NodeId id) {
  Router& r = router(id);
  if (!r.up()) return;
  r.set_up(false);
  apply_interface_states(id);
  // Forwarding tables are soft state: gone with the crash. Policy routes
  // (the response mechanism's exclusions) go with them — a restarted
  // router must re-learn them from re-flooded alerts.
  r.clear_routes();
  FATIH_TRACE_EMIT(sim_.trace(), route(sim_.now(), obs::TraceCode::kNodeDown, id));
  for (const auto& hook : node_hooks_) hook(id, false, sim_.now());
}

void Network::restart_router(util::NodeId id) {
  Router& r = router(id);
  if (r.up()) return;
  r.set_up(true);
  apply_interface_states(id);
  FATIH_TRACE_EMIT(sim_.trace(), route(sim_.now(), obs::TraceCode::kNodeUp, id));
  for (const auto& hook : node_hooks_) hook(id, true, sim_.now());
}

Router& Network::router(util::NodeId id) {
  if (!is_router(id)) throw std::logic_error("node is not a router");
  return static_cast<Router&>(*nodes_.at(id));
}

Host& Network::host(util::NodeId id) {
  if (is_router(id)) throw std::logic_error("node is not a host");
  return static_cast<Host&>(*nodes_.at(id));
}

bool Network::is_router(util::NodeId id) const { return node_is_router_.at(id); }

Packet Network::make_packet(PacketHeader hdr, std::uint32_t payload_bytes) {
  Packet p;
  p.hdr = hdr;
  p.size_bytes = kHeaderBytes + payload_bytes;
  if (sharded()) {
    // Per-node identity streams: the creating node's PoP worker is the
    // only consumer, so no global state is touched from the parallel pass,
    // and the stream position is a function of that PoP's (worker-count-
    // invariant) event order alone. Uids stay globally unique by packing
    // the node id into the high bits.
    NodeIdentity& ident = identities_.at(hdr.src);
    p.payload_tag = ident.rng.next_u64();
    p.uid = (static_cast<std::uint64_t>(hdr.src) + 1) << 40 | ident.next_uid++;
    p.created = node_sim(hdr.src).now();
  } else {
    p.payload_tag = rng_.next_u64();
    p.uid = next_uid_++;
    p.created = sim_.now();
  }
  return p;
}

std::uint64_t Network::rng_fingerprint() const {
  std::uint64_t h = util::fnv1a64_word(util::kFnvOffsetBasis, rng_.state_hash());
  for (const NodeIdentity& ident : identities_) {
    h = util::fnv1a64_word(h, ident.rng.state_hash());
    h = util::fnv1a64_word(h, ident.next_uid);
  }
  return h;
}

}  // namespace fatih::sim
