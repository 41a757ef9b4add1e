#include "traffic/sources.hpp"

namespace fatih::traffic {

void send_datagram(sim::Network& net, util::NodeId src, util::NodeId dst, std::uint32_t flow_id,
                   std::uint32_t seq, std::uint32_t payload_bytes) {
  sim::PacketHeader hdr;
  hdr.src = src;
  hdr.dst = dst;
  hdr.flow_id = flow_id;
  hdr.seq = seq;
  hdr.proto = sim::Protocol::kUdp;
  sim::Packet p = net.make_packet(hdr, payload_bytes);
  if (net.is_router(src)) {
    net.router(src).originate(std::move(p));
  } else {
    net.host(src).send(std::move(p));
  }
}

void send_burst(sim::Network& net, util::NodeId src, util::NodeId dst, std::uint32_t flow_id,
                std::uint32_t first_seq, std::uint32_t count, std::uint32_t payload_bytes) {
  if (count == 0) return;
  if (net.is_router(src) || count == 1) {
    // Routers originate through the forwarding chain one packet at a time
    // (each may take a different route / filter decision).
    for (std::uint32_t i = 0; i < count; ++i) {
      send_datagram(net, src, dst, flow_id, first_seq + i, payload_bytes);
    }
    return;
  }
  sim::PacketHeader hdr;
  hdr.src = src;
  hdr.dst = dst;
  hdr.flow_id = flow_id;
  hdr.proto = sim::Protocol::kUdp;
  std::vector<sim::Packet> burst;
  burst.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    hdr.seq = first_seq + i;
    burst.push_back(net.make_packet(hdr, payload_bytes));
  }
  net.host(src).send_batch(burst);
}

// ---------------------------------------------------------------- CbrSource

CbrSource::CbrSource(sim::Network& net, Config config) : net_(net), config_(config) {
  // Timers live on the source node's simulator (its PoP shard when the
  // network is sharded, the lone simulator otherwise).
  net_.node_sim(config_.src).schedule_at(config_.start, [this] { tick(); });
}

void CbrSource::tick() {
  sim::Simulator& sim = net_.node_sim(config_.src);
  if (sim.now() >= config_.stop) return;
  const std::uint32_t burst = config_.packets_per_tick > 0 ? config_.packets_per_tick : 1;
  if (burst == 1) {
    send_datagram(net_, config_.src, config_.dst, config_.flow_id, seq_++, config_.payload_bytes);
  } else {
    send_burst(net_, config_.src, config_.dst, config_.flow_id, seq_, burst,
               config_.payload_bytes);
    seq_ += burst;
  }
  // tick() only ever runs as an event callback (ctor schedules the first
  // one), so the timer re-arms in place instead of re-installing itself.
  sim.rearm_current(util::Duration::from_seconds(1.0 / config_.rate_pps));
}

// ------------------------------------------------------------ PoissonSource

PoissonSource::PoissonSource(sim::Network& net, Config config)
    : net_(net), config_(config), rng_(net.rng().next_u64()) {
  net_.node_sim(config_.src).schedule_at(config_.start, [this] { tick(); });
}

void PoissonSource::tick() {
  sim::Simulator& sim = net_.node_sim(config_.src);
  if (sim.now() >= config_.stop) return;
  send_datagram(net_, config_.src, config_.dst, config_.flow_id, seq_++, config_.payload_bytes);
  const double gap = rng_.exponential(1.0 / config_.mean_rate_pps);
  sim.rearm_current(util::Duration::from_seconds(gap));
}

// -------------------------------------------------------------- OnOffSource

OnOffSource::OnOffSource(sim::Network& net, Config config)
    : net_(net), config_(config), rng_(net.rng().next_u64()) {
  net_.node_sim(config_.src).schedule_at(config_.start, [this] { enter_on(); });
}

void OnOffSource::enter_on() {
  sim::Simulator& sim = net_.node_sim(config_.src);
  if (sim.now() >= config_.stop) return;
  on_ = true;
  const double on_seconds = rng_.exponential(config_.mean_on.to_seconds());
  burst_end_ = sim.now() + util::Duration::from_seconds(on_seconds);
  sim.schedule_at(burst_end_, [this] { enter_off(); });
  tick();
}

void OnOffSource::enter_off() {
  sim::Simulator& sim = net_.node_sim(config_.src);
  on_ = false;
  if (sim.now() >= config_.stop) return;
  const double off_seconds = rng_.exponential(config_.mean_off.to_seconds());
  sim.schedule_in(util::Duration::from_seconds(off_seconds), [this] { enter_on(); });
}

void OnOffSource::tick() {
  sim::Simulator& sim = net_.node_sim(config_.src);
  if (!on_ || sim.now() >= config_.stop) return;
  send_datagram(net_, config_.src, config_.dst, config_.flow_id, seq_++, config_.payload_bytes);
  sim.schedule_in(util::Duration::from_seconds(1.0 / config_.on_rate_pps),
                  [this] { tick(); });
}

// ----------------------------------------------------------------- FlowSink

FlowSink::FlowSink(sim::Network& net, util::NodeId node) {
  net.node(node).add_local_handler(
      [this](const sim::Packet& p, util::NodeId, util::SimTime now) {
        auto& stats = flows_[p.hdr.flow_id];
        ++stats.packets;
        stats.bytes += p.size_bytes;
        stats.last_arrival = now;
        stats.sum_latency_seconds += (now - p.created).to_seconds();
        ++total_packets_;
      });
}

const FlowSink::FlowStats& FlowSink::flow(std::uint32_t flow_id) const {
  auto it = flows_.find(flow_id);
  return it != flows_.end() ? it->second : empty_;
}

// ----------------------------------------------------------------- RttProbe

RttProbe::RttProbe(sim::Network& net, util::NodeId a, util::NodeId b, std::uint32_t flow_id,
                   util::Duration interval)
    : net_(net), a_(a), b_(b), flow_id_(flow_id), interval_(interval) {
  // Echo responder at b.
  net_.node(b_).add_local_handler(
      [this](const sim::Packet& p, util::NodeId, util::SimTime) {
        if (p.hdr.flow_id != flow_id_ || p.hdr.src != a_) return;
        sim::PacketHeader hdr;
        hdr.src = b_;
        hdr.dst = a_;
        hdr.flow_id = flow_id_;
        hdr.seq = p.hdr.seq;
        hdr.proto = sim::Protocol::kUdp;
        sim::Packet echo = net_.make_packet(hdr, 24);
        net_.router(b_).originate(echo);
      });
  // Echo receiver at a.
  net_.node(a_).add_local_handler(
      [this](const sim::Packet& p, util::NodeId, util::SimTime now) {
        if (p.hdr.flow_id != flow_id_ || p.hdr.src != b_) return;
        auto it = in_flight_.find(p.hdr.seq);
        if (it == in_flight_.end()) return;
        samples_.push_back(Sample{now, (now - it->second).to_seconds()});
        in_flight_.erase(it);
      });
}

void RttProbe::start(util::SimTime at) {
  net_.sim().schedule_at(at, [this] { tick(); });
}

void RttProbe::tick() {
  sim::PacketHeader hdr;
  hdr.src = a_;
  hdr.dst = b_;
  hdr.flow_id = flow_id_;
  hdr.seq = next_seq_;
  hdr.proto = sim::Protocol::kUdp;
  sim::Packet probe = net_.make_packet(hdr, 24);
  in_flight_[next_seq_] = net_.sim().now();
  ++next_seq_;
  net_.router(a_).originate(probe);
  net_.sim().schedule_in(interval_, [this] { tick(); });
}

}  // namespace fatih::traffic
