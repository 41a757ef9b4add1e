#include "fatih/fatih.hpp"

#include "util/log.hpp"

namespace fatih::system {

FatihSystem::FatihSystem(sim::Network& net, const crypto::KeyRegistry& keys,
                         routing::LinkStateRouting& routing, FatihConfig config)
    : net_(net), keys_(keys), routing_(routing), config_(config) {}

void FatihSystem::commission(std::shared_ptr<const routing::RoutingTables> tables,
                             const std::vector<util::NodeId>& terminals) {
  if (engine_ != nullptr) {
    engine_->stop();
    retired_.push_back(std::move(engine_));
    retired_paths_.push_back(std::move(paths_));
  }
  paths_ = std::make_unique<detection::PathCache>(std::move(tables));
  engine_ = std::make_unique<detection::Pik2Engine>(net_, keys_, *paths_, terminals,
                                                    config_.detection);
  engine_->set_suspicion_handler([this](const detection::Suspicion& s) {
    // Response (§2.4.3): flood the signed alert; every correct router
    // excludes the suspected path-segment from its routing fabric.
    routing_.announce_suspicion(s.reporter, s.segment, s.interval);
  });
  engine_->start();
  util::log(util::LogLevel::kInfo, "fatih", "commissioned: tau=%s k=%zu",
            util::to_string(config_.detection.clock.tau).c_str(), config_.detection.k);
}

// ------------------------------------------------------------------ RttProbe

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

std::uint32_t RttProbe::outstanding() const {
  return static_cast<std::uint32_t>(in_flight_.size());
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

}  // namespace fatih::system
