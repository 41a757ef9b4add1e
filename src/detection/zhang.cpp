#include "detection/zhang.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.hpp"

namespace fatih::detection {

namespace {
constexpr double kMeanPacketBytes = 1000.0;
/// Alarm when observed losses exceed predicted by this many standard
/// deviations (Poisson: variance = mean).
constexpr double kZThreshold = 4.0;
}

ZhangDetector::ZhangDetector(sim::Network& net, const crypto::KeyRegistry& keys,
                             const PathCache& paths, util::NodeId queue_owner,
                             util::NodeId queue_peer, ZhangConfig config)
    : net_(net),
      paths_(paths),
      owner_(queue_owner),
      peer_(queue_peer),
      config_(config),
      fp_key_(keys.fingerprint_key(queue_owner, queue_peer)) {
  auto& owner_node = net_.router(owner_);
  auto* iface = owner_node.interface_to(peer_);
  assert(iface != nullptr);
  const double tau = config_.clock.tau.to_seconds();
  service_per_round_ = iface->link().bandwidth_bps / 8.0 / kMeanPacketBytes * tau;
  queue_packets_ = static_cast<double>(iface->queue().byte_limit()) / kMeanPacketBytes;

  for (std::size_t i = 0; i < owner_node.interface_count(); ++i) {
    const util::NodeId nbr = owner_node.interface(i).peer();
    if (nbr == peer_) continue;
    auto* nbr_iface = net_.node(nbr).interface_to(owner_);
    if (nbr_iface == nullptr) continue;
    const sim::LinkParams nbr_link = nbr_iface->link();
    const auto proc = owner_node.base_processing_delay();
    nbr_iface->add_transmit_tap([this, nbr_link, proc](const sim::Packet& p, util::SimTime now) {
      if (p.hdr.dst == owner_) return;
      if (paths_.next_hop_after(p.hdr.src, p.hdr.dst, owner_) != peer_) return;
      const auto ts = now + nbr_link.tx_time(p.size_bytes) + nbr_link.delay + proc;
      entries_[config_.clock.round_of(ts)].push_back(validation::packet_fingerprint(fp_key_, p));
    });
  }
  net_.node(peer_).add_receive_tap(
      [this](const sim::Packet& p, util::NodeId prev, util::SimTime) {
        if (prev != owner_) return;
        exits_.insert(validation::packet_fingerprint(fp_key_, p));
      });
}

void ZhangDetector::start() {
  const auto first = config_.clock.interval_of(0).end + config_.settle;
  net_.sim().schedule_at(first, [this] { validate(0); });
}

double ZhangDetector::predict_loss(double arrivals_per_round) const {
  // M/M/1/K blocking probability for the fitted mean rate: the fraction
  // of arrivals a Poisson-fed queue of this capacity would reject.
  const double rho = arrivals_per_round / service_per_round_;
  const double k = std::max(queue_packets_, 1.0);
  double block;
  if (std::abs(rho - 1.0) < 1e-9) {
    block = 1.0 / (k + 1.0);
  } else {
    block = (1.0 - rho) * std::pow(rho, k) / (1.0 - std::pow(rho, k + 1.0));
  }
  return std::max(0.0, arrivals_per_round * block);
}

void ZhangDetector::validate(std::int64_t round) {
  RoundStats stats;
  stats.round = round;
  if (auto it = entries_.find(round); it != entries_.end()) {
    stats.entries = it->second.size();
    for (validation::Fingerprint fp : it->second) {
      auto eit = exits_.find(fp);
      if (eit != exits_.end()) {
        exits_.erase(eit);
      } else {
        ++stats.lost;
      }
    }
    entries_.erase(it);
  }

  if (round < config_.learning_rounds) {
    rate_accumulator_ += static_cast<double>(stats.entries);
    if (++rate_samples_ == config_.learning_rounds) {
      fitted_rate_ = rate_accumulator_ / static_cast<double>(rate_samples_);
      util::log(util::LogLevel::kInfo, "zhang", "fitted Poisson rate %.1f pkts/round",
                fitted_rate_);
    }
  } else {
    // The ZHANG threshold: losses predicted for a Poisson arrival process
    // at the fitted mean rate, plus z standard deviations (Poisson:
    // variance equals the mean).
    stats.predicted_loss = predict_loss(fitted_rate_);
    const double bound =
        stats.predicted_loss + kZThreshold * std::sqrt(stats.predicted_loss + 1.0);
    if (static_cast<double>(stats.lost) > bound) {
      stats.alarmed = true;
      Suspicion s;
      s.reporter = peer_;
      s.segment = routing::PathSegment{owner_, peer_};
      s.interval = config_.clock.interval_of(round);
      s.cause = "zhang-poisson-threshold";
      s.confidence = 1.0;
      util::log(util::LogLevel::kInfo, "zhang", "%s", s.to_string().c_str());
      suspicions_.push_back(s);
    }
  }
  round_stats_.push_back(stats);

  if (config_.rounds == 0 || round + 1 < config_.rounds) {
    const auto next = config_.clock.interval_of(round + 1).end + config_.settle;
    net_.sim().schedule_at(next, [this, round] { validate(round + 1); });
  }
}

}  // namespace fatih::detection
