// Fatih: the prototype system (dissertation §5.3, Fig. 5.5).
//
// Wires the pieces the real prototype wired on a Linux/Zebra router:
//   * Coordinator: decides the monitored path-segments from the (stable)
//     topology with k = 1 by default, schedules validation rounds;
//   * Traffic Validators + Summary Generator: the Pi(k+2) engine;
//   * Routing integration: suspicions are flooded as signed alerts through
//     the link-state daemon, which recomputes routes around the suspected
//     path-segment after its SPF delay/hold timers (the dynamics of
//     Fig. 5.7);
//   * Time synchronization is inherited from the simulator's global clock
//     (the prototype used NTP, §5.3.1).
#pragma once

#include <memory>
#include <vector>

#include "detection/pik2.hpp"
#include "routing/link_state.hpp"

namespace fatih::system {

struct FatihConfig {
  /// tau = 5 s rounds, k = 1 by default. Setting detection.reliable.enabled
  /// runs the summary exchange over the ack/retransmit control transport
  /// (lossy control links tolerated; undeliverable summaries degrade to
  /// "exchange-undeliverable" suspicions instead of stalling rounds).
  detection::Pik2Config detection;
};

class FatihSystem {
 public:
  FatihSystem(sim::Network& net, const crypto::KeyRegistry& keys,
              routing::LinkStateRouting& routing, FatihConfig config);

  /// Commissions detection over the stable routing state: builds the
  /// Pi(k+2) engine for the in-use paths among `terminals` and starts the
  /// validation rounds. Call once routing has converged. Calling it again
  /// (e.g. after a response rerouted traffic) retires the previous
  /// monitoring set and builds a fresh one from the new tables — the
  /// "recompute Pr on routing change" behaviour of the real prototype.
  void commission(std::shared_ptr<const routing::RoutingTables> tables,
                  const std::vector<util::NodeId>& terminals);

  [[nodiscard]] detection::Pik2Engine& engine() { return *engine_; }
  [[nodiscard]] const std::vector<detection::Suspicion>& suspicions() const {
    return engine_->suspicions();
  }

 private:
  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  routing::LinkStateRouting& routing_;
  FatihConfig config_;
  std::unique_ptr<detection::PathCache> paths_;
  std::unique_ptr<detection::Pik2Engine> engine_;
  // Retired engines are parked (their taps remain registered on routers).
  std::vector<std::unique_ptr<detection::Pik2Engine>> retired_;
  std::vector<std::unique_ptr<detection::PathCache>> retired_paths_;
};

/// Round-trip-time prober between two routers (the latency trace plotted
/// in Fig. 5.7): `a` sends a probe to `b` every `interval`; `b` echoes;
/// `a` records the RTT.
class RttProbe {
 public:
  RttProbe(sim::Network& net, util::NodeId a, util::NodeId b, std::uint32_t flow_id,
           util::Duration interval);

  void start(util::SimTime at);

  struct Sample {
    util::SimTime when;
    double rtt_seconds;
  };
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  /// Probes sent but never answered (count at the end of the run).
  [[nodiscard]] std::uint32_t outstanding() const;

 private:
  void tick();

  sim::Network& net_;
  util::NodeId a_;
  util::NodeId b_;
  std::uint32_t flow_id_;
  util::Duration interval_;
  std::uint32_t next_seq_ = 0;
  std::map<std::uint32_t, util::SimTime> in_flight_;
  std::vector<Sample> samples_;
};

}  // namespace fatih::system
