// ZHANG: secure routing in ad-hoc networks (dissertation §3.12; Zhang et
// al.). The closest prior to Protocol chi: per-interface traffic
// validation where a neighbor models the sender's arrival process as
// POISSON and predicts the congestive loss rate from queueing theory; an
// observed loss rate significantly above the prediction is a detection.
// Strong-complete, accurate with precision 2 — per the dissertation — but
// only as sound as the Poisson assumption: bursty traffic (on-off, TCP)
// overflows queues far more than a Poisson model of the same mean rate
// predicts, which is exactly the gap Protocol chi's measurement-based
// replay closes (§6.1.2: "none of these models have been able to capture
// congestion behavior in all situations").
//
// The congestive-loss prediction uses the M/M/1/K blocking probability
// for the fitted arrival rate: p_K = (1-rho) rho^K / (1 - rho^(K+1)).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/path_cache.hpp"
#include "detection/types.hpp"
#include "sim/network.hpp"
#include "validation/fingerprint.hpp"

namespace fatih::detection {

struct ZhangConfig {
  RoundClock clock;
  util::Duration settle = util::Duration::millis(400);
  /// Rounds used to fit the mean arrival rate before tests arm.
  std::int64_t learning_rounds = 3;
  std::int64_t rounds = 0;
};

/// Watches one queue (owner -> peer) with the Poisson-model threshold.
class ZhangDetector {
 public:
  ZhangDetector(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                util::NodeId queue_owner, util::NodeId queue_peer, ZhangConfig config);

  void start();

  struct RoundStats {
    std::int64_t round = 0;
    std::uint64_t entries = 0;
    std::uint64_t lost = 0;
    double predicted_loss = 0;
    bool alarmed = false;
  };
  [[nodiscard]] const std::vector<RoundStats>& rounds() const { return round_stats_; }
  [[nodiscard]] const std::vector<Suspicion>& suspicions() const { return suspicions_; }
  /// Fitted mean arrival rate (packets/round) after learning.
  [[nodiscard]] double fitted_rate() const { return fitted_rate_; }

 private:
  void validate(std::int64_t round);
  [[nodiscard]] double predict_loss(double arrivals_per_round) const;

  sim::Network& net_;
  const PathCache& paths_;
  util::NodeId owner_;
  util::NodeId peer_;
  ZhangConfig config_;
  crypto::SipKey fp_key_;
  double service_per_round_ = 0;  ///< packets/round the link can drain
  double queue_packets_ = 0;      ///< K, queue capacity in packets
  std::map<std::int64_t, std::vector<validation::Fingerprint>> entries_;
  std::set<validation::Fingerprint> exits_;
  double fitted_rate_ = 0;
  double rate_accumulator_ = 0;
  std::int64_t rate_samples_ = 0;
  std::vector<RoundStats> round_stats_;
  std::vector<Suspicion> suspicions_;
};

}  // namespace fatih::detection
