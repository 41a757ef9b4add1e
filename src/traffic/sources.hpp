// Datagram traffic sources and sinks.
//
// The emulation experiments (dissertation §6.4) drive the network with a
// mix of long-lived and bursty traffic. These agents originate UDP-style
// datagrams from a node (host or terminal router) toward a destination,
// and sinks account for what arrives.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace fatih::traffic {

/// Sends one packet from `src` toward `dst` immediately (host or router).
void send_datagram(sim::Network& net, util::NodeId src, util::NodeId dst, std::uint32_t flow_id,
                   std::uint32_t seq, std::uint32_t payload_bytes);

/// Sends `count` packets (seq = first_seq .. first_seq+count-1) in the same
/// instant. Host sources go through Interface::send_batch — one queue
/// admission walk for the burst; router sources fall back to per-packet
/// origination (each packet takes the full forwarding chain).
void send_burst(sim::Network& net, util::NodeId src, util::NodeId dst, std::uint32_t flow_id,
                std::uint32_t first_seq, std::uint32_t count, std::uint32_t payload_bytes);

/// Constant-bit-rate source: fixed-size packets at a fixed interval.
class CbrSource {
 public:
  struct Config {
    util::NodeId src = util::kInvalidNode;
    util::NodeId dst = util::kInvalidNode;
    std::uint32_t flow_id = 0;
    std::uint32_t payload_bytes = 960;  ///< + 40B header = 1000B wire size
    double rate_pps = 100.0;            ///< tick rate (bursts multiply throughput)
    /// Packets emitted per tick. >1 models back-to-back line-rate bursts
    /// and exercises the batched admission path (send_burst).
    std::uint32_t packets_per_tick = 1;
    util::SimTime start;
    util::SimTime stop = util::SimTime::infinity();
  };

  CbrSource(sim::Network& net, Config config);

  [[nodiscard]] std::uint32_t packets_sent() const { return seq_; }

 private:
  void tick();

  sim::Network& net_;
  Config config_;
  std::uint32_t seq_ = 0;
};

/// Poisson source: exponential inter-arrival times (models aggregate
/// background traffic).
class PoissonSource {
 public:
  struct Config {
    util::NodeId src = util::kInvalidNode;
    util::NodeId dst = util::kInvalidNode;
    std::uint32_t flow_id = 0;
    std::uint32_t payload_bytes = 960;
    double mean_rate_pps = 100.0;
    util::SimTime start;
    util::SimTime stop = util::SimTime::infinity();
  };

  PoissonSource(sim::Network& net, Config config);

  [[nodiscard]] std::uint32_t packets_sent() const { return seq_; }

 private:
  void tick();

  sim::Network& net_;
  Config config_;
  util::Rng rng_;
  std::uint32_t seq_ = 0;
};

/// On-off source: exponentially distributed bursts at a high rate with
/// exponentially distributed silences — the bursty cross-traffic that
/// fills queues and produces genuine congestive loss.
class OnOffSource {
 public:
  struct Config {
    util::NodeId src = util::kInvalidNode;
    util::NodeId dst = util::kInvalidNode;
    std::uint32_t flow_id = 0;
    std::uint32_t payload_bytes = 960;
    double on_rate_pps = 2000.0;
    util::Duration mean_on = util::Duration::millis(100);
    util::Duration mean_off = util::Duration::millis(400);
    util::SimTime start;
    util::SimTime stop = util::SimTime::infinity();
  };

  OnOffSource(sim::Network& net, Config config);

  [[nodiscard]] std::uint32_t packets_sent() const { return seq_; }

 private:
  void enter_on();
  void enter_off();
  void tick();

  sim::Network& net_;
  Config config_;
  util::Rng rng_;
  bool on_ = false;
  util::SimTime burst_end_;
  std::uint32_t seq_ = 0;
};

/// Per-flow receive accounting at a node.
class FlowSink {
 public:
  struct FlowStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    util::SimTime last_arrival;
    double sum_latency_seconds = 0.0;

    [[nodiscard]] double mean_latency_seconds() const {
      return packets > 0 ? sum_latency_seconds / static_cast<double>(packets) : 0.0;
    }
  };

  /// Attaches to `node`'s local delivery path; counts every data packet.
  FlowSink(sim::Network& net, util::NodeId node);

  [[nodiscard]] const FlowStats& flow(std::uint32_t flow_id) const;
  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }

 private:
  std::map<std::uint32_t, FlowStats> flows_;
  FlowStats empty_;
  std::uint64_t total_packets_ = 0;
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

}  // namespace fatih::traffic
