// Simplified TCP Reno.
//
// Protocol chi's evaluation (dissertation §6.4) depends on two TCP
// behaviours: (1) congestion control drives the bottleneck queue into
// bursty, genuinely congestive loss, and (2) the loss of a SYN costs a
// disproportionate multi-second retransmission timeout, which is what
// makes attack 4 ("target a host trying to open a connection by dropping
// SYN packets") devastating despite its tiny packet count (§6.1.1).
//
// This implementation models: three-way-handshake-less connection setup
// (SYN / SYN-ACK), slow start, congestion avoidance, fast retransmit on
// three duplicate ACKs, RTO with exponential backoff and a 3-second
// initial SYN timeout, and per-packet cumulative ACKs. Sequence numbers
// count MSS-sized packets, not bytes.
#pragma once

#include <cstdint>
#include <set>

#include "sim/network.hpp"
#include "util/time.hpp"

namespace fatih::traffic {

struct TcpConfig {
  std::uint32_t mss_bytes = 960;  ///< payload per data packet (+40B header)
  util::Duration min_rto = util::Duration::seconds(1);
  /// Packets to deliver; 0 = run until the experiment ends.
  std::uint64_t packets_to_send = 0;
};

/// One TCP connection: manages both the sender (at `src`) and the receiver
/// (at `dst`); all packets traverse the simulated network in between.
class TcpFlow {
 public:
  TcpFlow(sim::Network& net, util::NodeId src, util::NodeId dst, std::uint32_t flow_id,
          TcpConfig config);
  TcpFlow(const TcpFlow&) = delete;
  TcpFlow& operator=(const TcpFlow&) = delete;

  /// Schedules the SYN at `when`.
  void start(util::SimTime when);

  // --- observability -------------------------------------------------
  [[nodiscard]] bool connected() const { return established_; }
  [[nodiscard]] bool completed() const {
    return config_.packets_to_send > 0 && acked_ >= config_.packets_to_send;
  }
  /// Time from start() to the SYN-ACK arriving; infinity if never.
  [[nodiscard]] util::Duration connect_latency() const;
  [[nodiscard]] std::uint64_t packets_acked() const { return acked_; }
  [[nodiscard]] std::uint32_t syn_retransmits() const { return syn_retx_; }
  [[nodiscard]] std::uint32_t data_retransmits() const { return data_retx_; }
  [[nodiscard]] std::uint32_t timeouts() const { return rto_events_; }
  [[nodiscard]] double current_cwnd() const { return cwnd_; }
  /// Smoothed RTT estimate (seconds); 0 before the first sample.
  [[nodiscard]] double srtt_seconds() const { return srtt_; }
  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }
  /// Goodput in packets/second between start and the last ACK.
  [[nodiscard]] double goodput_pps() const;

 private:
  // Sender side.
  void send_syn();
  void on_sender_packet(const sim::Packet& p, util::SimTime now);
  void on_ack(std::uint32_t cum_ack, util::SimTime now);
  void try_send(util::SimTime now);
  void send_data(std::uint32_t seq, util::SimTime now, bool is_retx);
  void arm_rto(util::SimTime now);
  void on_rto();
  // Receiver side.
  void on_receiver_packet(const sim::Packet& p, util::SimTime now);
  void send_control(util::NodeId from, util::NodeId to, std::uint8_t flags, std::uint32_t seq,
                    std::uint32_t ack);

  sim::Network& net_;
  util::NodeId src_;
  util::NodeId dst_;
  std::uint32_t flow_id_;
  TcpConfig config_;

  // Sender state.
  bool started_ = false;
  bool established_ = false;
  util::SimTime start_time_;
  util::SimTime connect_time_;
  util::SimTime last_ack_time_;
  std::uint32_t next_seq_ = 0;     ///< next packet to (re)send
  std::uint32_t high_water_ = 0;   ///< highest sequence ever sent + 1
  std::uint64_t acked_ = 0;      ///< cumulative packets acked
  double cwnd_ = 2.0;
  double ssthresh_ = 1e9;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recovery_point_ = 0;
  // RTT estimation (RFC 6298).
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  util::Duration rto_;
  sim::EventId rto_event_ = 0;
  bool rto_armed_ = false;
  // Timestamp of the in-flight RTT sample (seq, send time); invalidated on retx.
  std::uint32_t rtt_sample_seq_ = 0;
  util::SimTime rtt_sample_sent_;
  bool rtt_sample_valid_ = false;
  std::uint32_t syn_retx_ = 0;
  std::uint32_t data_retx_ = 0;
  std::uint32_t rto_events_ = 0;

  // Receiver state.
  std::uint32_t rcv_next_ = 0;  ///< lowest sequence not yet received
  std::set<std::uint32_t> out_of_order_;
};

}  // namespace fatih::traffic
