#include "traffic/tcp.hpp"

#include <algorithm>
#include <cassert>

namespace fatih::traffic {

using sim::kFlagAck;
using sim::kFlagSyn;

namespace {
constexpr std::uint32_t kAckBytes = 0;  // pure ACK: header only
constexpr double kInitialCwnd = 2.0;
constexpr double kMaxCwnd = 1e9;  // packets; effectively the receive window
constexpr util::Duration kSynRto = util::Duration::seconds(3);  // RFC 6298 initial RTO

void dispatch(sim::Network& net, util::NodeId from, const sim::Packet& p) {
  if (net.is_router(from)) {
    net.router(from).originate(p);
  } else {
    net.host(from).send(p);
  }
}
}  // namespace

TcpFlow::TcpFlow(sim::Network& net, util::NodeId src, util::NodeId dst, std::uint32_t flow_id,
                 TcpConfig config)
    : net_(net),
      src_(src),
      dst_(dst),
      flow_id_(flow_id),
      config_(config),
      cwnd_(kInitialCwnd),
      rto_(kSynRto) {
  net_.node(src_).add_local_handler(
      [this](const sim::Packet& p, util::NodeId, util::SimTime now) {
        if (p.hdr.proto == sim::Protocol::kTcp && p.hdr.flow_id == flow_id_ &&
            p.hdr.src == dst_) {
          on_sender_packet(p, now);
        }
      });
  net_.node(dst_).add_local_handler(
      [this](const sim::Packet& p, util::NodeId, util::SimTime now) {
        if (p.hdr.proto == sim::Protocol::kTcp && p.hdr.flow_id == flow_id_ &&
            p.hdr.src == src_) {
          on_receiver_packet(p, now);
        }
      });
}

void TcpFlow::start(util::SimTime when) {
  net_.sim().schedule_at(when, [this] {
    started_ = true;
    start_time_ = net_.sim().now();
    connect_time_ = util::SimTime::infinity();
    send_syn();
  });
}

util::Duration TcpFlow::connect_latency() const {
  if (connect_time_ == util::SimTime::infinity()) {
    return util::Duration::seconds(1'000'000'000);
  }
  return connect_time_ - start_time_;
}

double TcpFlow::goodput_pps() const {
  const double elapsed = (last_ack_time_ - start_time_).to_seconds();
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(acked_) / elapsed;
}

void TcpFlow::send_control(util::NodeId from, util::NodeId to, std::uint8_t flags,
                           std::uint32_t seq, std::uint32_t ack) {
  sim::PacketHeader hdr;
  hdr.src = from;
  hdr.dst = to;
  hdr.flow_id = flow_id_;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.proto = sim::Protocol::kTcp;
  hdr.flags = flags;
  sim::Packet p = net_.make_packet(hdr, kAckBytes);
  dispatch(net_, from, p);
}

// ------------------------------------------------------------------ sender

void TcpFlow::send_syn() {
  if (established_) return;
  send_control(src_, dst_, kFlagSyn, 0, 0);
  arm_rto(net_.sim().now());
}

void TcpFlow::arm_rto(util::SimTime now) {
  if (rto_armed_) net_.sim().cancel(rto_event_);
  rto_armed_ = true;
  rto_event_ = net_.sim().schedule_at(now + rto_, [this] {
    rto_armed_ = false;
    on_rto();
  });
}

void TcpFlow::on_rto() {
  ++rto_events_;
  rto_ = rto_ * 2;  // exponential backoff
  if (!established_) {
    ++syn_retx_;
    send_syn();
    return;
  }
  if (completed()) return;
  // Timeout recovery: collapse to one segment and go back to the lowest
  // unacknowledged packet (go-back-N); slow start rebuilds the window.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_recovery_ = false;
  rtt_sample_valid_ = false;
  next_seq_ = static_cast<std::uint32_t>(acked_);
  try_send(net_.sim().now());
  arm_rto(net_.sim().now());
}

void TcpFlow::on_sender_packet(const sim::Packet& p, util::SimTime now) {
  if ((p.hdr.flags & kFlagSyn) != 0 && (p.hdr.flags & kFlagAck) != 0) {
    if (!established_) {
      established_ = true;
      connect_time_ = now;
      last_ack_time_ = now;
      // RTT sample from the handshake.
      const double sample = (now - start_time_).to_seconds();
      srtt_ = sample;
      rttvar_ = sample / 2.0;
      rto_ = std::max(config_.min_rto, util::Duration::from_seconds(srtt_ + 4.0 * rttvar_));
      if (rto_armed_) {
        net_.sim().cancel(rto_event_);
        rto_armed_ = false;
      }
      try_send(now);
    }
    return;
  }
  if ((p.hdr.flags & kFlagAck) != 0) {
    on_ack(p.hdr.ack, now);
  }
}

void TcpFlow::on_ack(std::uint32_t cum_ack, util::SimTime now) {
  last_ack_time_ = now;
  if (cum_ack > acked_) {
    // New data acknowledged.
    const std::uint64_t newly = cum_ack - acked_;
    acked_ = cum_ack;
    dupacks_ = 0;
    if (in_recovery_) {
      if (cum_ack >= recovery_point_) {
        in_recovery_ = false;
      } else {
        // NewReno partial ACK: the next hole is lost too; retransmit it
        // immediately instead of waiting for a timeout.
        send_data(cum_ack, now, /*is_retx=*/true);
      }
    }

    // RTT sample (Karn's rule: only if the sampled packet was not
    // retransmitted — validity is cleared on any retransmission).
    if (rtt_sample_valid_ && cum_ack > rtt_sample_seq_) {
      const double sample = (now - rtt_sample_sent_).to_seconds();
      if (srtt_ == 0.0) {
        srtt_ = sample;
        rttvar_ = sample / 2.0;
      } else {
        rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
        srtt_ = 0.875 * srtt_ + 0.125 * sample;
      }
      rtt_sample_valid_ = false;
    }
    // New data acknowledged: collapse any RTO backoff to the estimate.
    if (srtt_ > 0.0) {
      rto_ = std::max(config_.min_rto, util::Duration::from_seconds(srtt_ + 4.0 * rttvar_));
    }

    if (!in_recovery_) {
      for (std::uint64_t i = 0; i < newly; ++i) {
        if (cwnd_ < ssthresh_) {
          cwnd_ += 1.0;  // slow start
        } else {
          cwnd_ += 1.0 / cwnd_;  // congestion avoidance
        }
      }
      cwnd_ = std::min(cwnd_, kMaxCwnd);
    }

    if (completed()) {
      if (rto_armed_) {
        net_.sim().cancel(rto_event_);
        rto_armed_ = false;
      }
      return;
    }
    arm_rto(now);
    try_send(now);
    return;
  }
  // Duplicate ACK.
  ++dupacks_;
  if (dupacks_ == 3 && !in_recovery_) {
    // Fast retransmit / simplified fast recovery.
    in_recovery_ = true;
    recovery_point_ = next_seq_;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    rtt_sample_valid_ = false;
    send_data(static_cast<std::uint32_t>(acked_), now, /*is_retx=*/true);
    arm_rto(now);
  }
}

void TcpFlow::try_send(util::SimTime now) {
  const auto window_end = static_cast<std::uint32_t>(
      acked_ + static_cast<std::uint64_t>(cwnd_));
  while (next_seq_ < window_end) {
    if (config_.packets_to_send > 0 && next_seq_ >= config_.packets_to_send) break;
    send_data(next_seq_, now, /*is_retx=*/false);
    ++next_seq_;
  }
}

void TcpFlow::send_data(std::uint32_t seq, util::SimTime now, bool is_retx) {
  if (seq >= high_water_) {
    high_water_ = seq + 1;
  } else {
    is_retx = true;  // go-back-N resend of an already-sent sequence
  }
  if (is_retx) {
    ++data_retx_;
  } else if (!rtt_sample_valid_) {
    rtt_sample_seq_ = seq;
    rtt_sample_sent_ = now;
    rtt_sample_valid_ = true;
  }
  sim::PacketHeader hdr;
  hdr.src = src_;
  hdr.dst = dst_;
  hdr.flow_id = flow_id_;
  hdr.seq = seq;
  hdr.proto = sim::Protocol::kTcp;
  sim::Packet p = net_.make_packet(hdr, config_.mss_bytes);
  dispatch(net_, src_, p);
  if (!rto_armed_) arm_rto(now);
}

// ---------------------------------------------------------------- receiver

void TcpFlow::on_receiver_packet(const sim::Packet& p, util::SimTime now) {
  (void)now;
  if ((p.hdr.flags & kFlagSyn) != 0) {
    send_control(dst_, src_, kFlagSyn | kFlagAck, 0, 0);
    return;
  }
  // Data packet: update the cumulative ACK.
  const std::uint32_t seq = p.hdr.seq;
  if (seq == rcv_next_) {
    ++rcv_next_;
    while (!out_of_order_.empty() && *out_of_order_.begin() == rcv_next_) {
      out_of_order_.erase(out_of_order_.begin());
      ++rcv_next_;
    }
  } else if (seq > rcv_next_) {
    out_of_order_.insert(seq);
  }
  send_control(dst_, src_, kFlagAck, 0, rcv_next_);
}

}  // namespace fatih::traffic
