#include "obs/trace.hpp"

#include <cstring>

#include "util/log.hpp"

namespace fatih::obs {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kDrop: return "drop";
    case TraceCategory::kQueue: return "queue";
    case TraceCategory::kRoute: return "route";
    case TraceCategory::kRound: return "round";
    case TraceCategory::kExchange: return "exchange";
    case TraceCategory::kSuspicion: return "suspicion";
    case TraceCategory::kAnnotation: return "annotation";
    case TraceCategory::kByzantine: return "byzantine";
  }
  return "?";
}

const char* to_string(TraceCode c) {
  switch (c) {
    case TraceCode::kNone: return "none";
    case TraceCode::kDropCongestion: return "congestion";
    case TraceCode::kDropRedEarly: return "red-early";
    case TraceCode::kDropMalicious: return "malicious";
    case TraceCode::kDropTtlExpired: return "ttl-expired";
    case TraceCode::kDropNoRoute: return "no-route";
    case TraceCode::kDropLinkFault: return "link-fault";
    case TraceCode::kDropLinkDown: return "link-down";
    case TraceCode::kDropNodeDown: return "node-down";
    case TraceCode::kQueueDepth: return "queue-depth";
    case TraceCode::kSpfScheduled: return "spf-scheduled";
    case TraceCode::kSpfRun: return "spf-run";
    case TraceCode::kRouteChange: return "route-change";
    case TraceCode::kAlertAccepted: return "alert-accepted";
    case TraceCode::kLinkUp: return "link-up";
    case TraceCode::kLinkDown: return "link-down-admin";
    case TraceCode::kNodeUp: return "node-up";
    case TraceCode::kNodeDown: return "node-down-admin";
    case TraceCode::kRoundOpen: return "round-open";
    case TraceCode::kRoundClose: return "round-close";
    case TraceCode::kRoundInvalidated: return "round-invalidated";
    case TraceCode::kExchangeSend: return "exchange-send";
    case TraceCode::kExchangeRetransmit: return "exchange-retransmit";
    case TraceCode::kExchangeAck: return "exchange-ack";
    case TraceCode::kExchangeTimeout: return "exchange-timeout";
    case TraceCode::kExchangeFailed: return "exchange-failed";
    case TraceCode::kSuspicionRaised: return "suspicion-raised";
    case TraceCode::kAnnotation: return "annotation";
    case TraceCode::kControlRejected: return "control-rejected";
    case TraceCode::kEquivocationProven: return "equivocation-proven";
    case TraceCode::kAccusation: return "accusation";
    case TraceCode::kConviction: return "conviction";
  }
  return "?";
}

const char* to_string(TraceSource s) {
  switch (s) {
    case TraceSource::kNone: return "-";
    case TraceSource::kSim: return "sim";
    case TraceSource::kRouting: return "routing";
    case TraceSource::kPi2: return "pi2";
    case TraceSource::kPik2: return "pik2";
    case TraceSource::kChi: return "chi";
    case TraceSource::kReliable: return "reliable";
    case TraceSource::kBench: return "bench";
    case TraceSource::kConviction: return "conviction";
  }
  return "?";
}

void TraceEvent::set_note(const char* s) {
  if (s == nullptr) {
    note[0] = '\0';
    return;
  }
  std::strncpy(note.data(), s, note.size() - 1);
  note[note.size() - 1] = '\0';
}

TraceSink::TraceSink(TraceConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.reserve(config_.capacity < 4096 ? config_.capacity : 4096);
}

void TraceSink::emit(TraceEvent ev) {
  const auto cat = static_cast<std::size_t>(ev.category);
  if (!config_.enabled[cat]) return;
  ev.seq = next_seq_++;
  if (ring_.size() < config_.capacity) {
    ring_.push_back(ev);
    return;
  }
  ring_[head_] = ev;
  head_ = (head_ + 1) % config_.capacity;
}

void TraceSink::drop(util::SimTime at, TraceCode reason, util::NodeId node, util::NodeId peer,
                     std::uint64_t packet_uid) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kDrop;
  ev.code = reason;
  ev.source = TraceSource::kSim;
  ev.a = node;
  ev.b = peer;
  ev.value = packet_uid;
  emit(ev);
}

void TraceSink::queue_depth(util::SimTime at, util::NodeId node, util::NodeId peer,
                            std::uint64_t bytes, double fill) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kQueue;
  ev.code = TraceCode::kQueueDepth;
  ev.source = TraceSource::kSim;
  ev.a = node;
  ev.b = peer;
  ev.value = bytes;
  ev.real = fill;
  emit(ev);
}

void TraceSink::route(util::SimTime at, TraceCode code, util::NodeId a, util::NodeId b,
                      std::uint64_t value) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kRoute;
  ev.code = code;
  ev.source = TraceSource::kRouting;
  ev.a = a;
  ev.b = b;
  ev.value = value;
  emit(ev);
}

void TraceSink::round_event(util::SimTime at, TraceSource src, TraceCode code,
                            std::int64_t round, std::uint64_t value) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kRound;
  ev.code = code;
  ev.source = src;
  ev.round = round;
  ev.value = value;
  emit(ev);
}

void TraceSink::exchange(util::SimTime at, TraceSource src, TraceCode code, util::NodeId from,
                         util::NodeId to, std::int64_t round, std::uint64_t value) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kExchange;
  ev.code = code;
  ev.source = src;
  ev.a = from;
  ev.b = to;
  ev.round = round;
  ev.value = value;
  emit(ev);
}

void TraceSink::suspicion(util::SimTime at, TraceSource src, util::NodeId reporter,
                          util::NodeId segment_front, util::NodeId segment_back,
                          std::size_t segment_len, std::int64_t round, double confidence,
                          const char* cause) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kSuspicion;
  ev.code = TraceCode::kSuspicionRaised;
  ev.source = src;
  ev.a = reporter;
  ev.b = segment_front;
  // value packs (segment length << 32 | segment back) so a two-node view
  // of the segment survives the fixed-size record.
  ev.value = (static_cast<std::uint64_t>(segment_len) << 32) |
             static_cast<std::uint64_t>(segment_back);
  ev.round = round;
  ev.real = confidence;
  ev.set_note(cause);
  emit(ev);
}

void TraceSink::annotate(util::SimTime at, const char* label) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kAnnotation;
  ev.code = TraceCode::kAnnotation;
  ev.source = TraceSource::kBench;
  ev.set_note(label);
  emit(ev);
}

void TraceSink::byzantine(util::SimTime at, TraceSource src, TraceCode code, util::NodeId a,
                          util::NodeId b, std::int64_t round, std::uint64_t value,
                          const char* note) {
  TraceEvent ev;
  ev.at = at;
  ev.category = TraceCategory::kByzantine;
  ev.code = code;
  ev.source = src;
  ev.a = a;
  ev.b = b;
  ev.round = round;
  ev.value = value;
  ev.set_note(note);
  emit(ev);
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < config_.capacity) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void TraceSink::clear() {
  ring_.clear();
  head_ = 0;
  next_seq_ = 0;
}

std::string TraceSink::to_json(const TraceEvent& ev) {
  const auto node = [](util::NodeId n) -> long long {
    return n == util::kInvalidNode ? -1 : static_cast<long long>(n);
  };
  std::string out = util::strfmt(
      "{\"t_ns\":%lld,\"seq\":%llu,\"cat\":\"%s\",\"code\":\"%s\",\"src\":\"%s\","
      "\"a\":%lld,\"b\":%lld,\"round\":%lld,\"value\":%llu,\"real\":%.9g",
      static_cast<long long>(ev.at.nanos()), static_cast<unsigned long long>(ev.seq),
      to_string(ev.category), to_string(ev.code), to_string(ev.source), node(ev.a), node(ev.b),
      static_cast<long long>(ev.round), static_cast<unsigned long long>(ev.value), ev.real);
  if (ev.note[0] != '\0') {
    out += util::strfmt(",\"note\":\"%s\"", ev.note_c_str());
  }
  out += "}";
  return out;
}

std::string TraceSink::to_jsonl() const {
  std::string out;
  for (const auto& ev : events()) {
    out += to_json(ev);
    out += '\n';
  }
  return out;
}

}  // namespace fatih::obs
