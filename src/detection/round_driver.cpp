#include "detection/round_driver.hpp"

#include <algorithm>
#include <string>

#include "detection/evidence.hpp"
#include "detection/reliable.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace fatih::detection {

RoundDriver::RoundDriver(sim::Network& net, const crypto::KeyRegistry& keys,
                         const PathCache& paths, RoundClock clock, std::int64_t rounds,
                         obs::TraceSource source, const char* name)
    : net_(net),
      keys_(keys),
      paths_(paths),
      guard_(net, keys, source),
      clock_(clock),
      rounds_(rounds),
      source_(source),
      name_(name) {}

void RoundDriver::start_rounds(util::Duration collect, util::Duration settle, RoundFn ship,
                               RoundFn evaluate) {
  collect_ = collect;
  settle_ = settle;
  ship_ = std::move(ship);
  evaluate_ = std::move(evaluate);
  std::int64_t round = 0;
  while (clock_.interval_of(round).end + collect_ <= net_.sim().now()) ++round;
  net_.sim().schedule_at(clock_.interval_of(round).end + collect_,
                         [this, round] { run_round(round); });
}

void RoundDriver::run_round(std::int64_t round) {
  open_round(round);
  ship_(round);
  net_.sim().schedule_in(settle_, [this, round] { evaluate_(round); });
  if (has_round_after(round)) {
    net_.sim().schedule_at(clock_.interval_of(round + 1).end + collect_,
                           [this, round] { run_round(round + 1); });
  }
}

ControlVerdict RoundDriver::admit_round(std::int64_t round, std::int64_t* margin) const {
  return guard_.admit_round(round, closed_round_, clock_.round_of(net_.sim().now()), margin);
}

void RoundDriver::open_round([[maybe_unused]] std::int64_t round) {
  ++counters_.rounds_opened;
  FATIH_TRACE_EMIT(net_.sim().trace(), round_event(net_.sim().now(), source_,
                                                   obs::TraceCode::kRoundOpen, round));
}

void RoundDriver::invalidate([[maybe_unused]] std::int64_t round, std::uint64_t count) {
  if (count == 0) return;
  counters_.rounds_invalidated += count;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), source_, obs::TraceCode::kRoundInvalidated,
                               round, count));
}

void RoundDriver::close_round(std::int64_t round) {
  closed_round_ = std::max(closed_round_, round);
  ++counters_.rounds_evaluated;
  FATIH_TRACE_EMIT(net_.sim().trace(), round_event(net_.sim().now(), source_,
                                                   obs::TraceCode::kRoundClose, round));
}

bool RoundDriver::churned(std::int64_t round) const {
  return paths_.changed_during(clock_.interval_of(round).begin, net_.sim().now());
}

bool RoundDriver::churned(std::int64_t round, const routing::PathSegment& seg) const {
  if (churned(round)) return true;
  return paths_.epoch_count() > 1 &&
         !seg.within(paths_.path_at(seg.front(), seg.back(), net_.sim().now()));
}

void RoundDriver::raise(util::NodeId reporter, const routing::PathSegment& segment,
                        std::int64_t round, const char* cause, double confidence) {
  Suspicion s{reporter, segment, clock_.interval_of(round), confidence, cause};
  util::log(util::LogLevel::kInfo, name_, "%s", s.to_string().c_str());
  ++counters_.suspicions;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   suspicion(net_.sim().now(), source_, reporter, segment.front(),
                             segment.back(), segment.length(), round, confidence, cause));
  suspicions_.push_back(std::move(s));
  if (handler_) handler_(suspicions_.back());
  if (conviction_ != nullptr) {
    conviction_->accuse(reporter, static_cast<std::uint8_t>(source_), segment, round, cause);
  }
}

void RoundDriver::suspect(util::NodeId reporter, const routing::PathSegment& segment,
                          std::int64_t round, const char* cause) {
  if (!raised_.insert({reporter, segment, round}).second) return;
  raise(reporter, segment, round, cause);
}

void RoundDriver::equivocation(util::NodeId at, std::int64_t round,
                               [[maybe_unused]] std::uint64_t detail,
                               [[maybe_unused]] const char* note,
                               const crypto::SignedEnvelope& first,
                               const crypto::SignedEnvelope& second, bool file) {
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   byzantine(net_.sim().now(), source_, obs::TraceCode::kEquivocationProven, at,
                             second.signer, round, detail, note));
  if (file) {
    conviction_->accuse(at, static_cast<std::uint8_t>(source_),
                        routing::PathSegment{second.signer}, round, "equivocation",
                        {first, second});
  }
}

void RoundDriver::send_control(ReliableChannel* channel, util::NodeId from, util::NodeId to,
                               std::shared_ptr<const sim::ControlPayload> payload,
                               std::uint32_t bytes) {
  if (channel != nullptr) {
    channel->send(from, to, std::move(payload), bytes, ReliableChannel::Via::kRouted);
    return;
  }
  sim::PacketHeader hdr;
  hdr.src = from;
  hdr.dst = to;
  hdr.proto = sim::Protocol::kControl;
  sim::Packet p = net_.make_packet(hdr, bytes);
  p.control = std::move(payload);
  originate(from, p);
}

void RoundDriver::originate(util::NodeId from, const sim::Packet& p) {
  if (net_.is_router(from)) {
    net_.router(from).originate(p);
  } else {
    net_.host(from).send(p);
  }
}

std::uint64_t RoundDriver::fingerprint(std::span<const std::uint64_t> state) const {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_word(h, static_cast<std::uint64_t>(closed_round_));
  h = util::fnv1a64_word(h, counters_.rounds_opened);
  h = util::fnv1a64_word(h, counters_.rounds_evaluated);
  h = util::fnv1a64_word(h, counters_.rounds_invalidated);
  h = util::fnv1a64_word(h, counters_.suspicions);
  for (const std::uint64_t word : state) h = util::fnv1a64_word(h, word);
  for (const Suspicion& s : suspicions_) {
    const std::string text = s.to_string();
    h = util::fnv1a64(text.data(), text.size(), h);
  }
  return h;
}

}  // namespace fatih::detection
