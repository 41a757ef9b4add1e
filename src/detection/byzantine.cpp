#include "detection/byzantine.hpp"

namespace fatih::detection {

const char* to_string(ControlVerdict v) {
  switch (v) {
    case ControlVerdict::kOk: return "ok";
    case ControlVerdict::kBadMac: return "bad-mac";
    case ControlVerdict::kSignerMismatch: return "signer-mismatch";
    case ControlVerdict::kMalformed: return "malformed";
    case ControlVerdict::kStale: return "stale-replay";
    case ControlVerdict::kFuture: return "future-round";
  }
  return "?";
}

ControlGuard::ControlGuard(sim::Network& net, const crypto::KeyRegistry& keys,
                           obs::TraceSource source)
    : net_(net), keys_(keys), source_(source) {
  signing_keys_.reserve(net_.node_count());
  for (util::NodeId n = 0; n < net_.node_count(); ++n) {
    signing_keys_.push_back(keys_.signing_key(n));
  }
}

bool ControlGuard::verify(const crypto::SignedEnvelope& env) const {
  if (env.signer < signing_keys_.size()) return crypto::verify(signing_keys_[env.signer], env);
  return crypto::verify(keys_, env);
}

template <typename Payload, typename Decode>
ControlVerdict ControlGuard::judge(const Payload& payload, Decode&& decode) const {
  std::optional<ControlVerdict>& cached = payload.cache.verdict_;
  if (cached.has_value()) {
    return *cached == ControlVerdict::kOk ? decode(payload.envelope) : *cached;
  }
  cached = verify(payload.envelope) ? decode(payload.envelope) : ControlVerdict::kBadMac;
  return *cached;
}

ControlVerdict ControlGuard::check_summary(const SegmentSummaryPayload& payload,
                                           std::optional<SegmentSummary>& out) const {
  std::optional<SegmentSummaryView> view;
  const ControlVerdict verdict = check_summary(payload, view);
  if (verdict == ControlVerdict::kOk) out = view->materialize();
  return verdict;
}

ControlVerdict ControlGuard::check_summary(const SegmentSummaryPayload& payload,
                                           std::optional<SegmentSummaryView>& out) const {
  return judge(payload, [&out](const crypto::SignedEnvelope& env) {
    const auto view = SegmentSummaryView::parse(env.payload);
    if (!view.has_value()) return ControlVerdict::kMalformed;
    if (view->reporter != env.signer) return ControlVerdict::kSignerMismatch;
    out = view;
    return ControlVerdict::kOk;
  });
}

ControlVerdict ControlGuard::check_report(const ChiReportPayload& payload,
                                          std::optional<ChiReport>& out) const {
  return judge(payload, [&out](const crypto::SignedEnvelope& env) {
    auto decoded = ChiReport::from_bytes(env.payload);
    if (!decoded.has_value()) return ControlVerdict::kMalformed;
    if (decoded->reporter != env.signer) return ControlVerdict::kSignerMismatch;
    out = std::move(decoded);
    return ControlVerdict::kOk;
  });
}

ControlVerdict ControlGuard::check_accusation(const AccusationPayload& payload,
                                              std::optional<Accusation>& out) const {
  return judge(payload, [&out](const crypto::SignedEnvelope& env) {
    auto decoded = Accusation::from_bytes(env.payload);
    if (!decoded.has_value()) return ControlVerdict::kMalformed;
    if (decoded->accuser != env.signer) return ControlVerdict::kSignerMismatch;
    out = std::move(decoded);
    return ControlVerdict::kOk;
  });
}

ControlVerdict ControlGuard::admit_round(std::int64_t round, std::int64_t closed_round,
                                         std::int64_t current_round,
                                         std::int64_t* margin) const {
  if (round <= closed_round) {
    if (margin != nullptr) *margin = closed_round - round;
    return ControlVerdict::kStale;
  }
  if (round > current_round + 1) return ControlVerdict::kFuture;
  return ControlVerdict::kOk;
}

void ControlGuard::accept() { ++stats_.accepted; }

void ControlGuard::reject([[maybe_unused]] util::NodeId at,
                          [[maybe_unused]] util::NodeId from,
                          [[maybe_unused]] std::int64_t round, ControlVerdict v,
                          [[maybe_unused]] const char* note) {
  switch (v) {
    case ControlVerdict::kOk: return;  // not a rejection
    case ControlVerdict::kBadMac: ++stats_.rejected_bad_mac; break;
    case ControlVerdict::kSignerMismatch: ++stats_.rejected_signer_mismatch; break;
    case ControlVerdict::kMalformed: ++stats_.rejected_malformed; break;
    case ControlVerdict::kStale: ++stats_.rejected_stale; break;
    case ControlVerdict::kFuture: ++stats_.rejected_future; break;
  }
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   byzantine(net_.sim().now(), source_, obs::TraceCode::kControlRejected, at,
                             from, round, static_cast<std::uint64_t>(v),
                             note != nullptr ? note : to_string(v)));
}

}  // namespace fatih::detection
