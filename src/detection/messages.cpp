#include "detection/messages.hpp"

#include <cstring>

namespace fatih::detection {

namespace {
/// True iff `count` elements of `elem_bytes` each can still fit in the
/// remaining input — checked BEFORE any allocation, so a forged length
/// field can never drive an oversized reserve.
bool count_fits(std::span<const std::byte> in, std::size_t offset, std::uint64_t count,
                std::size_t elem_bytes, std::uint64_t cap) {
  if (count > cap) return false;
  if (offset > in.size()) return false;
  return count * elem_bytes <= in.size() - offset;
}

/// Claims the next `count` elements of `elem_bytes` each as a span of the
/// input, once count_fits admits them.
bool take(std::span<const std::byte> in, std::size_t& offset, std::uint64_t count,
          std::size_t elem_bytes, std::uint64_t cap, std::span<const std::byte>& out) {
  if (!count_fits(in, offset, count, elem_bytes, cap)) return false;
  out = in.subspan(offset, count * elem_bytes);
  offset += out.size();
  return true;
}

template <typename T>
std::vector<T> copy_out(std::span<const std::byte> bytes) {
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}
}  // namespace

std::vector<std::byte> SegmentSummary::to_bytes() const {
  // Size the buffer exactly with a counting pass, then fill it.
  std::size_t size = 0;
  encode([&size](const void*, std::size_t len) { size += len; });
  std::vector<std::byte> out(size);
  std::size_t at = 0;
  encode([&out, &at](const void* data, std::size_t len) {
    if (len != 0) std::memcpy(out.data() + at, data, len);
    at += len;
  });
  return out;
}

std::optional<SegmentSummaryView> SegmentSummaryView::parse(std::span<const std::byte> in) {
  SegmentSummaryView out;
  std::size_t off = 0;
  std::uint32_t seg_len = 0;
  std::uint64_t content_n = 0;
  std::uint64_t recon_n = 0;
  std::uint64_t bloom_n = 0;
  const bool ok =
      crypto::read_bytes(in, off, out.reporter) && crypto::read_bytes(in, off, seg_len) &&
      take(in, off, seg_len, sizeof(util::NodeId), kMaxSegmentNodes, out.segment) &&
      crypto::read_bytes(in, off, out.round) &&
      crypto::read_bytes(in, off, out.counters.packets) &&
      crypto::read_bytes(in, off, out.counters.bytes) &&
      crypto::read_bytes(in, off, content_n) &&
      take(in, off, content_n, sizeof(validation::Fingerprint), kMaxSummaryElements,
           out.content) &&
      crypto::read_bytes(in, off, recon_n) &&
      take(in, off, recon_n, sizeof(std::uint64_t), kMaxSummaryElements, out.recon_evals) &&
      crypto::read_bytes(in, off, bloom_n) &&
      take(in, off, bloom_n, sizeof(std::uint64_t), kMaxSummaryElements, out.bloom_words) &&
      crypto::read_bytes(in, off, out.bloom_hashes);
  // Trailing bytes are not canonical.
  if (!ok || off != in.size()) return std::nullopt;
  return out;
}

util::NodeId SegmentSummaryView::segment_node(std::size_t i) const {
  util::NodeId n = util::kInvalidNode;
  std::memcpy(&n, segment.data() + i * sizeof(n), sizeof(n));
  return n;
}

std::vector<validation::Fingerprint> SegmentSummaryView::content_copy() const {
  return copy_out<validation::Fingerprint>(content);
}

SegmentSummary SegmentSummaryView::materialize() const {
  SegmentSummary out;
  out.reporter = reporter;
  out.segment = routing::PathSegment{copy_out<util::NodeId>(segment)};
  out.round = round;
  out.counters = counters;
  out.content = content_copy();
  out.recon_evals = copy_out<std::uint64_t>(recon_evals);
  out.bloom_words = copy_out<std::uint64_t>(bloom_words);
  out.bloom_hashes = bloom_hashes;
  return out;
}

std::optional<SegmentSummary> SegmentSummary::from_bytes(std::span<const std::byte> in) {
  const auto view = SegmentSummaryView::parse(in);
  if (!view.has_value()) return std::nullopt;
  return view->materialize();
}

std::uint32_t SegmentSummary::wire_bytes() const {
  return 64 + 8 * static_cast<std::uint32_t>(content.size()) +
         8 * static_cast<std::uint32_t>(recon_evals.size()) +
         8 * static_cast<std::uint32_t>(bloom_words.size()) +
         4 * static_cast<std::uint32_t>(segment.length());
}

std::vector<std::byte> ChiReport::to_bytes() const {
  std::vector<std::byte> out;
  crypto::append_bytes(out, reporter);
  crypto::append_bytes(out, queue_owner);
  crypto::append_bytes(out, queue_peer);
  crypto::append_bytes(out, round);
  crypto::append_bytes(out, part);
  crypto::append_bytes(out, parts);
  crypto::append_bytes(out, static_cast<std::uint64_t>(records.size()));
  for (const ChiRecord& rec : records) {
    crypto::append_bytes(out, rec.fp);
    crypto::append_bytes(out, rec.size_bytes);
    crypto::append_bytes(out, rec.flow_id);
    crypto::append_bytes(out, rec.control);
    crypto::append_bytes(out, rec.ts.nanos());
  }
  return out;
}

std::uint32_t ChiReport::wire_bytes() const {
  return 64 + 24 * static_cast<std::uint32_t>(records.size());
}

std::optional<ChiReport> ChiReport::from_bytes(std::span<const std::byte> in) {
  ChiReport out;
  std::size_t off = 0;
  if (!crypto::read_bytes(in, off, out.reporter)) return std::nullopt;
  if (!crypto::read_bytes(in, off, out.queue_owner)) return std::nullopt;
  if (!crypto::read_bytes(in, off, out.queue_peer)) return std::nullopt;
  if (!crypto::read_bytes(in, off, out.round)) return std::nullopt;
  if (!crypto::read_bytes(in, off, out.part)) return std::nullopt;
  if (!crypto::read_bytes(in, off, out.parts)) return std::nullopt;
  std::uint64_t n = 0;
  if (!crypto::read_bytes(in, off, n)) return std::nullopt;
  // One serialized record is fp(8) + size(4) + flow(4) + control(1) + ts(8).
  constexpr std::size_t kRecordBytes = 25;
  if (!count_fits(in, off, n, kRecordBytes, kMaxChiRecords)) return std::nullopt;
  out.records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ChiRecord rec;
    std::int64_t ts_nanos = 0;
    if (!crypto::read_bytes(in, off, rec.fp)) return std::nullopt;
    if (!crypto::read_bytes(in, off, rec.size_bytes)) return std::nullopt;
    if (!crypto::read_bytes(in, off, rec.flow_id)) return std::nullopt;
    if (!crypto::read_bytes(in, off, rec.control)) return std::nullopt;
    if (!crypto::read_bytes(in, off, ts_nanos)) return std::nullopt;
    rec.ts = util::SimTime::from_nanos(ts_nanos);
    out.records.push_back(rec);
  }
  if (off != in.size()) return std::nullopt;
  return out;
}

std::vector<std::byte> Accusation::to_bytes() const {
  std::vector<std::byte> out;
  crypto::append_bytes(out, accuser);
  crypto::append_bytes(out, detector);
  crypto::append_bytes(out, static_cast<std::uint32_t>(accused.length()));
  for (util::NodeId n : accused.nodes()) crypto::append_bytes(out, n);
  crypto::append_bytes(out, round);
  crypto::append_bytes(out, static_cast<std::uint32_t>(cause.size()));
  for (char c : cause) crypto::append_bytes(out, c);
  crypto::append_bytes(out, static_cast<std::uint32_t>(evidence.size()));
  for (const crypto::SignedEnvelope& env : evidence) {
    crypto::append_bytes(out, env.signer);
    crypto::append_bytes(out, static_cast<std::uint32_t>(env.payload.size()));
    out.insert(out.end(), env.payload.begin(), env.payload.end());
    crypto::append_bytes(out, env.tag);
  }
  return out;
}

std::uint32_t Accusation::wire_bytes() const {
  std::uint32_t bytes = 48 + 4 * static_cast<std::uint32_t>(accused.length()) +
                        static_cast<std::uint32_t>(cause.size());
  for (const crypto::SignedEnvelope& env : evidence) {
    bytes += 16 + static_cast<std::uint32_t>(env.payload.size());
  }
  return bytes;
}

std::optional<Accusation> Accusation::from_bytes(std::span<const std::byte> in) {
  Accusation out;
  std::size_t off = 0;
  if (!crypto::read_bytes(in, off, out.accuser)) return std::nullopt;
  if (!crypto::read_bytes(in, off, out.detector)) return std::nullopt;
  std::uint32_t seg_len = 0;
  if (!crypto::read_bytes(in, off, seg_len)) return std::nullopt;
  if (!count_fits(in, off, seg_len, sizeof(util::NodeId), kMaxSegmentNodes)) return std::nullopt;
  std::vector<util::NodeId> nodes;
  nodes.reserve(seg_len);
  for (std::uint32_t i = 0; i < seg_len; ++i) {
    util::NodeId n = util::kInvalidNode;
    if (!crypto::read_bytes(in, off, n)) return std::nullopt;
    nodes.push_back(n);
  }
  out.accused = routing::PathSegment{std::move(nodes)};
  if (!crypto::read_bytes(in, off, out.round)) return std::nullopt;
  std::uint32_t cause_len = 0;
  if (!crypto::read_bytes(in, off, cause_len)) return std::nullopt;
  if (!count_fits(in, off, cause_len, 1, kMaxCauseBytes)) return std::nullopt;
  out.cause.reserve(cause_len);
  for (std::uint32_t i = 0; i < cause_len; ++i) {
    char c = 0;
    if (!crypto::read_bytes(in, off, c)) return std::nullopt;
    out.cause.push_back(c);
  }
  std::uint32_t ev_n = 0;
  if (!crypto::read_bytes(in, off, ev_n)) return std::nullopt;
  if (ev_n > kMaxEvidence) return std::nullopt;
  out.evidence.reserve(ev_n);
  for (std::uint32_t i = 0; i < ev_n; ++i) {
    crypto::SignedEnvelope env;
    if (!crypto::read_bytes(in, off, env.signer)) return std::nullopt;
    std::uint32_t payload_len = 0;
    if (!crypto::read_bytes(in, off, payload_len)) return std::nullopt;
    if (!count_fits(in, off, payload_len, 1, kMaxEvidencePayload)) return std::nullopt;
    env.payload.assign(in.begin() + static_cast<std::ptrdiff_t>(off),
                       in.begin() + static_cast<std::ptrdiff_t>(off + payload_len));
    off += payload_len;
    if (!crypto::read_bytes(in, off, env.tag)) return std::nullopt;
    out.evidence.push_back(std::move(env));
  }
  if (off != in.size()) return std::nullopt;
  return out;
}

}  // namespace fatih::detection
