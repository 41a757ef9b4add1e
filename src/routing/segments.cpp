#include "routing/segments.hpp"

#include <algorithm>
#include <set>

namespace fatih::routing {

bool PathSegment::contains(util::NodeId r) const {
  return std::find(nodes_.begin(), nodes_.end(), r) != nodes_.end();
}

bool PathSegment::is_end(util::NodeId r) const {
  return !nodes_.empty() && (nodes_.front() == r || nodes_.back() == r);
}

bool PathSegment::within(const Path& path) const {
  if (nodes_.empty() || nodes_.size() > path.size()) return false;
  return std::search(path.begin(), path.end(), nodes_.begin(), nodes_.end()) != path.end();
}

std::string PathSegment::to_string() const {
  std::string out = "<";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) out += ",";
    out += util::node_name(nodes_[i]);
  }
  out += ">";
  return out;
}

std::vector<PathSegment> windows(const Path& path, std::size_t x) {
  std::vector<PathSegment> out;
  if (x == 0 || path.size() < x) return out;
  for (std::size_t i = 0; i + x <= path.size(); ++i) {
    out.emplace_back(std::vector<util::NodeId>(path.begin() + static_cast<std::ptrdiff_t>(i),
                                               path.begin() + static_cast<std::ptrdiff_t>(i + x)));
  }
  return out;
}

SegmentIndex::SegmentIndex(const std::vector<Path>& used_paths, std::size_t k) : k_(k) {
  // Ordered sets: iteration below is in lexicographic segment order, so the
  // assigned vectors are deterministically sorted with no post-pass (the
  // unordered_set + sort this replaces left a hash-ordered walk in the
  // build, which fatih-lint's no-unordered-iteration rule bans).
  std::set<PathSegment> pi2;
  std::set<PathSegment> pik2;
  const std::size_t target = k + 2;

  for (const Path& path : used_paths) {
    if (path.size() < 3) continue;
    if (path.size() >= target) {
      // Pi2 monitors every (k+2)-window; these cover all interior routers.
      for (auto& w : windows(path, target)) pi2.insert(std::move(w));
    } else {
      // Shorter whole paths: both ends are terminal routers.
      pi2.insert(PathSegment(path));
    }
    // Pi(k+2): every x-segment, 3 <= x <= k+2. Each is monitored by its two
    // end routers.
    for (std::size_t x = 3; x <= target; ++x) {
      for (auto& w : windows(path, x)) pik2.insert(std::move(w));
    }
  }

  pi2_.assign(pi2.begin(), pi2.end());
  pik2_.assign(pik2.begin(), pik2.end());
}

std::vector<PathSegment> SegmentIndex::pr_pi2(util::NodeId r) const {
  std::vector<PathSegment> out;
  for (const auto& seg : pi2_) {
    if (seg.contains(r)) out.push_back(seg);
  }
  return out;
}

std::vector<PathSegment> SegmentIndex::pr_pik2(util::NodeId r) const {
  std::vector<PathSegment> out;
  for (const auto& seg : pik2_) {
    if (seg.is_end(r)) out.push_back(seg);
  }
  return out;
}

}  // namespace fatih::routing
