// Paths and path-segments (dissertation §4.1).
//
// A path is a finite sequence of adjacent routers; an x-path-segment is a
// sequence of x consecutive routers that is a subsequence of a path.
// Detection protocols report suspicions as path-segments and monitor a
// per-router set Pr of segments whose structure differs between
// Protocol Pi2 (§5.1) and Protocol Pi(k+2) (§5.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace fatih::routing {

/// An ordered sequence of adjacent routers.
using Path = std::vector<util::NodeId>;

/// A path-segment: value type with set semantics (ordered).
class PathSegment {
 public:
  PathSegment() = default;
  explicit PathSegment(std::vector<util::NodeId> nodes) : nodes_(std::move(nodes)) {}
  PathSegment(std::initializer_list<util::NodeId> nodes) : nodes_(nodes) {}

  [[nodiscard]] const std::vector<util::NodeId>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t length() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] util::NodeId front() const { return nodes_.front(); }
  [[nodiscard]] util::NodeId back() const { return nodes_.back(); }
  [[nodiscard]] bool contains(util::NodeId r) const;
  /// True if `r` is one of the two terminal routers of the segment.
  [[nodiscard]] bool is_end(util::NodeId r) const;
  /// True if this segment occurs contiguously inside `path`.
  [[nodiscard]] bool within(const Path& path) const;

  [[nodiscard]] std::string to_string() const;

  bool operator==(const PathSegment&) const = default;
  auto operator<=>(const PathSegment&) const = default;

 private:
  std::vector<util::NodeId> nodes_;
};

/// Extracts every contiguous window of exactly `x` nodes from `path`.
[[nodiscard]] std::vector<PathSegment> windows(const Path& path, std::size_t x);

/// The per-router monitored sets for the two protocols, computed over a
/// collection of in-use paths (normally: the unique shortest path for
/// every ordered source/destination pair).
class SegmentIndex {
 public:
  /// `k` is the AdjacentFault(k) bound. Paths of length < 3 contribute
  /// nothing (a 2-path has no interior router to monitor).
  SegmentIndex(const std::vector<Path>& used_paths, std::size_t k);

  /// Pr for Protocol Pi2 at router r: all (k+2)-windows of used paths that
  /// contain r, plus whole used paths of length 3..k+1 containing r
  /// (§5.1: shorter paths whose ends are terminal routers).
  [[nodiscard]] std::vector<PathSegment> pr_pi2(util::NodeId r) const;

  /// Pr for Protocol Pi(k+2) at router r: all segments of length 3..k+2 of
  /// used paths with r as one of the ends (§5.2).
  [[nodiscard]] std::vector<PathSegment> pr_pik2(util::NodeId r) const;

  /// All distinct segments monitored by anyone under Pi2 / Pi(k+2).
  [[nodiscard]] const std::vector<PathSegment>& all_pi2_segments() const { return pi2_; }
  [[nodiscard]] const std::vector<PathSegment>& all_pik2_segments() const { return pik2_; }

  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::size_t k_;
  std::vector<PathSegment> pi2_;   // sorted, unique
  std::vector<PathSegment> pik2_;  // sorted, unique
};

}  // namespace fatih::routing
