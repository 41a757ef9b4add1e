#include "routing/segments.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "routing/spf.hpp"
#include "routing/topologies.hpp"

namespace fatih::routing {
namespace {

TEST(PathSegment, BasicAccessors) {
  const PathSegment seg{1, 2, 3};
  EXPECT_EQ(seg.length(), 3U);
  EXPECT_EQ(seg.front(), 1U);
  EXPECT_EQ(seg.back(), 3U);
  EXPECT_TRUE(seg.contains(2));
  EXPECT_FALSE(seg.contains(4));
  EXPECT_TRUE(seg.is_end(1));
  EXPECT_TRUE(seg.is_end(3));
  EXPECT_FALSE(seg.is_end(2));
  EXPECT_EQ(seg.to_string(), "<r1,r2,r3>");
}

TEST(PathSegment, WithinRequiresContiguity) {
  // The dissertation's example (§4.1): in path <a,b,c,d>, <c,d> and <b,c>
  // are 2-path-segments but <a,c> is not.
  const Path path{0, 1, 2, 3};
  EXPECT_TRUE((PathSegment{2, 3}).within(path));
  EXPECT_TRUE((PathSegment{1, 2}).within(path));
  EXPECT_FALSE((PathSegment{0, 2}).within(path));
  EXPECT_TRUE((PathSegment{0, 1, 2, 3}).within(path));
  EXPECT_FALSE((PathSegment{1, 0}).within(path));  // direction matters
}

TEST(Windows, EnumeratesAll) {
  const Path path{0, 1, 2, 3, 4};
  const auto w3 = windows(path, 3);
  ASSERT_EQ(w3.size(), 3U);
  EXPECT_EQ(w3[0], (PathSegment{0, 1, 2}));
  EXPECT_EQ(w3[2], (PathSegment{2, 3, 4}));
  EXPECT_TRUE(windows(path, 6).empty());
  EXPECT_EQ(windows(path, 5).size(), 1U);
}

TEST(SegmentIndex, Pi2MonitorsKPlus2Windows) {
  // One path of 6 routers, k=1: Pi2 segments are the 3-windows.
  const std::vector<Path> paths{{0, 1, 2, 3, 4, 5}};
  const SegmentIndex index(paths, 1);
  EXPECT_EQ(index.all_pi2_segments().size(), 4U);
  // Router 2 sits in windows starting at 0,1,2.
  EXPECT_EQ(index.pr_pi2(2).size(), 3U);
  // End router 0 is only in the first window.
  EXPECT_EQ(index.pr_pi2(0).size(), 1U);
}

TEST(SegmentIndex, Pik2MonitorsEndSegments) {
  const std::vector<Path> paths{{0, 1, 2, 3, 4, 5}};
  const SegmentIndex index(paths, 2);  // segments of length 3..4
  // Router 0: end of <0,1,2> and <0,1,2,3>.
  EXPECT_EQ(index.pr_pik2(0).size(), 2U);
  // Router 2: end of <0,1,2>, <2,3,4>, <2,3,4,5>, and of 4-windows ending
  // at 2: <... hmm enumerate: segments with 2 as an end:
  //   len3: <0,1,2>, <2,3,4>; len4: <2,3,4,5>.
  // Plus 4-windows ending at 2: none start early enough except... <0,1,2>
  // is len3; 4-window ending at 2 would be <-1,0,1,2>: doesn't exist.
  // 4-window <0,1,2,3> has ends 0 and 3. So 2 has: len3 x2 + len4 x1 = 3?
  // And 4-window ending at 2: does not exist. But <2,3,4,5> yes.
  EXPECT_EQ(index.pr_pik2(2).size(), 3U);
}

TEST(SegmentIndex, ShortPathsMonitoredWhole) {
  // A 3-router path with k=3 (target length 5): the whole path is the
  // only Pi2 segment.
  const std::vector<Path> paths{{0, 1, 2}};
  const SegmentIndex index(paths, 3);
  ASSERT_EQ(index.all_pi2_segments().size(), 1U);
  EXPECT_EQ(index.all_pi2_segments()[0], (PathSegment{0, 1, 2}));
}

TEST(SegmentIndex, TwoHopPathsIgnored) {
  const std::vector<Path> paths{{0, 1}};
  const SegmentIndex index(paths, 1);
  EXPECT_TRUE(index.all_pi2_segments().empty());
  EXPECT_TRUE(index.all_pik2_segments().empty());
}

TEST(SegmentIndex, DeduplicatesAcrossPaths) {
  // Two paths sharing the middle produce each shared window once.
  const std::vector<Path> paths{{0, 1, 2, 3}, {4, 1, 2, 3}};
  const SegmentIndex index(paths, 1);
  std::set<PathSegment> segs(index.all_pi2_segments().begin(),
                             index.all_pi2_segments().end());
  EXPECT_EQ(segs.size(), index.all_pi2_segments().size());
  EXPECT_TRUE(segs.contains(PathSegment{1, 2, 3}));
}

TEST(SegmentIndex, Pik2SubsetSizesGrowWithK) {
  const std::vector<Path> paths{{0, 1, 2, 3, 4, 5, 6, 7}};
  const SegmentIndex k1(paths, 1);
  const SegmentIndex k3(paths, 3);
  EXPECT_LT(k1.all_pik2_segments().size(), k3.all_pik2_segments().size());
}

TEST(SegmentIndex, Pik2PlateauOnGeneratedEbone) {
  // Fig. 5.4 flattens once k+2 spans the longest used path: then router r
  // starts exactly one Pi(k+2) segment per router it does not reach
  // directly (its path to each of them) and ends one per such router, so
  // |Pr| = 2(N - 1 - deg r).
  const Topology t = generated_topology(topo::generate(topo::ebone()));
  std::vector<util::NodeId> terminals(t.node_count());
  std::iota(terminals.begin(), terminals.end(), util::NodeId{0});
  const SegmentIndex index(RoutingTables(t).all_paths(terminals), 8);
  std::vector<std::size_t> ends(t.node_count(), 0);
  for (const PathSegment& seg : index.all_pik2_segments()) {
    ++ends[seg.front()];
    ++ends[seg.back()];
  }
  for (util::NodeId r = 0; r < t.node_count(); ++r) {
    EXPECT_EQ(ends[r], 2 * (t.node_count() - 1 - t.degree(r))) << "router " << r;
  }
}

}  // namespace
}  // namespace fatih::routing
