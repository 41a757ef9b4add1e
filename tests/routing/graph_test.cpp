#include "routing/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/network.hpp"

namespace fatih::routing {
namespace {

TEST(Topology, EmptyByDefault) {
  Topology t;
  EXPECT_EQ(t.node_count(), 0U);
  EXPECT_EQ(t.edge_count(), 0U);
}

TEST(Topology, AddEdgeCreatesNodes) {
  Topology t;
  t.add_edge(2, 5, 3);
  EXPECT_EQ(t.node_count(), 6U);
  EXPECT_TRUE(t.has_edge(2, 5));
  EXPECT_FALSE(t.has_edge(5, 2));
  EXPECT_EQ(t.metric(2, 5), 3U);
  EXPECT_EQ(t.metric(5, 2), 0U);
}

TEST(Topology, DuplexAddsBoth) {
  Topology t;
  t.add_duplex(0, 1, 7);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(1, 0));
  EXPECT_EQ(t.edge_count(), 2U);
}

TEST(Topology, DuplicateEdgeIgnored) {
  Topology t;
  t.add_edge(0, 1, 2);
  t.add_edge(0, 1, 9);  // keeps the first metric
  EXPECT_EQ(t.edge_count(), 1U);
  EXPECT_EQ(t.metric(0, 1), 2U);
}

TEST(Topology, MetricOutsideOspfRangeThrows) {
  // OSPF link costs are 16-bit and nonzero (RFC 2328 §A.4.2).
  Topology t;
  EXPECT_THROW(t.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(t.add_duplex(0, 1, 65536), std::invalid_argument);
  EXPECT_EQ(t.node_count(), 0U);
  EXPECT_EQ(t.edge_count(), 0U);
  t.add_edge(0, 1, 1);
  t.add_edge(1, 0, 65535);
  EXPECT_EQ(t.metric(0, 1), 1U);
  EXPECT_EQ(t.metric(1, 0), 65535U);
}

TEST(Topology, NeighborsSpan) {
  Topology t;
  t.add_edge(0, 1, 1);
  t.add_edge(0, 2, 1);
  t.add_edge(0, 3, 1);
  EXPECT_EQ(t.degree(0), 3U);
  EXPECT_EQ(t.degree(1), 0U);
  EXPECT_EQ(t.neighbors(0).size(), 3U);
  EXPECT_TRUE(t.neighbors(99).empty());
}

TEST(Topology, FromNetworkMirrorsAdjacencies) {
  sim::Network net(1);
  auto& a = net.add_router("a");
  auto& b = net.add_router("b");
  auto& c = net.add_router("c");
  sim::LinkConfig cfg;
  cfg.metric = 4;
  net.connect(a.id(), b.id(), cfg);
  cfg.metric = 2;
  net.connect(b.id(), c.id(), cfg);
  const Topology t = Topology::from_network(net);
  EXPECT_EQ(t.node_count(), 3U);
  EXPECT_EQ(t.edge_count(), 4U);
  EXPECT_EQ(t.metric(a.id(), b.id()), 4U);
  EXPECT_EQ(t.metric(c.id(), b.id()), 2U);
}

}  // namespace
}  // namespace fatih::routing
