#include "graph/metrics.h"

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"

namespace lcrb {
namespace {

TEST(DegreeStats, EmptyGraph) {
  const DegreeStats s = degree_stats(DiGraph{});
  EXPECT_EQ(s.avg_out, 0.0);
  EXPECT_EQ(s.max_out, 0u);
}

TEST(DegreeStats, StarValues) {
  const DiGraph g = star_graph(11);  // hub with 10 out-edges
  const DegreeStats s = degree_stats(g);
  EXPECT_DOUBLE_EQ(s.avg_out, 10.0 / 11.0);
  EXPECT_EQ(s.max_out, 10u);
  EXPECT_EQ(s.max_in, 1u);
  EXPECT_EQ(s.isolated, 0u);
  EXPECT_DOUBLE_EQ(s.p50_out, 0.0);
  EXPECT_DOUBLE_EQ(s.p90_out, 0.0);
  // Sorted out-degrees are ten 0s then 10: p99 interpolates 0.9 of the way.
  EXPECT_NEAR(s.p99_out, 9.0, 1e-9);
}

TEST(DegreeStats, CountsIsolated) {
  GraphBuilder b;
  b.reserve_nodes(5);
  b.add_edge(0, 1);
  const DegreeStats s = degree_stats(b.finalize());
  EXPECT_EQ(s.isolated, 3u);
}

TEST(Wcc, SingleComponent) {
  const DiGraph g = cycle_graph(6);
  const ComponentResult r = weakly_connected_components(g);
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.largest_size, 6u);
}

TEST(Wcc, DirectionIgnored) {
  // 0 -> 1 <- 2: weakly connected despite no directed path 0 -> 2.
  const DiGraph g = make_graph(3, {{0, 1}, {2, 1}});
  const ComponentResult r = weakly_connected_components(g);
  EXPECT_EQ(r.count, 1u);
}

TEST(Wcc, MultipleComponentsAndIsolated) {
  GraphBuilder b;
  b.reserve_nodes(7);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  const ComponentResult r = weakly_connected_components(b.finalize());
  EXPECT_EQ(r.count, 4u);  // {0,1}, {2,3,4}, {5}, {6}
  EXPECT_EQ(r.largest_size, 3u);
  EXPECT_EQ(r.labels[0], r.labels[1]);
  EXPECT_EQ(r.labels[2], r.labels[4]);
  EXPECT_NE(r.labels[0], r.labels[2]);
  EXPECT_NE(r.labels[5], r.labels[6]);
}

TEST(Reciprocity, FullySymmetric) {
  const DiGraph g = path_graph(5, /*undirected=*/true);
  EXPECT_DOUBLE_EQ(reciprocity(g), 1.0);
}

TEST(Reciprocity, NoneSymmetric) {
  const DiGraph g = path_graph(5);
  EXPECT_DOUBLE_EQ(reciprocity(g), 0.0);
}

TEST(Reciprocity, Mixed) {
  const DiGraph g = make_graph(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_NEAR(reciprocity(g), 2.0 / 3.0, 1e-12);
}

TEST(Reciprocity, EmptyGraphIsZero) {
  EXPECT_EQ(reciprocity(DiGraph{}), 0.0);
}

TEST(Describe, MentionsKeyNumbers) {
  const DiGraph g = cycle_graph(4);
  const std::string d = describe(g);
  EXPECT_NE(d.find("n=4"), std::string::npos);
  EXPECT_NE(d.find("arcs=4"), std::string::npos);
  EXPECT_NE(d.find("wcc=1"), std::string::npos);
}

}  // namespace
}  // namespace lcrb
