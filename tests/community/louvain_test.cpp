#include "community/louvain.h"

#include <gtest/gtest.h>

#include "community/modularity.h"
#include "community/nmi.h"
#include "graph/builder.h"
#include "graph/generators.h"

#include <ostream>

namespace lcrb {
namespace {

TEST(Louvain, EmptyGraph) {
  const Partition p = louvain(DiGraph{});
  EXPECT_EQ(p.num_nodes(), 0u);
}

TEST(Louvain, EdgelessGraphSingletons) {
  GraphBuilder b;
  b.reserve_nodes(5);
  const Partition p = louvain(b.finalize());
  EXPECT_EQ(p.num_nodes(), 5u);
  EXPECT_EQ(p.num_communities(), 5u);
}

TEST(Louvain, TwoCliquesSeparated) {
  GraphBuilder b;
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = u + 1; v < 5; ++v) b.add_undirected_edge(u, v);
  for (NodeId u = 5; u < 10; ++u)
    for (NodeId v = u + 1; v < 10; ++v) b.add_undirected_edge(u, v);
  b.add_undirected_edge(0, 5);
  const DiGraph g = b.finalize();

  const Partition p = louvain(g);
  EXPECT_EQ(p.num_communities(), 2u);
  // All of clique 1 together, all of clique 2 together.
  for (NodeId v = 1; v < 5; ++v)
    EXPECT_EQ(p.community_of(v), p.community_of(0));
  for (NodeId v = 6; v < 10; ++v)
    EXPECT_EQ(p.community_of(v), p.community_of(5));
  EXPECT_NE(p.community_of(0), p.community_of(5));
}

TEST(Louvain, ImprovesModularityOverTrivial) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {80, 80, 80};
  cfg.avg_intra_degree = 6.0;
  cfg.avg_inter_degree = 0.8;
  cfg.seed = 21;
  const CommunityGraph cg = make_community_graph(cfg);
  const Partition p = louvain(cg.graph);
  const double q = modularity(cg.graph, p);
  EXPECT_GT(q, 0.4);
}

// Property: Louvain recovers planted partitions across seeds and shapes.
struct PlantedCase {
  std::vector<NodeId> sizes;
  double intra, inter;
  std::uint64_t seed;
};

// Discovered ctest names embed the printed parameter. gtest's default printout
// of PlantedCase dumps its raw bytes, including the vector's heap pointer, so
// the names changed from run to run; print the fields instead.
void PrintTo(const PlantedCase& pc, std::ostream* os) {
  *os << "sizes=";
  for (std::size_t i = 0; i < pc.sizes.size(); ++i)
    *os << (i ? "," : "") << pc.sizes[i];
  *os << " intra=" << pc.intra << " inter=" << pc.inter << " seed=" << pc.seed;
}

class LouvainRecoveryTest : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(LouvainRecoveryTest, RecoversPlantedCommunities) {
  const PlantedCase& pc = GetParam();
  CommunityGraphConfig cfg;
  cfg.community_sizes = pc.sizes;
  cfg.avg_intra_degree = pc.intra;
  cfg.avg_inter_degree = pc.inter;
  cfg.seed = pc.seed;
  const CommunityGraph cg = make_community_graph(cfg);

  LouvainConfig lc;
  lc.seed = pc.seed + 1;
  const Partition found = louvain(cg.graph, lc);
  const Partition truth(cg.membership);

  EXPECT_GT(normalized_mutual_information(found, truth), 0.75)
      << "sizes=" << pc.sizes.size() << " seed=" << pc.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Planted, LouvainRecoveryTest,
    ::testing::Values(PlantedCase{{60, 60, 60}, 8.0, 0.4, 1},
                      PlantedCase{{100, 50, 150}, 7.0, 0.5, 2},
                      PlantedCase{{40, 40, 40, 40, 40}, 9.0, 0.6, 3},
                      PlantedCase{{200, 200}, 6.0, 0.5, 4}));

TEST(Louvain, DeterministicInSeed) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {50, 50};
  cfg.seed = 31;
  const CommunityGraph cg = make_community_graph(cfg);
  LouvainConfig lc;
  lc.seed = 9;
  const Partition a = louvain(cg.graph, lc);
  const Partition b = louvain(cg.graph, lc);
  EXPECT_EQ(a.membership(), b.membership());
}

}  // namespace
}  // namespace lcrb
