#include "lcrb/gvs.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "support/gvs_reference.h"
#include "util/rng.h"

namespace lcrb {
namespace {

GvsConfig fast_cfg(std::size_t budget) {
  GvsConfig cfg;
  cfg.budget = budget;
  cfg.sigma.samples = 15;
  cfg.sigma.seed = 9;
  cfg.sigma.max_hops = 40;
  return cfg;
}

TEST(Gvs, BlocksForcedPathCompletely) {
  // 0 -> 1 -> ... -> 9: seeding the protector at 1 stops everything.
  const DiGraph g = path_graph(10);
  const std::vector<NodeId> rumors{0};
  const GvsResult r = gvs_protectors(g, rumors, fast_cfg(1));
  ASSERT_EQ(r.protectors.size(), 1u);
  EXPECT_EQ(r.protectors[0], 1u);
  EXPECT_DOUBLE_EQ(r.baseline_infected, 10.0);
  EXPECT_DOUBLE_EQ(r.final_infected, 1.0);  // only the seed stays infected
}

TEST(Gvs, InfectionHistoryIsNonIncreasing) {
  Rng rng(4);
  const DiGraph g = erdos_renyi(120, 0.04, true, rng);
  const std::vector<NodeId> rumors{0, 1};
  const GvsResult r = gvs_protectors(g, rumors, fast_cfg(5));
  double prev = r.baseline_infected;
  for (double v : r.infected_history) {
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(r.final_infected, r.infected_history.back());
}

TEST(Gvs, RespectsBudgetAndExcludesRumors) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2};
  const GvsResult r = gvs_protectors(g, rumors, fast_cfg(4));
  EXPECT_EQ(r.protectors.size(), 4u);
  const std::set<NodeId> distinct(r.protectors.begin(), r.protectors.end());
  EXPECT_EQ(distinct.size(), 4u);
  for (NodeId v : r.protectors) EXPECT_GT(v, 2u);
}

TEST(Gvs, ParallelMatchesSerial) {
  Rng rng(6);
  const DiGraph g = erdos_renyi(60, 0.08, true, rng);
  const std::vector<NodeId> rumors{0};
  const GvsResult a = gvs_protectors(g, rumors, fast_cfg(3));
  ThreadPool pool(3);
  const GvsResult b = gvs_protectors(g, rumors, fast_cfg(3), &pool);
  EXPECT_EQ(a.protectors, b.protectors);
  EXPECT_NEAR(a.final_infected, b.final_infected, 1e-9);
}

TEST(Gvs, CandidateCapLimitsPool) {
  Rng rng(7);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  GvsConfig cfg = fast_cfg(2);
  cfg.max_candidates = 10;
  const GvsResult r = gvs_protectors(g, {std::vector<NodeId>{0}}, cfg);
  // Picks must come from the 10 highest-out-degree non-rumor nodes.
  std::vector<NodeId> order;
  for (NodeId v = 1; v < g.num_nodes(); ++v) order.push_back(v);
  std::stable_sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    return g.out_degree(a) > g.out_degree(b);
  });
  order.resize(10);
  for (NodeId v : r.protectors) {
    EXPECT_NE(std::find(order.begin(), order.end(), v), order.end());
  }
}

TEST(Gvs, ValidatesConfig) {
  const DiGraph g = path_graph(4);
  GvsConfig cfg = fast_cfg(0);
  EXPECT_THROW(gvs_protectors(g, {std::vector<NodeId>{0}}, cfg), Error);
  cfg = fast_cfg(1);
  cfg.sigma.samples = 0;
  EXPECT_THROW(gvs_protectors(g, {std::vector<NodeId>{0}}, cfg), Error);
  EXPECT_THROW(gvs_protectors(g, {}, fast_cfg(1)), Error);
}

TEST(Gvs, WorksUnderDoam) {
  const DiGraph g = path_graph(8);
  GvsConfig cfg = fast_cfg(1);
  cfg.sigma.model = DiffusionModel::kDoam;
  cfg.sigma.samples = 1;
  const GvsResult r = gvs_protectors(g, {std::vector<NodeId>{0}}, cfg);
  EXPECT_EQ(r.protectors[0], 1u);
  EXPECT_DOUBLE_EQ(r.final_infected, 1.0);
}

/// Runs gvs_protectors with no pool, one thread and four threads and
/// requires each run to equal the forward-simulation reference bit for bit.
template <class G>
void expect_matches_reference(const G& g, std::span<const NodeId> rumors,
                              const GvsConfig& cfg, const std::string& label) {
  const GvsResult want = statcheck::gvs_reference(
      g, rumors, cfg.budget, cfg.max_candidates, cfg.sigma);
  ASSERT_FALSE(want.protectors.empty()) << label;
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    const std::string at =
        label + " threads " +
        std::to_string(pool != nullptr ? pool->thread_count() : 0);
    const GvsResult got = gvs_protectors(g, rumors, cfg, pool);
    EXPECT_EQ(got.protectors, want.protectors) << at;
    EXPECT_EQ(got.infected_history, want.infected_history) << at;
    EXPECT_EQ(got.baseline_infected, want.baseline_infected) << at;
    EXPECT_EQ(got.final_infected, want.final_infected) << at;
  }
}

TEST(Gvs, MatchesForwardSimulationReference) {
  // Every model, both backends, with and without a candidate cap.
  for (std::uint64_t seed : {31, 32, 33}) {
    Rng rng(seed);
    const DiGraph csr =
        erdos_renyi(60 + 10 * static_cast<NodeId>(seed - 31), 0.06, true, rng);
    const EfGraph ef = EfGraph::from_csr(csr);
    const std::vector<NodeId> rumors{0, 1};
    for (DiffusionModel m :
         {DiffusionModel::kOpoao, DiffusionModel::kDoam, DiffusionModel::kIc,
          DiffusionModel::kLt, DiffusionModel::kWc}) {
      GvsConfig cfg;
      cfg.budget = 4;
      cfg.max_candidates = seed == 31 ? 0 : 25;
      cfg.sigma.samples = 6;
      cfg.sigma.seed = seed;
      cfg.sigma.max_hops = 20;
      cfg.sigma.model = m;
      cfg.sigma.ic_edge_prob = 0.3;
      const std::string label =
          to_string(m) + " graph " + std::to_string(seed);
      expect_matches_reference(csr, rumors, cfg, label + " csr");
      expect_matches_reference(ef, rumors, cfg, label + " ef");
    }
  }
}

}  // namespace
}  // namespace lcrb
