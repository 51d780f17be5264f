// Boundary conditions across the diffusion stack.
#include <gtest/gtest.h>

#include "diffusion/doam.h"
#include "diffusion/model_traits.h"
#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"

namespace lcrb {
namespace {

constexpr DiffusionModel kAllModels[] = {
    DiffusionModel::kOpoao, DiffusionModel::kDoam, DiffusionModel::kIc,
    DiffusionModel::kLt, DiffusionModel::kWc};

const RealizationParams kOpoaoCap{.max_hops = 10000};
const RealizationParams kUncapped{.max_hops = 0xffffffff};
constexpr DiffusionModel kOpoao = DiffusionModel::kOpoao;
constexpr DiffusionModel kDoam = DiffusionModel::kDoam;

// One forward run of model `m`, through the traits the runtime model
// dispatches to.
template <class G>
DiffusionResult run(DiffusionModel m, const G& g, const SeedSets& seeds,
                    std::uint64_t seed, const RealizationParams& params) {
  return dispatch_model(m, [&](auto t) {
    return run_cascade<decltype(t)>(g, seeds, seed, params);
  });
}

// Runs `check` on `g` and on its Elias-Fano copy.
template <class F>
void on_both_backends(const DiGraph& g, F&& check) {
  check(g);
  check(EfGraph::from_csr(g));
}

TEST(EdgeCases, ZeroMaxStepsFreezesSeeds) {
  // On a directed path every model spreads one hop per step (OPOAO has one
  // out-neighbor to pick, the LT/WC in-weight is 1, IC runs at p = 1), so
  // only the hop cap can stop it.
  on_both_backends(path_graph(5), [](const auto& g) {
    for (DiffusionModel m : kAllModels) {
      const DiffusionResult r =
          run(m, g, {{0}, {4}}, 1, {.max_hops = 0, .ic_edge_prob = 1.0});
      EXPECT_EQ(r.infected_count(), 1u) << to_string(m);
      EXPECT_EQ(r.protected_count(), 1u) << to_string(m);
      EXPECT_EQ(r.state[0], NodeState::kInfected) << to_string(m);
      EXPECT_EQ(r.state[4], NodeState::kProtected) << to_string(m);
      EXPECT_EQ(r.steps, 0u) << to_string(m);

      const DiffusionResult one =
          run(m, g, {{0}, {4}}, 1, {.max_hops = 1, .ic_edge_prob = 1.0});
      EXPECT_EQ(one.infected_count(), 2u) << to_string(m);
      EXPECT_EQ(one.steps, 1u) << to_string(m);
    }
  });
}

TEST(EdgeCases, EmptySeedSetsAreLegalNoOps) {
  const DiGraph g = path_graph(4);
  const DiffusionResult r = simulate(g, {{}, {}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.infected_count(), 0u);
  EXPECT_EQ(r.protected_count(), 0u);
  const DiffusionResult o = simulate(g, {{}, {}}, 1, kOpoao, kOpoaoCap);
  EXPECT_EQ(o.infected_count(), 0u);
}

TEST(EdgeCases, ProtectorOnlyDiffusionInfectsNothing) {
  Rng rng(2);
  const DiGraph g = erdos_renyi(60, 0.08, true, rng);
  const DiffusionResult r = simulate(g, {{}, {0, 1}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.infected_count(), 0u);
  EXPECT_GT(r.protected_count(), 2u);  // P floods unopposed
}

TEST(EdgeCases, SingleNodeGraph) {
  GraphBuilder b;
  b.reserve_nodes(1);
  const DiGraph g = b.finalize();
  const DiffusionResult r = simulate(g, {{0}, {}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.infected_count(), 1u);
  EXPECT_EQ(r.steps, 0u);
  const DiffusionResult o = simulate(g, {{0}, {}}, 1, kOpoao, kOpoaoCap);
  EXPECT_EQ(o.infected_count(), 1u);
}

TEST(EdgeCases, SinkSeedsCannotSpread) {
  // Seeds with zero out-degree: nothing ever activates.
  const DiGraph g = make_graph(4, {{0, 1}, {0, 2}, {0, 3}});
  const DiffusionResult r = simulate(g, {{1}, {2}}, 5, kOpoao, kOpoaoCap);
  EXPECT_EQ(r.infected_count(), 1u);
  EXPECT_EQ(r.protected_count(), 1u);
  EXPECT_EQ(r.state[3], NodeState::kInactive);
}

TEST(EdgeCases, CumulativeNeverDecreasesUnderHopCapSweep) {
  Rng rng(3);
  // Running with a lower hop cap must be a prefix of the higher-cap run.
  on_both_backends(erdos_renyi(100, 0.05, true, rng), [](const auto& g) {
    for (DiffusionModel m : kAllModels) {
      const DiffusionResult full =
          run(m, g, {{0, 1}, {2}}, 9, {.max_hops = 20, .ic_edge_prob = 0.3});
      for (std::uint32_t cap : {0u, 3u, 7u, 12u}) {
        const DiffusionResult part = run(
            m, g, {{0, 1}, {2}}, 9, {.max_hops = cap, .ic_edge_prob = 0.3});
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if (full.activation_step[v] <= cap) {
            EXPECT_EQ(part.state[v], full.state[v])
                << to_string(m) << " node " << v;
            EXPECT_EQ(part.activation_step[v], full.activation_step[v]);
          } else {
            EXPECT_EQ(part.state[v], NodeState::kInactive)
                << to_string(m) << " node " << v;
          }
        }
        EXPECT_EQ(part.cumulative_infected_at(cap),
                  full.cumulative_infected_at(cap))
            << to_string(m);
      }
    }
  });
}

TEST(EdgeCases, DoamSavedOnEmptyTargets) {
  const DiGraph g = path_graph(3);
  const auto saved = doam_saved(g, {{0}, {}}, {});
  EXPECT_TRUE(saved.empty());
}

TEST(EdgeCases, MonteCarloOnEdgelessGraph) {
  GraphBuilder b;
  b.reserve_nodes(5);
  const DiGraph g = b.finalize();
  MonteCarloConfig cfg;
  cfg.runs = 3;
  cfg.max_hops = 5;
  const HopSeries s = monte_carlo_series(g, {{0}, {1}}, cfg);
  EXPECT_DOUBLE_EQ(s.final_infected_mean, 1.0);
  EXPECT_DOUBLE_EQ(s.final_protected_mean, 1.0);
}

}  // namespace
}  // namespace lcrb
