#include "diffusion/opoao.h"

#include <gtest/gtest.h>

#include "diffusion/montecarlo.h"
#include "diffusion/opoao_traits.h"
#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "support/opoao_reference.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// OPOAO at the model's customary hop cap; the run also stops exactly when
// no active node has an inactive out-neighbor.
const RealizationParams kOpoaoCap{.max_hops = 10000};
constexpr DiffusionModel kOpoao = DiffusionModel::kOpoao;

TEST(Opoao, DeterministicInSeed) {
  Rng rng(1);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  const SeedSets seeds{{0, 1}, {2, 3}};
  const DiffusionResult a = simulate(g, seeds, 42, kOpoao, kOpoaoCap);
  const DiffusionResult b = simulate(g, seeds, 42, kOpoao, kOpoaoCap);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.activation_step, b.activation_step);
  const DiffusionResult c = simulate(g, seeds, 43, kOpoao, kOpoaoCap);
  // A different sample seed should (almost surely) differ somewhere.
  EXPECT_NE(a.activation_step, c.activation_step);
}

TEST(Opoao, PathIsTraversedOneHopPerStep) {
  // Out-degree 1 everywhere: the walk is forced, one new node per step.
  const DiGraph g = path_graph(6);
  const DiffusionResult r = simulate(g, {{0}, {}}, 7, kOpoao, kOpoaoCap);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(r.state[v], NodeState::kInfected);
    EXPECT_EQ(r.activation_step[v], v);
  }
}

TEST(Opoao, TerminatesWhenNoInactiveNeighborsRemain) {
  // Star: hub infects one leaf per step; must stop after all leaves done,
  // well before any large step cap.
  const DiGraph g = star_graph(5);
  // A cap far out of reach: termination must come from the stuck check.
  const DiffusionResult r =
      simulate(g, {{0}, {}}, 3, kOpoao, {.max_hops = 1000000});
  EXPECT_EQ(r.infected_count(), 5u);
  EXPECT_LE(r.steps, 200u);  // coupon collector on 4 leaves
}

TEST(Opoao, ProtectorPriorityOnSharedTarget) {
  // 0 -> 2 and 1 -> 2, out-degree 1 each: both pick 2 at step 1; P wins.
  const DiGraph g = make_graph(3, {{0, 2}, {1, 2}});
  const DiffusionResult r = simulate(g, {{0}, {1}}, 11, kOpoao, kOpoaoCap);
  EXPECT_EQ(r.state[2], NodeState::kProtected);
}

TEST(Opoao, StatesAreProgressive) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(60, 0.08, true, rng);
  const SeedSets seeds{{0}, {1}};
  const DiffusionResult r = simulate(g, seeds, 9, kOpoao, kOpoaoCap);
  // Activation steps respect the newly_* series: counts match.
  std::size_t inf = 0, prot = 0;
  for (auto c : r.newly_infected) inf += c;
  for (auto c : r.newly_protected) prot += c;
  EXPECT_EQ(inf, r.infected_count());
  EXPECT_EQ(prot, r.protected_count());
  // Every activated node has a finite step; inactive nodes have none.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.state[v] == NodeState::kInactive) {
      EXPECT_EQ(r.activation_step[v], kUnreached);
    } else {
      EXPECT_NE(r.activation_step[v], kUnreached);
    }
  }
}

TEST(Opoao, ActivationRequiresInEdgeFromEarlierActiveNode) {
  Rng rng(6);
  const DiGraph g = erdos_renyi(80, 0.05, true, rng);
  const SeedSets seeds{{0, 1, 2}, {3, 4}};
  const DiffusionResult r = simulate(g, seeds, 13, kOpoao, kOpoaoCap);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.state[v] == NodeState::kInactive || r.activation_step[v] == 0) {
      continue;
    }
    // Some in-neighbor with the same color activated strictly earlier.
    bool found = false;
    for (NodeId u : g.in_neighbors(v)) {
      if (r.state[u] == r.state[v] &&
          r.activation_step[u] < r.activation_step[v]) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "node " << v << " has no plausible activator";
  }
}

TEST(Opoao, MaxStepsRespected) {
  const DiGraph g = path_graph(100);
  const DiffusionResult r = simulate(g, {{0}, {}}, 3, kOpoao, {.max_hops = 10});
  EXPECT_EQ(r.infected_count(), 11u);
  EXPECT_LE(r.steps, 10u);
}

TEST(Opoao, SpreadIsSlowerThanDoamBroadcast) {
  // OPOAO activates at most one node per active node per step; on a star the
  // hub needs ~n log n steps versus DOAM's single step.
  const DiGraph g = star_graph(30);
  const DiffusionResult r = simulate(g, {{0}, {}}, 17, kOpoao, kOpoaoCap);
  EXPECT_EQ(r.infected_count(), 30u);
  EXPECT_GT(r.steps, 20u);
}

TEST(Opoao, CommonRandomNumbersCoupleRuns) {
  // With per-node streams, adding a protector far from the rumor must not
  // change the rumor's own pick sequence: infected set without protector is
  // a superset of infected set with an isolated protector seed.
  GraphBuilder b;
  b.reserve_nodes(12);
  for (NodeId v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  // Nodes 10, 11 form an isolated protector island.
  b.add_edge(10, 11);
  const DiGraph g = b.finalize();

  const DiffusionResult without = simulate(g, {{0}, {}}, 23, kOpoao, kOpoaoCap);
  const DiffusionResult with = simulate(g, {{0}, {10}}, 23, kOpoao, kOpoaoCap);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(without.state[v], with.state[v]) << "node " << v;
    EXPECT_EQ(without.activation_step[v], with.activation_step[v]);
  }
  EXPECT_EQ(with.state[11], NodeState::kProtected);
}

TEST(Opoao, SeedsValidated) {
  const DiGraph g = path_graph(4);
  EXPECT_THROW(simulate(g, {{0}, {0}}, 1, kOpoao, kOpoaoCap), Error);
  EXPECT_THROW(simulate(g, {{9}, {}}, 1, kOpoao, kOpoaoCap), Error);
}

TEST(Opoao, RunMatchesReference) {
  // The runner retires saturated pickers (no inactive out-neighbor left) and
  // stops on incremental counts; the reference makes every pick and stops
  // on a brute-force scan. Both must produce the same cascade, step by step,
  // on either backend. Dense small graphs saturate within a few steps; the
  // self-loop graph gives every node an arc to itself, which must not count
  // as a target.
  Rng rng(17);
  const DiGraph dense = erdos_renyi(40, 0.2, true, rng);
  GraphBuilder b({.keep_self_loops = true});
  for (NodeId v = 0; v < 30; ++v) {
    b.add_edge(v, v);
    for (int k = 0; k < 3; ++k) {
      b.add_edge(v, static_cast<NodeId>(rng.next_below(30)));
    }
  }
  const DiGraph loops = b.finalize();
  std::size_t self_loops = 0;
  for (NodeId v = 0; v < loops.num_nodes(); ++v) {
    if (loops.has_edge(v, v)) ++self_loops;
  }
  ASSERT_EQ(self_loops, 30u);
  const DiGraph star = star_graph(12);

  std::size_t idle_picks = 0;
  for (const DiGraph* g : {&dense, &loops, &star}) {
    const EfGraph ef = EfGraph::from_csr(*g);
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const SeedSets seeds{{1, 2}, {0}};
      for (const RealizationParams params :
           {RealizationParams{.max_hops = 31}, kOpoaoCap}) {
        const reference::OpoaoRun ref =
            reference::opoao_reference(*g, seeds, seed, params.max_hops);
        EXPECT_TRUE(reference::same_outcome(
            run_cascade<OpoaoTraits>(*g, seeds, seed, params), ref.result))
            << "CSR, seed " << seed << ", cap " << params.max_hops;
        EXPECT_TRUE(reference::same_outcome(
            run_cascade<OpoaoTraits>(ef, seeds, seed, params), ref.result))
            << "EF, seed " << seed << ", cap " << params.max_hops;
        if (params.max_hops == kOpoaoCap.max_hops) {
          // Under the far cap the run stopped because nothing can claim.
          EXPECT_FALSE(reference::opoao_can_claim(*g, ref.result.state));
          for (const reference::OpoaoPick& p : ref.picks) {
            idle_picks += p.activated ? 0 : 1;
          }
        }
      }
    }
  }
  // The graphs really do saturate: most reference picks claim nothing.
  EXPECT_GT(idle_picks, 1000u);
}

// Property: when the simulation stops before the hop cap, it stopped for the
// right reason — no active node has an inactive out-neighbor left, so no
// future step could ever activate anything.
class OpoaoTerminationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpoaoTerminationTest, StopsExactlyWhenStuck) {
  Rng rng(GetParam());
  const DiGraph g = erdos_renyi(70, 0.05, true, rng);
  // A cap far out of reach forces the stuck check to be the stopper.
  const DiffusionResult r =
      simulate(g, {{0, 1}, {2}}, GetParam(), kOpoao, {.max_hops = 1000000});
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (r.state[u] == NodeState::kInactive) continue;
    for (NodeId v : g.out_neighbors(u)) {
      EXPECT_NE(r.state[v], NodeState::kInactive)
          << "active " << u << " still has inactive neighbor " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpoaoTerminationTest,
                         ::testing::Values(3, 4, 5, 6, 7));

// Property: repeat selection happens — an active node picks every step, so
// with a 2-target fan the second target is eventually reached.
class OpoaoEventualTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpoaoEventualTest, AllReachableNodesEventuallyInfected) {
  // Binary tree of depth 3 (out-degree 2): all 15 nodes reachable from root.
  GraphBuilder b;
  for (NodeId v = 0; v < 7; ++v) {
    b.add_edge(v, 2 * v + 1);
    b.add_edge(v, 2 * v + 2);
  }
  const DiGraph g = b.finalize();
  const DiffusionResult r =
      simulate(g, {{0}, {}}, GetParam(), kOpoao, kOpoaoCap);
  EXPECT_EQ(r.infected_count(), 15u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpoaoEventualTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

}  // namespace
}  // namespace lcrb
