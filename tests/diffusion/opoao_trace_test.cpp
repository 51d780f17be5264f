// Tests of the OPOAO pick trace — the executable form of the paper's
// timestamp-assignment construction (§V-A, Fig. 1).
#include <gtest/gtest.h>

#include <map>

#include "diffusion/montecarlo.h"
#include "diffusion/opoao_traits.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// OPOAO's customary hop cap.
constexpr RealizationParams kOpoao{.max_hops = 10000};

TEST(OpoaoTrace, EveryActiveNodePicksOncePerStep) {
  Rng grng(1);
  const DiGraph g = erdos_renyi(60, 0.08, true, grng);
  OpoaoTrace trace;
  const DiffusionResult r = run_cascade<OpoaoTraits>(
      g, {{0, 1}, {2}}, 5, {.max_hops = 15}, &trace);

  // Group picks by (step, from): exactly one pick per active node per step.
  std::map<std::pair<std::uint32_t, NodeId>, int> count;
  for (const auto& p : trace.picks) ++count[{p.step, p.from}];
  for (const auto& [key, c] : count) {
    EXPECT_EQ(c, 1) << "node " << key.second << " at step " << key.first;
  }

  // A node with out-edges picks at every step from activation+1 to the end.
  for (const auto& p : trace.picks) {
    EXPECT_LT(r.activation_step[p.from], p.step);
  }
}

TEST(OpoaoTrace, PicksAreAlwaysOutNeighbors) {
  Rng grng(2);
  const DiGraph g = erdos_renyi(50, 0.1, true, grng);
  OpoaoTrace trace;
  run_cascade<OpoaoTraits>(g, {{0}, {1}}, 7, {.max_hops = 10}, &trace);
  for (const auto& p : trace.picks) {
    const auto nbrs = g.out_neighbors(p.from);
    EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), p.to));
  }
}

TEST(OpoaoTrace, ActivatedPicksMatchActivationSteps) {
  Rng grng(3);
  const DiGraph g = erdos_renyi(80, 0.06, true, grng);
  OpoaoTrace trace;
  const DiffusionResult r = run_cascade<OpoaoTraits>(
      g, {{0, 1}, {2, 3}}, 9, {.max_hops = 20}, &trace);

  std::map<NodeId, const OpoaoPick*> first_activation;
  for (const auto& p : trace.picks) {
    if (p.activated) {
      // Only one pick may ever activate a given node.
      EXPECT_EQ(first_activation.count(p.to), 0u);
      first_activation[p.to] = &p;
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.state[v] == NodeState::kInactive || r.activation_step[v] == 0) {
      continue;  // seeds and untouched nodes have no activating pick
    }
    ASSERT_EQ(first_activation.count(v), 1u) << "node " << v;
    const OpoaoPick* p = first_activation[v];
    EXPECT_EQ(p->step, r.activation_step[v]);
    EXPECT_EQ(p->cascade, r.state[v]);
  }
}

TEST(OpoaoTrace, ProtectorPicksPrecedeRumorPicksWithinStep) {
  Rng grng(4);
  const DiGraph g = erdos_renyi(50, 0.1, true, grng);
  OpoaoTrace trace;
  run_cascade<OpoaoTraits>(g, {{0, 1}, {2, 3}}, 11, {.max_hops = 10},
                           &trace);
  std::uint32_t current_step = 0;
  bool seen_rumor_this_step = false;
  for (const auto& p : trace.picks) {
    if (p.step != current_step) {
      current_step = p.step;
      seen_rumor_this_step = false;
    }
    if (p.cascade == NodeState::kInfected) seen_rumor_this_step = true;
    if (p.cascade == NodeState::kProtected) {
      EXPECT_FALSE(seen_rumor_this_step)
          << "protector pick after rumor pick at step " << p.step;
    }
  }
}

TEST(OpoaoTrace, PaperFigureOneChains) {
  // The Fig. 1 structure with forced picks: x -> u -> w and y -> v -> z
  // (out-degree 1 everywhere makes every pick deterministic).
  // Nodes: x=0, u=1, w=2, y=3, v=4, z=5.
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  OpoaoTrace trace;
  const DiffusionResult r =
      run_cascade<OpoaoTraits>(g, {{0, 3}, {}}, 13, kOpoao, &trace);

  // Timestamp 1_x on (x,u): x picks u at step 1 and keeps re-picking it.
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kInfected), 1u);
  // u activates at 1, picks w at step 2 — the paper's "2_x" simplified stamp.
  EXPECT_EQ(trace.first_pick_step(1, 2, NodeState::kInfected), 2u);
  EXPECT_EQ(trace.first_pick_step(3, 4, NodeState::kInfected), 1u);
  EXPECT_EQ(trace.first_pick_step(4, 5, NodeState::kInfected), 2u);
  // Repeat selection really happens: x picks (x,u) again after step 1.
  int x_picks = 0;
  for (const auto& p : trace.picks) x_picks += (p.from == 0);
  EXPECT_GT(x_picks, 1);
  EXPECT_EQ(r.infected_count(), 6u);
  // Never-picked edge/color combos report kUnreached.
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kProtected), kUnreached);
}

TEST(OpoaoTrace, FirstPickStepMatchesLinearScan) {
  // The indexed lookup must agree with a brute-force scan over the pick log
  // for every (from, to, color) triple that occurs, plus misses.
  Rng grng(6);
  const DiGraph g = erdos_renyi(70, 0.07, true, grng);
  OpoaoTrace trace;
  run_cascade<OpoaoTraits>(g, {{0, 1}, {2, 3}}, 21, {.max_hops = 18},
                           &trace);
  ASSERT_FALSE(trace.picks.empty());

  auto brute = [&](NodeId u, NodeId v, NodeState color) {
    std::uint32_t best = kUnreached;
    for (const auto& p : trace.picks) {
      if (p.from == u && p.to == v && p.cascade == color) {
        best = std::min(best, p.step);
      }
    }
    return best;
  };
  for (const auto& p : trace.picks) {
    for (NodeState c : {NodeState::kProtected, NodeState::kInfected}) {
      EXPECT_EQ(trace.first_pick_step(p.from, p.to, c), brute(p.from, p.to, c));
    }
  }
  EXPECT_EQ(trace.first_pick_step(68, 69, NodeState::kInfected),
            brute(68, 69, NodeState::kInfected));
  EXPECT_EQ(trace.first_pick_step(0, 0, NodeState::kInactive), kUnreached);
}

TEST(OpoaoTrace, FirstPickIndexRebuildsAfterAppend) {
  // Querying builds the index; appending more picks (e.g. a second traced
  // simulation into the same log) must invalidate and rebuild it.
  const DiGraph g = make_graph(3, {{0, 1}, {1, 2}});
  OpoaoTrace trace;
  run_cascade<OpoaoTraits>(g, {{0}, {}}, 3, kOpoao, &trace);
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kInfected), 1u);
  EXPECT_EQ(trace.first_pick_step(2, 0, NodeState::kProtected), kUnreached);

  trace.picks.push_back({1, 2, 0, NodeState::kProtected, false});
  EXPECT_EQ(trace.first_pick_step(2, 0, NodeState::kProtected), 1u);
}

TEST(OpoaoTrace, FirstPickIndexExtendsIncrementallyAcrossAppends) {
  // Regression for the append-after-query loop: the index is extended by
  // min-merging only the new suffix, and that merge must (a) register new
  // edges, (b) tighten an already-indexed edge when a smaller step arrives,
  // and (c) leave untouched entries alone — across several rounds.
  const DiGraph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  OpoaoTrace trace;
  trace.picks.push_back({5, 0, 1, NodeState::kInfected, true});
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kInfected), 5u);

  // New edge and a tighter step for the existing one, in one append round.
  trace.picks.push_back({7, 1, 2, NodeState::kProtected, true});
  trace.picks.push_back({2, 0, 1, NodeState::kInfected, false});
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kInfected), 2u);
  EXPECT_EQ(trace.first_pick_step(1, 2, NodeState::kProtected), 7u);

  // Same edge, other cascade color: slots stay independent.
  trace.picks.push_back({4, 1, 2, NodeState::kInfected, false});
  EXPECT_EQ(trace.first_pick_step(1, 2, NodeState::kInfected), 4u);
  EXPECT_EQ(trace.first_pick_step(1, 2, NodeState::kProtected), 7u);
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kInfected), 2u);

  // A shrink is not an append: the lazy index must drop and rebuild.
  trace.picks.resize(1);
  EXPECT_EQ(trace.first_pick_step(0, 1, NodeState::kInfected), 5u);
  EXPECT_EQ(trace.first_pick_step(1, 2, NodeState::kProtected), kUnreached);
}

TEST(OpoaoTrace, NullTraceIsDefaultAndCheap) {
  const DiGraph g = path_graph(5);
  const DiffusionResult a =
      simulate(g, {{0}, {}}, 3, DiffusionModel::kOpoao, {.max_hops = 10000});
  OpoaoTrace trace;
  const DiffusionResult b =
      run_cascade<OpoaoTraits>(g, {{0}, {}}, 3, kOpoao, &trace);
  EXPECT_EQ(a.state, b.state);  // tracing must not perturb the simulation
  EXPECT_FALSE(trace.picks.empty());
}

}  // namespace
}  // namespace lcrb
