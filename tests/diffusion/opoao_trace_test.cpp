// Tests of the OPOAO pick log — the executable form of the paper's
// timestamp-assignment construction (§V-A, Fig. 1). The log comes from the
// test reference (support/opoao_reference.h); every case also checks that
// the library's run_cascade<OpoaoTraits> reaches the reference's outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "diffusion/montecarlo.h"
#include "diffusion/opoao_traits.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "support/opoao_reference.h"
#include "util/rng.h"

namespace lcrb {
namespace {

using reference::OpoaoPick;
using reference::OpoaoRun;

// OPOAO's customary hop cap.
constexpr RealizationParams kOpoao{.max_hops = 10000};

/// The reference run, checked against the library's run of the same draw.
OpoaoRun logged_run(const DiGraph& g, const SeedSets& seeds,
                    std::uint64_t seed, const RealizationParams& params) {
  OpoaoRun run =
      reference::opoao_reference(g, seeds, seed, params.max_hops);
  EXPECT_TRUE(reference::same_outcome(
      run_cascade<OpoaoTraits>(g, seeds, seed, params), run.result))
      << "seed " << seed;
  return run;
}

/// Smallest step at which `color` picked edge (u, v) — the simplified
/// timestamp of Fig. 1(b); kUnreached if that cascade never picked it.
std::uint32_t first_pick_step(const std::vector<OpoaoPick>& picks, NodeId u,
                              NodeId v, NodeState color) {
  std::uint32_t best = kUnreached;
  for (const OpoaoPick& p : picks) {
    if (p.from == u && p.to == v && p.cascade == color) {
      best = std::min(best, p.step);
    }
  }
  return best;
}

TEST(OpoaoTrace, EveryActiveNodePicksOncePerStep) {
  Rng grng(1);
  const DiGraph g = erdos_renyi(60, 0.08, true, grng);
  const OpoaoRun run = logged_run(g, {{0, 1}, {2}}, 5, {.max_hops = 15});
  const DiffusionResult& r = run.result;

  // Group picks by (step, from): exactly one pick per active node per step.
  std::map<std::pair<std::uint32_t, NodeId>, int> count;
  for (const auto& p : run.picks) ++count[{p.step, p.from}];
  for (const auto& [key, c] : count) {
    EXPECT_EQ(c, 1) << "node " << key.second << " at step " << key.first;
  }

  // A node with out-edges picks at every step from activation+1 to the end.
  for (const auto& p : run.picks) {
    EXPECT_LT(r.activation_step[p.from], p.step);
  }
}

TEST(OpoaoTrace, PicksAreAlwaysOutNeighbors) {
  Rng grng(2);
  const DiGraph g = erdos_renyi(50, 0.1, true, grng);
  const OpoaoRun run = logged_run(g, {{0}, {1}}, 7, {.max_hops = 10});
  for (const auto& p : run.picks) {
    const auto nbrs = g.out_neighbors(p.from);
    EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), p.to));
  }
}

TEST(OpoaoTrace, ActivatedPicksMatchActivationSteps) {
  Rng grng(3);
  const DiGraph g = erdos_renyi(80, 0.06, true, grng);
  const OpoaoRun run = logged_run(g, {{0, 1}, {2, 3}}, 9, {.max_hops = 20});
  const DiffusionResult& r = run.result;

  std::map<NodeId, const OpoaoPick*> first_activation;
  for (const auto& p : run.picks) {
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
  const OpoaoRun run = logged_run(g, {{0, 1}, {2, 3}}, 11, {.max_hops = 10});
  std::uint32_t current_step = 0;
  bool seen_rumor_this_step = false;
  for (const auto& p : run.picks) {
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
  const OpoaoRun run = logged_run(g, {{0, 3}, {}}, 13, kOpoao);
  const auto stamp = [&](NodeId u, NodeId v, NodeState color) {
    return first_pick_step(run.picks, u, v, color);
  };

  // Timestamp 1_x on (x,u): x picks u at step 1 and keeps re-picking it.
  EXPECT_EQ(stamp(0, 1, NodeState::kInfected), 1u);
  // u activates at 1, picks w at step 2 — the paper's "2_x" simplified stamp.
  EXPECT_EQ(stamp(1, 2, NodeState::kInfected), 2u);
  EXPECT_EQ(stamp(3, 4, NodeState::kInfected), 1u);
  EXPECT_EQ(stamp(4, 5, NodeState::kInfected), 2u);
  // Repeat selection really happens: x picks (x,u) again after step 1.
  int x_picks = 0;
  for (const auto& p : run.picks) x_picks += (p.from == 0);
  EXPECT_GT(x_picks, 1);
  EXPECT_EQ(run.result.infected_count(), 6u);
  // Never-picked edge/color combos report kUnreached.
  EXPECT_EQ(stamp(0, 1, NodeState::kProtected), kUnreached);
}

TEST(OpoaoTrace, ReferenceMatchesSimulate) {
  // simulate() is the runtime-model entry over the same kernel; on a path
  // the reference logs picks and reaches its exact outcome.
  const DiGraph g = path_graph(5);
  const DiffusionResult a =
      simulate(g, {{0}, {}}, 3, DiffusionModel::kOpoao, kOpoao);
  const OpoaoRun run = reference::opoao_reference(g, {{0}, {}}, 3,
                                                  kOpoao.max_hops);
  EXPECT_TRUE(reference::same_outcome(a, run.result));
  EXPECT_FALSE(run.picks.empty());
}

}  // namespace
}  // namespace lcrb
