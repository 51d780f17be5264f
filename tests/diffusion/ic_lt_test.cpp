#include <gtest/gtest.h>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// Competitive IC at arc probability p, LT and DOAM, all with no hop cap.
RealizationParams ic_at(double p) {
  return {.max_hops = 0xffffffff, .ic_edge_prob = p};
}
const RealizationParams kUncapped{.max_hops = 0xffffffff};
constexpr DiffusionModel kIc = DiffusionModel::kIc;
constexpr DiffusionModel kLt = DiffusionModel::kLt;
constexpr DiffusionModel kDoam = DiffusionModel::kDoam;

// ------------------------------ IC ------------------------------

TEST(CompetitiveIc, ProbabilityOneIsDoamLike) {
  const DiGraph g = path_graph(5);
  const DiffusionResult r = simulate(g, {{0}, {}}, 3, kIc, ic_at(1.0));
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(r.state[v], NodeState::kInfected);
    EXPECT_EQ(r.activation_step[v], v);
  }
}

TEST(CompetitiveIc, ProbabilityZeroOnlySeeds) {
  const DiGraph g = complete_graph(6);
  const DiffusionResult r = simulate(g, {{0}, {1}}, 3, kIc, ic_at(0.0));
  EXPECT_EQ(r.infected_count(), 1u);
  EXPECT_EQ(r.protected_count(), 1u);
}

TEST(CompetitiveIc, DeterministicInSeed) {
  Rng rng(2);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  const SeedSets seeds{{0, 1}, {2}};
  const DiffusionResult a = simulate(g, seeds, 5, kIc, ic_at(0.4));
  const DiffusionResult b = simulate(g, seeds, 5, kIc, ic_at(0.4));
  EXPECT_EQ(a.state, b.state);
}

TEST(CompetitiveIc, ProtectorWinsTie) {
  const DiGraph g = make_graph(3, {{0, 2}, {1, 2}});
  const DiffusionResult r = simulate(g, {{0}, {1}}, 7, kIc, ic_at(1.0));
  EXPECT_EQ(r.state[2], NodeState::kProtected);
}

TEST(CompetitiveIc, SpreadGrowsWithProbability) {
  Rng rng(4);
  const DiGraph g = erdos_renyi(300, 0.02, true, rng);
  double low = 0, high = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    low += static_cast<double>(
        simulate(g, {{0}, {}}, s, kIc, ic_at(0.05)).infected_count());
    high += static_cast<double>(
        simulate(g, {{0}, {}}, s, kIc, ic_at(0.5)).infected_count());
  }
  EXPECT_LT(low, high);
}

TEST(CompetitiveIc, InvalidProbabilityThrows) {
  const DiGraph g = path_graph(3);
  EXPECT_THROW(simulate(g, {{0}, {}}, 1, kIc, ic_at(1.5)), Error);
}

TEST(CompetitiveIc, LiveEdgeCouplingMonotoneInProtectors) {
  // Adding protectors never increases the infected set under the live-edge
  // coupling (same seed -> same live edges; P only blocks R).
  Rng rng(6);
  const DiGraph g = erdos_renyi(150, 0.04, true, rng);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto no_p = simulate(g, {{0, 1}, {}}, s, kIc, ic_at(0.35));
    const auto with_p = simulate(g, {{0, 1}, {5, 6, 7}}, s, kIc, ic_at(0.35));
    EXPECT_LE(with_p.infected_count(), no_p.infected_count()) << "seed " << s;
  }
}

TEST(CompetitiveIc, ProbabilityOneEqualsDoamEverywhere) {
  // With every arc live, competitive IC degenerates to DOAM's synchronized
  // broadcast: identical states and activation times on random graphs.
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const DiGraph g = erdos_renyi(100, 0.04, true, rng);
    const SeedSets seeds{{0, 1, 2}, {3, 4}};
    const DiffusionResult ic = simulate(g, seeds, trial, kIc, ic_at(1.0));
    const DiffusionResult doam = simulate(g, seeds, 0, kDoam, kUncapped);
    EXPECT_EQ(ic.state, doam.state) << "trial " << trial;
    EXPECT_EQ(ic.activation_step, doam.activation_step);
  }
}

// ------------------------------ LT ------------------------------

TEST(CompetitiveLt, SingleInNeighborAlwaysActivates) {
  // d_in = 1 => weight 1 >= any threshold in [0,1).
  const DiGraph g = path_graph(5);
  const DiffusionResult r = simulate(g, {{0}, {}}, 3, kLt, kUncapped);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.state[v], NodeState::kInfected);
}

TEST(CompetitiveLt, DeterministicInSeed) {
  Rng rng(8);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  const SeedSets seeds{{0, 1}, {2, 3}};
  const DiffusionResult a = simulate(g, seeds, 5, kLt, kUncapped);
  const DiffusionResult b = simulate(g, seeds, 5, kLt, kUncapped);
  EXPECT_EQ(a.state, b.state);
}

TEST(CompetitiveLt, MajorityColorWinsProtectorTies) {
  // Node 4 has in-neighbors {0,1,2,3}: 2 rumors + 2 protectors active at
  // step 0 -> weight tie 0.5 vs 0.5 -> protected.
  GraphBuilder b;
  for (NodeId u = 0; u < 4; ++u) b.add_edge(u, 4);
  const DiGraph g = b.finalize();
  const DiffusionResult r = simulate(g, {{0, 1}, {2, 3}}, 9, kLt, kUncapped);
  if (r.state[4] != NodeState::kInactive) {
    EXPECT_EQ(r.state[4], NodeState::kProtected);
  }
}

TEST(CompetitiveLt, RumorMajorityInfects) {
  GraphBuilder b;
  for (NodeId u = 0; u < 4; ++u) b.add_edge(u, 4);
  const DiGraph g = b.finalize();
  // 3 rumors vs 1 protector: if 4 activates it must be infected.
  const DiffusionResult r = simulate(g, {{0, 1, 2}, {3}}, 9, kLt, kUncapped);
  if (r.state[4] != NodeState::kInactive) {
    EXPECT_EQ(r.state[4], NodeState::kInfected);
  }
}

TEST(CompetitiveLt, ThresholdControlsActivation) {
  // Many seeds on a shared target: full in-neighborhood active => weight 1
  // => always activates regardless of threshold.
  GraphBuilder b;
  for (NodeId u = 0; u < 6; ++u) b.add_edge(u, 6);
  const DiGraph g = b.finalize();
  const DiffusionResult r =
      simulate(g, {{0, 1, 2, 3, 4, 5}, {}}, 123, kLt, kUncapped);
  EXPECT_EQ(r.state[6], NodeState::kInfected);
}

TEST(CompetitiveLt, ProgressiveAndConsistent) {
  Rng rng(10);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  const DiffusionResult r =
      simulate(g, {{0, 1, 2}, {3, 4}}, 77, kLt, kUncapped);
  std::size_t inf = 0, prot = 0;
  for (auto c : r.newly_infected) inf += c;
  for (auto c : r.newly_protected) prot += c;
  EXPECT_EQ(inf, r.infected_count());
  EXPECT_EQ(prot, r.protected_count());
}

}  // namespace
}  // namespace lcrb
