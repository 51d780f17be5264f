// Exhaustive verification of the paper's structural lemmas on small
// instances.
//
// Lemma 4 / Theorem 1: for a fixed pair of random graphs (G_R, G_P) — which
// our common-random-numbers OPOAO realizes as a fixed sample seed — the set
// function |PB(S)| is monotone and submodular. We enumerate EVERY pair
// X ⊆ Y and every candidate v ∉ Y over a candidate pool and check both
// properties exactly, per sample.
//
// We also certify the greedy's (1 - 1/e) guarantee empirically: on instances
// small enough to brute-force, the greedy prefix of size k achieves at least
// (1 - 1/e) of the best σ among all size-k protector sets.
#include <gtest/gtest.h>

#include <cmath>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/sigma.h"
#include "util/rng.h"

namespace lcrb {
namespace {

/// Saved bridge ends for one fixed sample seed (the per-sample |PB(S)|,
/// counting "would be infected with S_P = {} but is not with S_P = S").
std::size_t pb_size(const DiGraph& g, const std::vector<NodeId>& rumors,
                    const std::vector<NodeId>& bridge_ends,
                    const std::vector<NodeId>& protectors,
                    std::uint64_t sample_seed) {
  const RealizationParams cfg{.max_hops = 64};
  const DiffusionResult base = simulate(g, {rumors, {}}, sample_seed,
                                        DiffusionModel::kOpoao, cfg);
  const DiffusionResult with = simulate(g, {rumors, protectors}, sample_seed,
                                        DiffusionModel::kOpoao, cfg);
  std::size_t saved = 0;
  for (NodeId b : bridge_ends) {
    if (base.state[b] == NodeState::kInfected &&
        with.state[b] != NodeState::kInfected) {
      ++saved;
    }
  }
  return saved;
}

struct LemmaFixture {
  DiGraph g;
  std::vector<NodeId> rumors{0};
  std::vector<NodeId> bridge_ends;
  std::vector<NodeId> candidates;

  // A small two-community graph: rumor node 0 feeds a 4-node web that leads
  // to 3 bridge ends.
  LemmaFixture() {
    GraphBuilder b;
    b.add_edge(0, 1);
    b.add_edge(0, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 3);
    b.add_edge(2, 4);
    b.add_edge(3, 5);
    b.add_edge(3, 6);
    b.add_edge(4, 6);
    b.add_edge(4, 7);
    g = b.finalize();
    bridge_ends = {5, 6, 7};
    candidates = {1, 2, 3, 4};
  }
};

class Lemma4Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma4Test, PbIsMonotoneAndSubmodularPerSample) {
  const LemmaFixture f;
  const std::uint64_t sample = GetParam();
  const std::size_t m = f.candidates.size();

  // Precompute |PB(S)| for all 2^m candidate subsets.
  std::vector<std::size_t> pb(1u << m);
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    std::vector<NodeId> prot;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask >> i & 1) prot.push_back(f.candidates[i]);
    }
    pb[mask] = pb_size(f.g, f.rumors, f.bridge_ends, prot, sample);
  }

  for (std::uint32_t x = 0; x < (1u << m); ++x) {
    for (std::uint32_t y = x;; y = (y + 1) | x) {  // all supersets of x
      // Monotonicity: X subset of Y implies |PB(X)| <= |PB(Y)|.
      EXPECT_LE(pb[x], pb[y]) << "X=" << x << " Y=" << y;
      // Submodularity: marginal of v into X >= marginal into Y, v not in Y.
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t bit = 1u << i;
        if (y & bit) continue;
        const auto gain_x =
            static_cast<long>(pb[x | bit]) - static_cast<long>(pb[x]);
        const auto gain_y =
            static_cast<long>(pb[y | bit]) - static_cast<long>(pb[y]);
        EXPECT_GE(gain_x, gain_y)
            << "X=" << x << " Y=" << y << " v=" << f.candidates[i];
      }
      if (y == (1u << m) - 1 || y == (((1u << m) - 1) | x)) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Samples, Lemma4Test,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(GreedyGuarantee, WithinOneMinusOneOverEOfBruteForce) {
  const LemmaFixture f;
  SigmaConfig cfg;
  cfg.samples = 200;
  cfg.seed = 77;
  cfg.max_hops = 64;
  const SigmaEstimator est(f.g, f.rumors, f.bridge_ends, cfg);

  const std::size_t m = f.candidates.size();
  for (std::size_t k = 1; k <= m; ++k) {
    // Brute force: best sigma over all size-k subsets.
    double best = 0.0;
    for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
      if (static_cast<std::size_t>(__builtin_popcount(mask)) != k) continue;
      std::vector<NodeId> prot;
      for (std::size_t i = 0; i < m; ++i) {
        if (mask >> i & 1) prot.push_back(f.candidates[i]);
      }
      best = std::max(best, est.sigma(prot));
    }

    // Greedy prefix of size k over the same candidates.
    std::vector<NodeId> greedy;
    double greedy_sigma = 0.0;
    for (std::size_t round = 0; round < k; ++round) {
      NodeId pick = kInvalidNode;
      double pick_sigma = -1.0;
      for (NodeId c : f.candidates) {
        if (std::find(greedy.begin(), greedy.end(), c) != greedy.end()) {
          continue;
        }
        std::vector<NodeId> trial = greedy;
        trial.push_back(c);
        const double s = est.sigma(trial);
        if (s > pick_sigma) {
          pick_sigma = s;
          pick = c;
        }
      }
      greedy.push_back(pick);
      greedy_sigma = pick_sigma;
    }

    // The guarantee holds for the true sigma; with 200 common samples the
    // estimate is tight enough for a small safety margin.
    EXPECT_GE(greedy_sigma, (1.0 - 1.0 / std::exp(1.0)) * best - 0.15)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace lcrb
