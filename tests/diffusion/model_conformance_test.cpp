// Conformance suite for the model-traits contract (diffusion/model_traits.h),
// parameterized over every DiffusionModel. Each model must expose coherent
// flags, share the kernel's seed validation and step accounting, obey the
// P-beats-R tie rule, and — where the capability flags say so — keep the
// realization cache and the reverse (RR-set) sampler in exact agreement with
// the forward kernel under one coupled realization seed. A new model added
// per the docs/architecture.md recipe passes this suite with a one-line
// instantiation change.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "diffusion/model_traits.h"
#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/ris.h"
#include "lcrb/sigma.h"
#include "support/sigma_oracle.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcrb {
namespace {

class ModelConformanceTest : public ::testing::TestWithParam<DiffusionModel> {
 protected:
  DiffusionModel model() const { return GetParam(); }

  static RealizationParams params() {
    return {.max_hops = 20, .ic_edge_prob = 0.3};
  }
};

TEST_P(ModelConformanceTest, TraitsIdentityMatchesEnum) {
  const std::string name = dispatch_model(
      model(), [](auto t) { return std::string(decltype(t)::kName); });
  EXPECT_EQ(name, to_string(model()));
  const DiffusionModel roundtrip =
      dispatch_model(model(), [](auto t) { return decltype(t)::kModel; });
  EXPECT_EQ(roundtrip, model());
}

TEST_P(ModelConformanceTest, RejectsInvalidSeedSets) {
  Rng rng(1);
  const DiGraph g = erdos_renyi(40, 0.1, true, rng);
  const RealizationParams cfg = params();
  EXPECT_THROW(simulate(g, {{40}, {}}, 1, model(),
                        cfg), Error);    // out of range
  EXPECT_THROW(simulate(g, {{3, 3}, {}}, 1, model(),
                        cfg), Error);  // duplicate rumor
  EXPECT_THROW(simulate(g, {{3}, {5, 5}}, 1, model(),
                        cfg), Error);  // duplicate prot.
  EXPECT_THROW(simulate(g, {{3}, {3}}, 1, model(), cfg), Error);    // overlap
}

TEST_P(ModelConformanceTest, ProtectorWinsTheContestedNode) {
  // r -> c <- p plus an isolated dummy d. Every model keys its randomness on
  // (realization seed, node/arc) only, so the protector-side randomness is
  // identical whether or not the rumor participates. Whenever the lone
  // protector reaches c in the rumor-free run, P-wins-ties requires c to end
  // protected when the rumor contests it at equal distance.
  const DiGraph g = make_graph(4, {{0, 2}, {1, 2}});
  const NodeId r = 0, p = 1, c = 2, d = 3;
  const RealizationParams cfg = params();
  std::size_t contested_ties = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const DiffusionResult alone = simulate(g, {{d}, {p}}, seed, model(), cfg);
    if (alone.state[c] != NodeState::kProtected) continue;
    const DiffusionResult both = simulate(g, {{r}, {p}}, seed, model(), cfg);
    EXPECT_EQ(both.state[c], NodeState::kProtected) << "seed " << seed;
    ++contested_ties;
  }
  // Every model reaches c from p in at least some realizations (always, for
  // the deterministic and single-pick models), so the check is never vacuous.
  EXPECT_GT(contested_ties, 0u);
}

TEST_P(ModelConformanceTest, StepAccountingIsConsistent) {
  Rng rng(7);
  const DiGraph g = erdos_renyi(120, 0.06, true, rng);
  const SeedSets seeds{{0, 1, 2}, {3, 4}};
  const RealizationParams cfg = params();
  for (std::uint64_t s = 0; s < 8; ++s) {
    const DiffusionResult res = simulate(g, seeds, s, model(), cfg);
    EXPECT_LE(res.steps, cfg.max_hops);
    std::uint32_t max_step = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (res.state[v] == NodeState::kInactive) {
        EXPECT_EQ(res.activation_step[v], kUnreached);
        continue;
      }
      max_step = std::max(max_step, res.activation_step[v]);
    }
    EXPECT_EQ(max_step, res.steps) << "steps must be the activation watermark";
    EXPECT_NO_THROW(res.validate(g, seeds));
  }
}

TEST_P(ModelConformanceTest, ReverseSetMembersSaveTheRootForward) {
  const bool supports_reverse = dispatch_model(
      model(), [](auto t) { return decltype(t)::kSupportsReverse; });
  Rng rng(11);
  const DiGraph g = erdos_renyi(80, 0.07, true, rng);
  const std::vector<NodeId> rumors{0, 1};
  std::vector<NodeId> bridge_ends;
  for (NodeId v = 40; v < 60; ++v) bridge_ends.push_back(v);
  RisConfig cfg;
  cfg.model = model();
  cfg.max_hops = 20;
  cfg.ic_edge_prob = 0.3;
  if (!supports_reverse) {
    EXPECT_THROW(RrSampler(g, rumors, bridge_ends, cfg), Error);
    return;
  }
  RrSampler sampler(g, rumors, bridge_ends, cfg);
  // RR membership is sound for every reverse-capable model (exact for
  // DOAM/IC/WC, a lower bound for OPOAO): seeding any member as the lone
  // protector must save the root in the coupled forward realization.
  const RealizationParams mc = params();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const RrSampler::Draw d = sampler.draw(0, i);
    const std::vector<NodeId> set =
        sampler.rr_set(d.root_idx, d.realization_seed);
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    const NodeId root = bridge_ends[d.root_idx];
    for (NodeId v : set) {
      const DiffusionResult res =
          simulate(g, {rumors, {v}}, d.realization_seed, model(), mc);
      EXPECT_NE(res.state[root], NodeState::kInfected)
          << "RR member " << v << " fails to save root " << root;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(ModelConformanceTest, CacheReplayMatchesForwardSimulation) {
  Rng rng(13);
  const DiGraph g = erdos_renyi(80, 0.07, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2};
  std::vector<NodeId> bridge_ends;
  for (NodeId v = 30; v < 55; ++v) bridge_ends.push_back(v);
  SigmaConfig cfg;
  cfg.model = model();
  cfg.samples = 6;
  cfg.max_hops = 20;
  cfg.ic_edge_prob = 0.3;
  const std::vector<std::uint64_t> sample_seeds = statcheck::sample_seeds(cfg);
  // Every model materializes its samples (DOAM: one realization that every
  // sample replays).
  const SigmaEstimator est(g, rumors, bridge_ends, cfg);
  EXPECT_GT(est.realization_bytes(), 0u);
  const RealizationParams mc = params();
  const std::vector<std::vector<NodeId>> protector_sets = {
      {}, {10}, {10, 11, 12}, {33, 47}};
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    const DiffusionResult base =
        simulate(g, {rumors, {}}, sample_seeds[i], model(), mc);
    for (const std::vector<NodeId>& prot : protector_sets) {
      const SigmaEstimator::Outcome o = est.evaluate(i, prot);
      const DiffusionResult with =
          simulate(g, {rumors, prot}, sample_seeds[i], model(), mc);
      std::uint32_t saved = 0, uninfected = 0;
      for (NodeId b : bridge_ends) {
        const bool base_inf = base.state[b] == NodeState::kInfected;
        const bool now_inf = with.state[b] == NodeState::kInfected;
        if (!now_inf) {
          ++uninfected;
          if (base_inf) ++saved;
        }
      }
      EXPECT_EQ(o.saved, saved) << "sample " << i;
      EXPECT_EQ(o.uninfected, uninfected) << "sample " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelConformanceTest,
    ::testing::Values(DiffusionModel::kOpoao, DiffusionModel::kDoam,
                      DiffusionModel::kIc, DiffusionModel::kLt,
                      DiffusionModel::kWc),
    [](const auto& param_info) { return to_string(param_info.param); });

// ---------------------------------------------------------------------------
// K-way conformance: the same kernel invariants, parameterized over
// (model, K) with K in {2, 3, 5}. K cascades are assembled with
// make_seed_sets from round-robin splits of a rumor set and a protector set:
// K=2 is the paper's problem (1 rumor + 1 protector campaign), K=3 adds a
// second rumor campaign, K=5 runs 3 rumor vs 2 protector campaigns.
// ---------------------------------------------------------------------------

class KWayConformanceTest
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, int>> {
 protected:
  DiffusionModel model() const { return std::get<0>(GetParam()); }
  std::size_t num_cascades() const {
    return static_cast<std::size_t>(std::get<1>(GetParam()));
  }
  std::size_t rumor_campaigns() const { return (num_cascades() + 1) / 2; }
  std::size_t protector_campaigns() const {
    return num_cascades() - rumor_campaigns();
  }

  static RealizationParams params() {
    return {.max_hops = 20, .ic_edge_prob = 0.3};
  }

  /// Deal `ids` round-robin into `n` groups (groups may end up empty when
  /// ids.size() < n — make_seed_sets and the kernel accept empty cascades).
  static std::vector<std::vector<NodeId>> split(const std::vector<NodeId>& ids,
                                                std::size_t n) {
    std::vector<std::vector<NodeId>> groups(n);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      groups[i % n].push_back(ids[i]);
    }
    return groups;
  }

  SeedSets seeds_for(const std::vector<NodeId>& rumors,
                     const std::vector<NodeId>& protectors,
                     CascadePriority priority) const {
    return make_seed_sets(split(rumors, rumor_campaigns()),
                          split(protectors, protector_campaigns()), priority);
  }
};

TEST_P(KWayConformanceTest, PairwiseColorExclusivity) {
  // Every active node is won by exactly one cascade, the winner's role
  // matches the node's color, and inactive nodes carry kNoCascade — under
  // all three priority policies.
  Rng rng(17);
  const DiGraph g = erdos_renyi(100, 0.06, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2, 3, 4, 5};
  const std::vector<NodeId> protectors{10, 11, 12, 13};
  const RealizationParams cfg = params();
  for (const CascadePriority priority :
       {CascadePriority::kFixedOrder, CascadePriority::kLowestId,
        CascadePriority::kRoundRobin}) {
    const SeedSets seeds = seeds_for(rumors, protectors, priority);
    ASSERT_EQ(seeds.num_cascades(), num_cascades());
    for (std::uint64_t s = 0; s < 6; ++s) {
      const DiffusionResult res = simulate(g, seeds, s, model(), cfg);
      ASSERT_EQ(res.cascade.size(), g.num_nodes());
      std::size_t active = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (res.state[v] == NodeState::kInactive) {
          EXPECT_EQ(res.cascade[v], kNoCascade);
          continue;
        }
        ++active;
        ASSERT_LT(res.cascade[v], seeds.num_cascades());
        const CascadeRole role = seeds.role_of(res.cascade[v]);
        EXPECT_EQ(res.state[v], role == CascadeRole::kRumor
                                    ? NodeState::kInfected
                                    : NodeState::kProtected);
      }
      // Exclusivity: the per-cascade counts partition the active nodes.
      std::size_t by_cascade = 0;
      for (std::size_t k = 0; k < seeds.num_cascades(); ++k) {
        by_cascade += res.cascade_count(static_cast<std::uint8_t>(k));
      }
      EXPECT_EQ(by_cascade, active);
      EXPECT_NO_THROW(res.validate(g, seeds));
    }
  }
}

TEST_P(KWayConformanceTest, PerCascadeMonotoneGrowth) {
  // Each cascade's cumulative curve is non-decreasing, flattens to its final
  // count, and the per-cascade series sum to the role-aggregated newly_*
  // series at every step.
  Rng rng(19);
  const DiGraph g = erdos_renyi(120, 0.05, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2, 3, 4, 5, 6};
  const std::vector<NodeId> protectors{20, 21, 22, 23, 24};
  const SeedSets seeds = seeds_for(rumors, protectors,
                                   CascadePriority::kFixedOrder);
  const RealizationParams cfg = params();
  for (std::uint64_t s = 0; s < 6; ++s) {
    const DiffusionResult res = simulate(g, seeds, s, model(), cfg);
    ASSERT_EQ(res.newly_by_cascade.size(), seeds.num_cascades());
    for (std::size_t k = 0; k < seeds.num_cascades(); ++k) {
      const auto kk = static_cast<std::uint8_t>(k);
      std::size_t prev = 0;
      for (std::uint32_t h = 0; h <= res.steps; ++h) {
        const std::size_t cur = res.cumulative_cascade_at(kk, h);
        EXPECT_GE(cur, prev) << "cascade " << k << " shrank at hop " << h;
        prev = cur;
      }
      EXPECT_EQ(prev, res.cascade_count(kk));
      EXPECT_EQ(res.cumulative_cascade_at(kk, res.steps + 5),
                res.cascade_count(kk));
    }
    for (std::size_t t = 0; t < res.newly_infected.size(); ++t) {
      std::uint32_t infected = 0, prot = 0;
      for (std::size_t k = 0; k < seeds.num_cascades(); ++k) {
        (seeds.role_of(k) == CascadeRole::kRumor ? infected : prot) +=
            res.newly_by_cascade[k][t];
      }
      EXPECT_EQ(infected, res.newly_infected[t]);
      EXPECT_EQ(prot, res.newly_protected[t]);
    }
  }
}

TEST_P(KWayConformanceTest, RoleSeparableCollapseMatchesTwoCascadeRun) {
  // Under a role-separable priority the K-way run and the two-cascade run on
  // the role unions color every node identically (only the attribution
  // differs). This is the invariant that lets the realization cache serve
  // K-way queries, so it doubles as the K-way replay==forward check.
  Rng rng(23);
  const DiGraph g = erdos_renyi(100, 0.06, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2, 3, 4, 5};
  const std::vector<NodeId> protectors{10, 11, 12, 13};
  const SeedSets kway = seeds_for(rumors, protectors,
                                  CascadePriority::kFixedOrder);
  ASSERT_TRUE(kway.role_separable());
  SeedSets two;
  two.rumors = kway.rumor_role_union();
  two.protectors = kway.protector_role_union();
  const RealizationParams cfg = params();
  for (std::uint64_t s = 0; s < 10; ++s) {
    const DiffusionResult a = simulate(g, kway, s, model(), cfg);
    const DiffusionResult b = simulate(g, two, s, model(), cfg);
    EXPECT_EQ(a.state, b.state) << "seed " << s;
    EXPECT_EQ(a.activation_step, b.activation_step) << "seed " << s;
    EXPECT_EQ(a.newly_infected, b.newly_infected) << "seed " << s;
    EXPECT_EQ(a.newly_protected, b.newly_protected) << "seed " << s;
  }
}

TEST_P(KWayConformanceTest, CacheReplayMatchesKWayForward) {
  // The realization-cache replay over the role unions must reproduce the K-way
  // forward outcome bridge end by bridge end.
  Rng rng(29);
  const DiGraph g = erdos_renyi(80, 0.07, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2, 3};
  std::vector<NodeId> bridge_ends;
  for (NodeId v = 30; v < 55; ++v) bridge_ends.push_back(v);
  const std::vector<NodeId> protectors{10, 11, 12};
  const SeedSets kway = seeds_for(rumors, protectors,
                                  CascadePriority::kFixedOrder);

  SigmaConfig cfg;
  cfg.model = model();
  cfg.samples = 5;
  cfg.max_hops = 20;
  cfg.ic_edge_prob = 0.3;
  const std::vector<std::uint64_t> sample_seeds = statcheck::sample_seeds(cfg);
  const SigmaEstimator est(g, kway.rumor_role_union(), bridge_ends, cfg);
  const RealizationParams mc = params();
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    SeedSets base_seeds;
    base_seeds.rumors = kway.rumor_role_union();
    const DiffusionResult base =
        simulate(g, base_seeds, sample_seeds[i], model(), mc);
    const DiffusionResult with =
        simulate(g, kway, sample_seeds[i], model(), mc);
    const SigmaEstimator::Outcome o =
        est.evaluate(i, kway.protector_role_union());
    std::uint32_t saved = 0, uninfected = 0;
    for (NodeId b : bridge_ends) {
      if (with.state[b] != NodeState::kInfected) {
        ++uninfected;
        if (base.state[b] == NodeState::kInfected) ++saved;
      }
    }
    EXPECT_EQ(o.saved, saved) << "sample " << i;
    EXPECT_EQ(o.uninfected, uninfected) << "sample " << i;
  }
}

TEST_P(KWayConformanceTest, ReverseSetMembersSaveTheRootAgainstKWayRumors) {
  // Reverse-capable models: an RR member seeded as the lone protector saves
  // the root even when the rumor union is split into K-way campaigns (role
  // collapse keeps RR membership sound).
  const bool supports_reverse = dispatch_model(
      model(), [](auto t) { return decltype(t)::kSupportsReverse; });
  if (!supports_reverse) return;  // rejection pinned by the K=2 suite
  Rng rng(31);
  const DiGraph g = erdos_renyi(80, 0.07, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2};
  std::vector<NodeId> bridge_ends;
  for (NodeId v = 40; v < 60; ++v) bridge_ends.push_back(v);
  RisConfig cfg;
  cfg.model = model();
  cfg.max_hops = 20;
  cfg.ic_edge_prob = 0.3;
  RrSampler sampler(g, rumors, bridge_ends, cfg);
  const RealizationParams mc = params();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 25; ++i) {
    const RrSampler::Draw d = sampler.draw(0, i);
    const std::vector<NodeId> set =
        sampler.rr_set(d.root_idx, d.realization_seed);
    const NodeId root = bridge_ends[d.root_idx];
    for (NodeId v : set) {
      const SeedSets seeds = seeds_for(rumors, {v},
                                       CascadePriority::kFixedOrder);
      const DiffusionResult res =
          simulate(g, seeds, d.realization_seed, model(), mc);
      EXPECT_NE(res.state[root], NodeState::kInfected)
          << "RR member " << v << " fails to save root " << root
          << " against K-way rumors";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllK, KWayConformanceTest,
    ::testing::Combine(::testing::Values(DiffusionModel::kOpoao,
                                         DiffusionModel::kDoam,
                                         DiffusionModel::kIc,
                                         DiffusionModel::kLt,
                                         DiffusionModel::kWc),
                       ::testing::Values(2, 3, 5)),
    [](const auto& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_K" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace lcrb
