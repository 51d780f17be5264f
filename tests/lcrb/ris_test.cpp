// RIS subsystem unit tests: RR-set semantics per model (checked against
// hand-derived sets on forced graphs), pool/inverted-index integrity, the
// adaptive stopping rule, and the SigmaMode::kRis wiring through the LCRB-P
// greedy.
#include "lcrb/ris.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "community/partition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/pipeline.h"
#include "support/own_sigma.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

BridgeEndResult bridges_on(const DiGraph& g, std::vector<NodeId> rumors,
                           std::vector<NodeId> ends) {
  // Tests drive the RIS machinery with hand-chosen "bridge ends"; only the
  // rumor distances must be genuine (DOAM truncation uses them).
  BridgeEndResult b;
  b.bridge_ends = std::move(ends);
  b.rumor_dist.assign(g.num_nodes(), kUnreached);
  std::vector<NodeId> frontier, next;
  for (NodeId s : rumors) {
    b.rumor_dist[s] = 0;
    frontier.push_back(s);
  }
  for (std::uint32_t d = 1; !frontier.empty(); ++d) {
    next.clear();
    for (NodeId u : frontier) {
      for (NodeId w : g.out_neighbors(u)) {
        if (b.rumor_dist[w] == kUnreached) {
          b.rumor_dist[w] = d;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return b;
}

TEST(RrSamplerTest, DoamRrSetIsTruncatedReverseBall) {
  // Path 0 -> 1 -> 2 -> 3 -> 4 -> 5, rumor at 0. dist_R(b) = b, so the RR
  // set of root b is every non-rumor node within b reverse hops: {1, .., b}.
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  RrSampler sampler(g, {0}, {2, 5}, cfg);

  EXPECT_EQ(sampler.rr_set(0, 123), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(sampler.rr_set(1, 456), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  // DOAM is deterministic: the realization seed must not matter.
  EXPECT_EQ(sampler.rr_set(1, 1), sampler.rr_set(1, 999));
}

TEST(RrSamplerTest, DoamUnreachableRootIsNullSet) {
  // 2 is not reachable from the rumor: nothing to save, null RR set.
  const DiGraph g = make_graph(3, {{0, 1}, {2, 1}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  RrSampler sampler(g, {0}, {1, 2}, cfg);
  EXPECT_TRUE(sampler.rr_set(1, 7).empty());
  EXPECT_EQ(sampler.rr_set(0, 7), (std::vector<NodeId>{1, 2}));
}

TEST(RrSamplerTest, DoamMaxHopsTruncates) {
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  cfg.max_hops = 3;
  RrSampler sampler(g, {0}, {5}, cfg);
  // The rumor needs 5 > max_hops hops to reach 5: null set.
  EXPECT_TRUE(sampler.rr_set(0, 7).empty());
}

TEST(RrSamplerTest, IcProbOneMatchesDoamDistanceRule) {
  // With p = 1 every arc is live, so the IC RR set equals the DOAM one.
  const DiGraph g =
      make_graph(7, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 6}});
  RisConfig ic_cfg;
  ic_cfg.model = DiffusionModel::kIc;
  ic_cfg.ic_edge_prob = 1.0;
  RisConfig doam_cfg;
  doam_cfg.model = DiffusionModel::kDoam;
  const std::vector<NodeId> ends = {3, 6};
  RrSampler ic(g, {0}, ends, ic_cfg);
  RrSampler doam(g, {0}, ends, doam_cfg);
  for (std::size_t root = 0; root < ends.size(); ++root) {
    for (std::uint64_t seed : {1ULL, 42ULL, 1000ULL}) {
      EXPECT_EQ(ic.rr_set(root, seed), doam.rr_set(root, seed));
    }
  }
}

TEST(RrSamplerTest, IcProbZeroIsAlwaysNull) {
  const DiGraph g = make_graph(3, {{0, 1}, {1, 2}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.0;
  RrSampler sampler(g, {0}, {1, 2}, cfg);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_TRUE(sampler.rr_set(0, seed).empty());
    EXPECT_TRUE(sampler.rr_set(1, seed).empty());
  }
}

TEST(RrSamplerTest, OpoaoForcedPathCollectsWholeChain) {
  // Out-degrees are all <= 1, so every pick is forced: the rumor reaches 5
  // at step 5, and any v in {1..5} seeded as protector saves 5 (it claims
  // down the chain at least as fast as the rumor behind it).
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  RrSampler sampler(g, {0}, {5, 1}, cfg);
  for (std::uint64_t seed : {3ULL, 77ULL, 2024ULL}) {
    EXPECT_EQ(sampler.rr_set(0, seed), (std::vector<NodeId>{1, 2, 3, 4, 5}));
    // Root 1: only 1 itself can save it (its sole in-neighbor is the rumor).
    EXPECT_EQ(sampler.rr_set(1, seed), (std::vector<NodeId>{1}));
  }
}

TEST(RrSamplerTest, OpoaoRootBeyondHopCapIsNull) {
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.max_hops = 4;  // rumor needs 5 steps to reach node 5
  RrSampler sampler(g, {0}, {5}, cfg);
  EXPECT_TRUE(sampler.rr_set(0, 9).empty());
}

TEST(RrSamplerTest, DrawsAreDeterministicAndStreamSeparated) {
  const DiGraph g = make_graph(3, {{0, 1}, {1, 2}});
  RisConfig cfg;
  cfg.seed = 99;
  RrSampler sampler(g, {0}, {1, 2}, cfg);
  const auto d0 = sampler.draw(0, 5);
  EXPECT_EQ(d0.root_idx, sampler.draw(0, 5).root_idx);
  EXPECT_EQ(d0.realization_seed, sampler.draw(0, 5).realization_seed);
  // Different streams at the same index decouple.
  EXPECT_NE(d0.realization_seed, sampler.draw(1, 5).realization_seed);
  EXPECT_NE(d0.realization_seed, sampler.draw(2, 5).realization_seed);
  EXPECT_LT(d0.root_idx, sampler.bridge_ends().size());
}

TEST(RrSamplerTest, RejectsRumorSeedBridgeEnds) {
  // A rumor seed is infected at step 0, so nothing can save it: a bridge end
  // that is a rumor seed has no RR set. Every entry point that takes
  // caller-supplied bridge ends rejects it, for every reverse-capable model.
  const DiGraph g = make_graph(3, {{0, 1}, {1, 2}, {2, 0}});
  const std::vector<NodeId> rumors{0};
  for (DiffusionModel m : {DiffusionModel::kOpoao, DiffusionModel::kDoam,
                           DiffusionModel::kIc, DiffusionModel::kWc}) {
    RisConfig cfg;
    cfg.model = m;
    cfg.ic_edge_prob = 1.0;
    EXPECT_THROW(RrSampler(g, rumors, {1, 0}, cfg), Error) << to_string(m);
    EXPECT_THROW((void)testutil::ris_greedy_own(
                     g, rumors, bridges_on(g, rumors, {0}), 0.5, 0, cfg),
                 Error)
        << to_string(m);
    EXPECT_NO_THROW(RrSampler(g, rumors, {1, 2}, cfg)) << to_string(m);
  }
}

TEST(RrPoolTest, InvertedIndexMatchesSetsExactly) {
  Rng rng(11);
  const DiGraph g = erdos_renyi(30, 0.12, /*directed=*/true, rng);
  RisConfig cfg;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.4;
  std::vector<NodeId> ends;
  for (NodeId v = 1; v < 10; ++v) ends.push_back(v);
  RrSampler sampler(g, {0}, ends, cfg);
  RrPool pool;
  sampler.extend(pool, /*stream=*/0, /*target_sets=*/200);
  ASSERT_EQ(pool.num_sets(), 200u);
  // The validator asserts everything this test checks by hand below (and is
  // what LCRB_ENABLE_INVARIANTS runs after every append).
  EXPECT_NO_THROW(pool.validate());

  std::size_t entries = 0, nulls = 0;
  for (std::size_t i = 0; i < pool.num_sets(); ++i) {
    const auto nodes = pool.set_nodes(i);
    entries += nodes.size();
    if (nodes.empty()) ++nulls;
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    // Forward direction: every member's posting list names set i.
    for (NodeId v : nodes) {
      const auto sets = pool.sets_containing(v);
      EXPECT_TRUE(std::binary_search(sets.begin(), sets.end(),
                                     static_cast<std::uint32_t>(i)));
    }
  }
  EXPECT_EQ(pool.total_entries(), entries);
  EXPECT_EQ(pool.num_null(), nulls);

  // Reverse direction: posting lists are sorted and only name real members.
  std::size_t inv_entries = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto sets = pool.sets_containing(v);
    inv_entries += sets.size();
    EXPECT_TRUE(std::is_sorted(sets.begin(), sets.end()));
    for (std::uint32_t i : sets) {
      const auto nodes = pool.set_nodes(i);
      EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), v));
    }
  }
  EXPECT_EQ(inv_entries, entries);
}

TEST(RrPoolTest, CoverageFractionCountsHitsAndNulls) {
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  cfg.max_hops = 3;
  // Root 5 is beyond the hop cap -> null; roots 2 and 3 are real.
  RrSampler sampler(g, {0}, {2, 3, 5}, cfg);
  RrPool pool;
  sampler.extend(pool, 0, 300);

  const double null_frac =
      static_cast<double>(pool.num_null()) / static_cast<double>(300);
  EXPECT_NEAR(null_frac, 1.0 / 3.0, 0.15);
  // Node 1 is in every non-null RR set (dist(1, b) = b - 1 < b = dist_R).
  const std::vector<NodeId> one = {1};
  EXPECT_DOUBLE_EQ(pool.coverage_fraction(one, /*count_null=*/false),
                   1.0 - null_frac);
  EXPECT_DOUBLE_EQ(pool.coverage_fraction(one, /*count_null=*/true), 1.0);
  EXPECT_DOUBLE_EQ(pool.coverage_fraction({}, false), 0.0);
  EXPECT_DOUBLE_EQ(pool.coverage_fraction({}, true), null_frac);
}

TEST(RrPoolTest, ExtendAppendsWithoutDisturbingExistingSets) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(25, 0.15, true, rng);
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  RrSampler sampler(g, {0}, {3, 4, 5, 6}, cfg);

  RrPool grown;
  sampler.extend(grown, 0, 50);
  std::vector<std::vector<NodeId>> before;
  for (std::size_t i = 0; i < 50; ++i) {
    before.emplace_back(grown.set_nodes(i).begin(), grown.set_nodes(i).end());
  }
  sampler.extend(grown, 0, 120);
  ASSERT_EQ(grown.num_sets(), 120u);
  EXPECT_NO_THROW(grown.validate());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(before[i], std::vector<NodeId>(grown.set_nodes(i).begin(),
                                             grown.set_nodes(i).end()));
  }
  // One-shot generation of 120 sets is identical to the two-round growth.
  RrPool oneshot;
  sampler.extend(oneshot, 0, 120);
  for (std::size_t i = 0; i < 120; ++i) {
    EXPECT_EQ(std::vector<NodeId>(grown.set_nodes(i).begin(),
                                  grown.set_nodes(i).end()),
              std::vector<NodeId>(oneshot.set_nodes(i).begin(),
                                  oneshot.set_nodes(i).end()));
  }
}

// --- ris_greedy_with_context on a context built for the call ---

TEST(RisGreedyTest, TwoPathGraphPicksBothGatewayNodes) {
  // Same fixture as greedy_test: rumor 0 feeds two disjoint paths through 1
  // and 4; protecting both gateways saves every bridge end.
  const DiGraph g =
      make_graph(7, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 6}});
  const auto bridges = bridges_on(g, {0}, {1, 4});
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.initial_sets = 256;
  const RisGreedyResult r =
      testutil::ris_greedy_own(g, std::vector<NodeId>{0}, bridges,
                               /*alpha=*/0.99, /*max_protectors=*/0, cfg);
  std::vector<NodeId> picks = r.protectors;
  std::sort(picks.begin(), picks.end());
  EXPECT_EQ(picks, (std::vector<NodeId>{1, 4}));
  EXPECT_GE(r.achieved_fraction, 0.99);
  EXPECT_GT(r.rr_sets, 0u);
  EXPECT_GE(r.rounds, 1u);
  EXPECT_EQ(r.gain_history.size(), r.protectors.size());
  EXPECT_LE(r.sigma_lower, r.sigma_upper + 1e-12);
  EXPECT_GT(r.nodes_visited, 0u);
}

TEST(RisGreedyTest, EmptyBridgeEndsTriviallyDone) {
  const DiGraph g = make_graph(3, {{0, 1}, {1, 2}});
  BridgeEndResult bridges;
  bridges.rumor_dist.assign(3, kUnreached);
  RisConfig cfg;
  const RisGreedyResult r = testutil::ris_greedy_own(
      g, std::vector<NodeId>{0}, bridges, 0.9, 0, cfg);
  EXPECT_TRUE(r.protectors.empty());
  EXPECT_DOUBLE_EQ(r.achieved_fraction, 1.0);
}

TEST(RisGreedyTest, MaxProtectorsCapRespected) {
  Rng rng(17);
  const DiGraph g = erdos_renyi(40, 0.1, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 14; ++v) ends.push_back(v);
  const auto bridges = bridges_on(g, {0, 1}, ends);
  RisConfig cfg;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.3;
  const RisGreedyResult r = testutil::ris_greedy_own(
      g, std::vector<NodeId>{0, 1}, bridges, 0.999, /*max_protectors=*/2, cfg);
  EXPECT_LE(r.protectors.size(), 2u);
}

TEST(RisGreedyTest, RerunsAreDeterministic) {
  Rng rng(23);
  const DiGraph g = erdos_renyi(50, 0.08, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 3; v < 18; ++v) ends.push_back(v);
  const auto bridges = bridges_on(g, {0, 1, 2}, ends);
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.initial_sets = 128;
  const std::vector<NodeId> rumors = {0, 1, 2};
  const RisGreedyResult a =
      testutil::ris_greedy_own(g, rumors, bridges, 0.8, 0, cfg);
  const RisGreedyResult b =
      testutil::ris_greedy_own(g, rumors, bridges, 0.8, 0, cfg);
  EXPECT_EQ(a.protectors, b.protectors);
  EXPECT_DOUBLE_EQ(a.achieved_fraction, b.achieved_fraction);
  EXPECT_EQ(a.rr_sets, b.rr_sets);
  EXPECT_DOUBLE_EQ(a.sigma_lower, b.sigma_lower);
  EXPECT_DOUBLE_EQ(a.sigma_upper, b.sigma_upper);
}

TEST(RisGreedyTest, TighterEpsilonNeverUsesFewerSets) {
  Rng rng(31);
  const DiGraph g = erdos_renyi(60, 0.07, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 20; ++v) ends.push_back(v);
  const auto bridges = bridges_on(g, {0, 1}, ends);
  const std::vector<NodeId> rumors = {0, 1};
  RisConfig loose;
  loose.model = DiffusionModel::kIc;
  loose.ic_edge_prob = 0.2;
  loose.epsilon = 0.5;
  loose.initial_sets = 64;
  RisConfig tight = loose;
  tight.epsilon = 0.02;
  const auto r_loose =
      testutil::ris_greedy_own(g, rumors, bridges, 0.8, 0, loose);
  const auto r_tight =
      testutil::ris_greedy_own(g, rumors, bridges, 0.8, 0, tight);
  EXPECT_LE(r_loose.rr_sets, r_tight.rr_sets);
}

TEST(RisGreedyTest, MaxSetsCapBoundsTheDoubling) {
  Rng rng(37);
  const DiGraph g = erdos_renyi(50, 0.08, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 16; ++v) ends.push_back(v);
  const auto bridges = bridges_on(g, {0}, ends);
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.epsilon = 1e-4;  // unreachable accuracy: must stop on the cap
  cfg.initial_sets = 32;
  cfg.max_sets = 256;
  const auto r = testutil::ris_greedy_own(g, std::vector<NodeId>{0},
                                          bridges, 0.8, 0, cfg);
  EXPECT_LE(r.rr_sets, 256u);
  // Exhausting the cap without certifying must be flagged, not silent.
  EXPECT_FALSE(r.guarantee_met);
  EXPECT_EQ(r.stop_reason, RisStopReason::kMaxSets);
}

TEST(RisGreedyTest, CertifiedStopReportsGuaranteeMet) {
  Rng rng(37);
  const DiGraph g = erdos_renyi(50, 0.08, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 16; ++v) ends.push_back(v);
  const auto bridges = bridges_on(g, {0}, ends);
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.initial_sets = 128;  // default epsilon/delta certify well before 2^18
  const auto r = testutil::ris_greedy_own(g, std::vector<NodeId>{0},
                                          bridges, 0.8, 0, cfg);
  EXPECT_TRUE(r.guarantee_met);
  EXPECT_TRUE(r.stop_reason == RisStopReason::kCertified ||
              r.stop_reason == RisStopReason::kNegligible);
  EXPECT_LT(r.rr_sets, cfg.max_sets);
}

// --- SigmaMode::kRis through the select() front door ---

TEST(RisGreedyTest, GreedyDispatchMatchesDirectRisCall) {
  const DiGraph g =
      make_graph(7, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 6}});
  const Partition part(std::vector<CommunityId>{0, 1, 1, 1, 1, 1, 1});
  const std::vector<NodeId> rumors = {0};
  const ExperimentSetup setup = prepare_experiment_with_rumors(g, part, rumors);
  ASSERT_EQ(setup.bridges.bridge_ends, (std::vector<NodeId>{1, 4}));

  LcrbOptions opts;
  opts.alpha = 0.99;
  opts.budget = 6;  // every non-rumor node: no cap in effect
  opts.sigma_mode = SigmaMode::kRis;
  opts.model = DiffusionModel::kOpoao;
  opts.sigma_seed = 5;
  opts.ris_initial_sets = 256;
  const Selection via_select = select(setup, opts);

  RisContext ctx(g, rumors, setup.bridges.bridge_ends, opts.ris_config());
  const RisGreedyResult direct = ris_greedy_with_context(
      opts.alpha, opts.budget, opts.ris_config(), ctx);

  EXPECT_EQ(via_select.protectors, direct.protectors);
  EXPECT_DOUBLE_EQ(via_select.achieved_fraction, direct.achieved_fraction);
  EXPECT_EQ(via_select.sigma_evaluations, direct.rr_sets);
  ASSERT_TRUE(via_select.ris.has_value());
  EXPECT_EQ(via_select.ris->rounds, direct.rounds);
  EXPECT_DOUBLE_EQ(via_select.ris->sigma_lower, direct.sigma_lower);
  EXPECT_DOUBLE_EQ(via_select.ris->sigma_upper, direct.sigma_upper);
  // The context select() builds serves that call alone, so its generation
  // work counts too.
  EXPECT_EQ(via_select.nodes_visited,
            direct.nodes_visited + ctx.selection.nodes_visited() +
                ctx.validation.nodes_visited());
}

TEST(RisGreedyTest, BothModesAgreeOnTheForcedAnswer) {
  const DiGraph g =
      make_graph(7, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 6}});
  const Partition part(std::vector<CommunityId>{0, 1, 1, 1, 1, 1, 1});
  const std::vector<NodeId> rumors = {0};
  const auto bridges = find_bridge_ends(g, part, 0, rumors);

  GreedyConfig mc;
  mc.alpha = 0.99;
  mc.sigma.samples = 20;
  mc.sigma.seed = 5;
  RisConfig ris;
  ris.seed = mc.sigma.seed;
  ris.initial_sets = 256;

  auto sorted = [](std::vector<NodeId> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto r_mc = testutil::greedy_own(g, rumors, bridges, mc);
  const auto r_ris =
      testutil::ris_greedy_own(g, rumors, bridges, mc.alpha, 0, ris);
  EXPECT_EQ(sorted(r_mc.protectors), sorted(r_ris.protectors));
  EXPECT_GT(r_ris.nodes_visited, 0u);
}

// --- Fixed-pool RIS sigma-hat: |B| x the coverage fraction of a pool ---

TEST(RisCoverageSigmaTest, AllBridgeEndsAsProtectorsSaveEverything) {
  Rng rng(41);
  const DiGraph g = erdos_renyi(30, 0.15, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 12; ++v) ends.push_back(v);
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  RrPool pool;
  RrSampler(g, {0, 1}, ends, cfg).extend(pool, 2, 512);
  const double num_ends = static_cast<double>(ends.size());
  EXPECT_EQ(pool.num_sets(), 512u);
  EXPECT_DOUBLE_EQ(pool.coverage_fraction({}, false) * num_ends, 0.0);
  // Each bridge end is in its own RR set whenever that set is non-null.
  EXPECT_DOUBLE_EQ(pool.coverage_fraction(ends, true), 1.0);
  const double expected_sigma =
      num_ends * (1.0 - static_cast<double>(pool.num_null()) /
                            static_cast<double>(pool.num_sets()));
  EXPECT_DOUBLE_EQ(pool.coverage_fraction(ends, false) * num_ends,
                   expected_sigma);
  EXPECT_GT(pool.nodes_visited(), 0u);
}

TEST(RisCoverageSigmaTest, SigmaIsMonotoneInTheProtectorSet) {
  Rng rng(43);
  const DiGraph g = erdos_renyi(40, 0.1, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 16; ++v) ends.push_back(v);
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  RrPool pool;
  RrSampler(g, {0, 1}, ends, cfg).extend(pool, 2, 1024);
  std::vector<NodeId> a;
  double prev = 0.0;
  for (NodeId v : {4u, 9u, 13u, 6u}) {
    a.push_back(v);
    const double cur = pool.coverage_fraction(a, false) *
                       static_cast<double>(ends.size());
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(RisModeTest, ToStringNames) {
  EXPECT_EQ(to_string(SigmaMode::kMonteCarlo), "mc");
  EXPECT_EQ(to_string(SigmaMode::kRis), "ris");
}

}  // namespace
}  // namespace lcrb
