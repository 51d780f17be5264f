// Seeded statistical tests (ctest -L stat): chi-square uniformity of the
// OPOAO pick stream, Hoeffding agreement between the Monte-Carlo and RIS
// sigma estimators, exact brute-force sigma cross-checks on tiny graphs, and
// the MC-vs-RIS greedy quality agreement on the paper-figure analogs.
//
// Every test fixes its seeds, so outcomes are deterministic: a failure is a
// real regression, not statistical bad luck (the delta knobs size the
// tolerances so a false alarm at authoring time was astronomically
// unlikely).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "community/partition.h"
#include "diffusion/opoao.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/pipeline.h"
#include "lcrb/ris.h"
#include "lcrb/sigma.h"
#include "support/own_sigma.h"
#include "support/statcheck.h"

namespace lcrb {
namespace {

using statcheck::hoeffding_agreement;
using statcheck::hoeffding_halfwidth;

TEST(OpoaoPickStreamTest, PickSlotUniformAcrossSteps) {
  // A degree-8 node: the slot opoao_pick_hash(seed, v, step) % 8 must look
  // uniform over the step axis (this is what makes every step's pick a
  // fresh uniform neighbor draw).
  constexpr std::size_t kDeg = 8;
  std::vector<std::size_t> counts(kDeg, 0);
  for (std::uint32_t step = 1; step <= 16000; ++step) {
    ++counts[opoao_pick_hash(/*seed=*/12345, /*v=*/3, step) % kDeg];
  }
  EXPECT_GT(statcheck::chi_square_uniform_pvalue(counts), 1e-3);
}

TEST(OpoaoPickStreamTest, PickSlotUniformAcrossSeeds) {
  // ... and over the sample-seed axis at a fixed step, for several degrees.
  for (std::size_t deg : {2, 3, 5, 7}) {
    std::vector<std::size_t> counts(deg, 0);
    for (std::uint64_t seed = 0; seed < 12000; ++seed) {
      ++counts[opoao_pick_hash(seed, /*v=*/1, /*step=*/4) % deg];
    }
    EXPECT_GT(statcheck::chi_square_uniform_pvalue(counts), 1e-3)
        << "degree " << deg;
  }
}

TEST(OpoaoPickStreamTest, NodesAndStepsDecorrelated) {
  // Joint bins over (node slot, step slot): a multiplicative structure in
  // the hash would show up as a non-uniform joint distribution.
  constexpr std::size_t kBins = 4;
  std::vector<std::size_t> counts(kBins * kBins, 0);
  for (NodeId v = 0; v < 60; ++v) {
    for (std::uint32_t step = 1; step <= 200; ++step) {
      const std::size_t a = opoao_pick_hash(9, v, step) % kBins;
      const std::size_t b = opoao_pick_hash(9, v, step + 1) % kBins;
      ++counts[a * kBins + b];
    }
  }
  EXPECT_GT(statcheck::chi_square_uniform_pvalue(counts), 1e-3);
}

// ---------------------------------------------------------------------------
// MC vs RIS estimator agreement on a community graph.

// A fixed pool of `sets` RR sets on draw stream 2, independent of the
// selection (0) and validation (1) streams RIS selection grows.
RrPool fixed_ris_pool(const DiGraph& g, const std::vector<NodeId>& rumors,
                      const std::vector<NodeId>& ends, const RisConfig& cfg,
                      std::size_t sets) {
  RrPool pool;
  RrSampler(g, rumors, ends, cfg).extend(pool, 2, sets);
  return pool;
}

// The RIS sigma-hat: |B| times the fraction of RR sets `a` covers. Exact in
// expectation for DOAM and IC; a lower bound in expectation for OPOAO.
double ris_sigma(const RrPool& pool, std::size_t num_ends,
                 std::span<const NodeId> a) {
  return pool.coverage_fraction(a, false) * static_cast<double>(num_ends);
}

struct AgreementFixtureResult {
  DiGraph g;
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
};

AgreementFixtureResult community_fixture(std::uint64_t seed) {
  CommunityGraphConfig cg;
  cg.community_sizes = {40, 30, 30};
  cg.avg_intra_degree = 5.0;
  cg.avg_inter_degree = 1.8;
  cg.seed = seed;
  CommunityGraph net = make_community_graph(cg);
  const Partition part(net.membership);
  AgreementFixtureResult out;
  for (NodeId v = 0; v < net.graph.num_nodes() && out.rumors.size() < 2; ++v) {
    if (net.membership[v] == 0) out.rumors.push_back(v);
  }
  out.bridges = find_bridge_ends(net.graph, part, 0, out.rumors);
  out.g = std::move(net.graph);
  return out;
}

TEST(SigmaAgreementTest, IcEstimatorsAgreeWithinHoeffding) {
  const auto fx = community_fixture(61);
  const auto& ends = fx.bridges.bridge_ends;
  ASSERT_GE(ends.size(), 5u);

  SigmaConfig sc;
  sc.model = DiffusionModel::kIc;
  sc.ic_edge_prob = 0.3;
  sc.samples = 2000;
  sc.seed = 11;
  SigmaEstimator mc(fx.g, fx.rumors, ends, sc);

  RisConfig rc;
  rc.model = DiffusionModel::kIc;
  rc.ic_edge_prob = 0.3;
  rc.seed = 12;
  const std::size_t ris_sets = 8192;
  const RrPool ris = fixed_ris_pool(fx.g, fx.rumors, ends, rc, ris_sets);

  const double range = static_cast<double>(ends.size());
  for (const std::vector<NodeId>& a :
       {std::vector<NodeId>{ends[0], ends[1], ends[2]},
        std::vector<NodeId>(ends.begin(), ends.begin() + ends.size() / 2)}) {
    const auto agree = hoeffding_agreement(
        mc.sigma(a), sc.samples, ris_sigma(ris, ends.size(), a), ris_sets,
        range, /*delta=*/1e-6);
    EXPECT_TRUE(agree.ok) << "diff " << agree.diff << " tol " << agree.tol;
  }
}

TEST(SigmaAgreementTest, DoamEstimatorsAgreeWithinHoeffding) {
  const auto fx = community_fixture(67);
  const auto& ends = fx.bridges.bridge_ends;
  ASSERT_GE(ends.size(), 5u);

  SigmaConfig sc;
  sc.model = DiffusionModel::kDoam;
  sc.samples = 8;  // deterministic model; samples only average a constant
  SigmaEstimator mc(fx.g, fx.rumors, ends, sc);

  RisConfig rc;
  rc.model = DiffusionModel::kDoam;
  rc.seed = 21;
  const std::size_t ris_sets = 8192;
  const RrPool ris = fixed_ris_pool(fx.g, fx.rumors, ends, rc, ris_sets);

  // The only RIS noise under DOAM is the uniform root draw.
  const double range = static_cast<double>(ends.size());
  const std::vector<NodeId> a(ends.begin(), ends.begin() + 3);
  const double tol = range * hoeffding_halfwidth(ris_sets, 1e-6);
  EXPECT_NEAR(ris_sigma(ris, ends.size(), a), mc.sigma(a), tol);
}

TEST(SigmaAgreementTest, OpoaoRisLowerBoundsAndMatchesOnSelfCover) {
  const auto fx = community_fixture(71);
  const auto& ends = fx.bridges.bridge_ends;
  ASSERT_GE(ends.size(), 5u);

  SigmaConfig sc;
  sc.model = DiffusionModel::kOpoao;
  sc.samples = 2000;
  sc.seed = 31;
  SigmaEstimator mc(fx.g, fx.rumors, ends, sc);

  RisConfig rc;
  rc.model = DiffusionModel::kOpoao;
  rc.seed = 32;
  const std::size_t ris_sets = 8192;
  const RrPool ris = fixed_ris_pool(fx.g, fx.rumors, ends, rc, ris_sets);

  const double range = static_cast<double>(ends.size());
  const double tol = range * (hoeffding_halfwidth(sc.samples, 1e-6) +
                              hoeffding_halfwidth(ris_sets, 1e-6));

  // Partial protector sets: one-sided — RIS coverage is a lower bound.
  const std::vector<NodeId> a(ends.begin(), ends.begin() + 3);
  EXPECT_LE(ris_sigma(ris, ends.size(), a), mc.sigma(a) + tol);
  EXPECT_GE(ris_sigma(ris, ends.size(), a), 0.0);

  // Seeding ALL bridge ends: a root always saves itself, so the bound is
  // tight and the two-sided check must pass even under OPOAO. sigma(B) on
  // the MC side equals the baseline infected count (a protected seed is
  // never infected).
  const auto agree =
      hoeffding_agreement(mc.baseline_infected(), sc.samples,
                          ris_sigma(ris, ends.size(), ends), ris_sets, range,
                          1e-6);
  EXPECT_TRUE(agree.ok) << "diff " << agree.diff << " tol " << agree.tol;
}

// ---------------------------------------------------------------------------
// Exact brute-force cross-checks on tiny graphs.

TEST(ExactSigmaTest, IcEnumerationMatchesBothEstimators) {
  // 8 nodes, 12 arcs: 2^12 live patterns is instant.
  const DiGraph g = make_graph(
      8, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 4}, {2, 5}, {3, 6}, {4, 6},
          {5, 7}, {6, 7}, {4, 5}, {3, 5}});
  const std::vector<NodeId> rumors = {0};
  const std::vector<NodeId> ends = {3, 4, 5, 6, 7};
  const double p = 0.4;

  for (const std::vector<NodeId>& a :
       {std::vector<NodeId>{1}, std::vector<NodeId>{2}, std::vector<NodeId>{1, 2}}) {
    const double exact = statcheck::exact_sigma_ic(g, rumors, ends, a, p);

    SigmaConfig sc;
    sc.model = DiffusionModel::kIc;
    sc.ic_edge_prob = p;
    sc.samples = 4000;
    sc.seed = 3;
    SigmaEstimator mc(g, rumors, ends, sc);
    EXPECT_NEAR(mc.sigma(a), exact,
                static_cast<double>(ends.size()) *
                    hoeffding_halfwidth(sc.samples, 1e-6))
        << "protectors " << a[0];

    RisConfig rc;
    rc.model = DiffusionModel::kIc;
    rc.ic_edge_prob = p;
    rc.seed = 4;
    const std::size_t ris_sets = 16384;
    const RrPool ris = fixed_ris_pool(g, rumors, ends, rc, ris_sets);
    EXPECT_NEAR(ris_sigma(ris, ends.size(), a), exact,
                static_cast<double>(ends.size()) *
                    hoeffding_halfwidth(ris_sets, 1e-6))
        << "protectors " << a[0];
  }
}

TEST(ExactSigmaTest, DoamEnumerationIsExactForMcAndTightForRis) {
  const DiGraph g = make_graph(
      9, {{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 6}, {4, 7},
          {7, 8}, {2, 3}});
  const std::vector<NodeId> rumors = {0};
  const std::vector<NodeId> ends = {3, 4, 5, 6, 7, 8};

  for (const std::vector<NodeId>& a :
       {std::vector<NodeId>{1}, std::vector<NodeId>{2}, std::vector<NodeId>{4}}) {
    const double exact = statcheck::exact_sigma_doam(g, rumors, ends, a);

    SigmaConfig sc;
    sc.model = DiffusionModel::kDoam;
    sc.samples = 4;
    SigmaEstimator mc(g, rumors, ends, sc);
    EXPECT_DOUBLE_EQ(mc.sigma(a), exact);  // both sides deterministic

    RisConfig rc;
    rc.model = DiffusionModel::kDoam;
    rc.seed = 6;
    const std::size_t ris_sets = 16384;
    const RrPool ris = fixed_ris_pool(g, rumors, ends, rc, ris_sets);
    EXPECT_NEAR(ris_sigma(ris, ends.size(), a), exact,
                static_cast<double>(ends.size()) *
                    hoeffding_halfwidth(ris_sets, 1e-6));
  }
}

// ---------------------------------------------------------------------------
// MC-greedy vs RIS-greedy protector quality on the paper-figure analogs
// (Fig. 4: Hep under OPOAO; Fig. 7: Hep under DOAM), tiny scale. Both run
// to the same protector budget; a reference MC estimator then scores both
// sets on common random numbers and the Hoeffding agreement check (with an
// epsilon slack for the RIS stopping rule) must pass.

void run_quality_comparison(DiffusionModel model, std::size_t mc_samples) {
  const DatasetSubstitute ds = make_hep_like(/*seed=*/3, /*scale=*/0.08);
  const Partition part(ds.net.membership);
  const ExperimentSetup setup = prepare_experiment(
      ds.net.graph, part, ds.planted_medium, /*num_rumors=*/3, /*seed=*/104);
  const auto& ends = setup.bridges.bridge_ends;
  ASSERT_GE(ends.size(), 5u);

  GreedyConfig base;
  base.alpha = 0.999;  // run to the cap: equal-size sets compare cleanly
  base.max_protectors = 3;
  base.max_candidates = 150;
  base.sigma.model = model;
  base.sigma.samples = mc_samples;
  base.sigma.seed = 9;
  base.sigma.max_hops = 16;

  // RIS draws under the same diffusion knobs as the Monte-Carlo sigma.
  RisConfig ris_cfg;
  ris_cfg.model = model;
  ris_cfg.seed = base.sigma.seed;
  ris_cfg.max_hops = base.sigma.max_hops;
  ris_cfg.epsilon = 0.1;
  ris_cfg.initial_sets = 512;
  ris_cfg.max_sets = std::size_t{1} << 13;

  const GreedyResult r_mc = testutil::greedy_own(
      ds.net.graph, setup.rumors, setup.bridges, base);
  const RisGreedyResult r_ris = testutil::ris_greedy_own(
      ds.net.graph, setup.rumors, setup.bridges, base.alpha,
      base.max_protectors, ris_cfg);
  ASSERT_FALSE(r_mc.protectors.empty());
  ASSERT_FALSE(r_ris.protectors.empty());

  SigmaConfig ref_cfg;
  ref_cfg.model = model;
  ref_cfg.samples = (model == DiffusionModel::kDoam) ? 8 : 400;
  ref_cfg.seed = 777;  // fresh randomness, common to both evaluations
  ref_cfg.max_hops = 16;
  SigmaEstimator ref(ds.net.graph, setup.rumors, ends, ref_cfg);

  const double sigma_mc = ref.sigma(r_mc.protectors);
  const double sigma_ris = ref.sigma(r_ris.protectors);
  const double range = static_cast<double>(ends.size());
  const auto agree = hoeffding_agreement(
      sigma_mc, ref_cfg.samples, sigma_ris, ref_cfg.samples, range,
      /*delta=*/1e-4, /*slack=*/ris_cfg.epsilon * range);
  EXPECT_TRUE(agree.ok) << "sigma_mc " << sigma_mc << " sigma_ris "
                        << sigma_ris << " tol " << agree.tol;
}

TEST(GreedyQualityTest, RisMatchesMonteCarloOnHepOpoao) {
  run_quality_comparison(DiffusionModel::kOpoao, /*mc_samples=*/16);
}

TEST(GreedyQualityTest, RisMatchesMonteCarloOnHepDoam) {
  run_quality_comparison(DiffusionModel::kDoam, /*mc_samples=*/4);
}

}  // namespace
}  // namespace lcrb
