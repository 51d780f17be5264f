#include "lcrb/sigma.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "diffusion/model_traits.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

SigmaConfig small_cfg(std::size_t samples = 30) {
  SigmaConfig cfg;
  cfg.samples = samples;
  cfg.seed = 11;
  cfg.max_hops = 40;
  return cfg;
}

TEST(SigmaEstimator, EmptyProtectorsScoreZero) {
  const DiGraph g = path_graph(6);
  SigmaEstimator est(g, {0}, {3, 4}, small_cfg());
  EXPECT_DOUBLE_EQ(est.sigma({}), 0.0);
}

TEST(SigmaEstimator, PathBlockingIsExact) {
  // Forced walk: protector at 2 saves bridge ends 3,4,5 in every sample.
  const DiGraph g = path_graph(6);
  SigmaEstimator est(g, {0}, {3, 4, 5}, small_cfg());
  EXPECT_DOUBLE_EQ(est.baseline_infected(), 3.0);
  const NodeId a[] = {2};
  EXPECT_DOUBLE_EQ(est.sigma(a), 3.0);
  EXPECT_DOUBLE_EQ(est.protected_fraction(a), 1.0);
  EXPECT_DOUBLE_EQ(est.protected_fraction({}), 0.0);
}

TEST(SigmaEstimator, MonotoneInProtectorSet) {
  Rng rng(3);
  const DiGraph g = erdos_renyi(120, 0.04, true, rng);
  std::vector<NodeId> targets;
  for (NodeId v = 50; v < 70; ++v) targets.push_back(v);
  SigmaEstimator est(g, {0, 1}, targets, small_cfg(20));

  const NodeId one[] = {10};
  const NodeId two[] = {10, 11};
  const NodeId three[] = {10, 11, 12};
  const double s1 = est.sigma(one);
  const double s2 = est.sigma(two);
  const double s3 = est.sigma(three);
  EXPECT_GE(s2 + 1e-9, s1);
  EXPECT_GE(s3 + 1e-9, s2);
}

TEST(SigmaEstimator, DeterministicAcrossCalls) {
  Rng rng(4);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  std::vector<NodeId> targets{30, 31, 32, 33};
  SigmaEstimator est(g, {0}, targets, small_cfg(15));
  const NodeId a[] = {5, 6};
  EXPECT_DOUBLE_EQ(est.sigma(a), est.sigma(a));
  EXPECT_DOUBLE_EQ(est.protected_fraction(a), est.protected_fraction(a));
}

TEST(SigmaEstimator, ParallelMatchesSerial) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  std::vector<NodeId> targets{30, 31, 32, 33, 34};
  SigmaEstimator serial(g, {0}, targets, small_cfg(16));
  ThreadPool pool(4);
  SigmaEstimator parallel(g, {0}, targets, small_cfg(16), &pool);
  const NodeId a[] = {9};
  EXPECT_NEAR(serial.sigma(a), parallel.sigma(a), 1e-12);
  EXPECT_NEAR(serial.baseline_infected(), parallel.baseline_infected(), 1e-12);
}

TEST(SigmaEstimator, EmptyBridgeEndsFractionIsOne) {
  const DiGraph g = path_graph(4);
  SigmaEstimator est(g, {0}, {}, small_cfg(5));
  EXPECT_DOUBLE_EQ(est.protected_fraction({}), 1.0);
  EXPECT_DOUBLE_EQ(est.sigma({}), 0.0);
}

TEST(SigmaEstimator, CountsEvaluations) {
  const DiGraph g = path_graph(5);
  SigmaEstimator est(g, {0}, {4}, small_cfg(8));
  EXPECT_EQ(est.evaluations(), 0u);
  (void)est.sigma({});
  EXPECT_EQ(est.evaluations(), 8u);
  const NodeId a[] = {2};
  (void)est.protected_fraction(a);
  EXPECT_EQ(est.evaluations(), 16u);
}

TEST(SigmaEstimator, RequiresRumorsAndSamples) {
  const DiGraph g = path_graph(4);
  SigmaConfig bad = small_cfg(0);
  EXPECT_THROW(SigmaEstimator(g, {0}, {2}, bad), Error);
  EXPECT_THROW(SigmaEstimator(g, {}, {2}, small_cfg()), Error);
}

// Submodularity spot check on a fixed fan graph where marginals are exact.
TEST(SigmaEstimator, DiminishingReturnsOnFanGraph) {
  // Rumor 0 feeds a long path to bridge ends; two protector positions both
  // block the same path: the second adds nothing once the first is placed.
  const DiGraph g = path_graph(8);
  SigmaEstimator est(g, {0}, {5, 6, 7}, small_cfg(10));
  const NodeId x[] = {2};
  const NodeId xy[] = {2, 3};
  const double gain_into_empty = est.sigma(x) - est.sigma({});
  const double gain_into_x = est.sigma(xy) - est.sigma(x);
  EXPECT_GE(gain_into_empty + 1e-9, gain_into_x);
  EXPECT_DOUBLE_EQ(gain_into_x, 0.0);  // 3 already saved by node 2
}

TEST(SigmaEstimator, OpoaoAndDoamBlockThePathAndCountVisits) {
  const DiGraph g = path_graph(8);
  const std::vector<NodeId> rumors = {0};
  const std::vector<NodeId> ends = {5, 6, 7};

  // Default OPOAO config: the realization cache serves.
  SigmaEstimator cached(g, rumors, ends, small_cfg(10));

  // DOAM replays its one materialized realization for every sample.
  SigmaConfig doam = small_cfg(4);
  doam.model = DiffusionModel::kDoam;
  SigmaEstimator det(g, rumors, ends, doam);
  const NodeId a[] = {2};
  EXPECT_DOUBLE_EQ(det.sigma(a), 3.0);  // 2 blocks every bridge end
  EXPECT_DOUBLE_EQ(cached.sigma(a), 3.0);

  // Both account their work in the common node-visit currency.
  EXPECT_GT(cached.nodes_visited(), 0u);
  EXPECT_GT(det.nodes_visited(), 0u);
}

/// The lcrb::Error message building `cfg`'s estimator throws, or "built".
std::string build_error(const DiGraph& g, const SigmaConfig& cfg) {
  try {
    const SigmaEstimator est(g, {0}, {5, 6, 7}, cfg);
  } catch (const Error& e) {
    return e.what();
  }
  return "built";
}

TEST(SigmaEstimator, RefusesAnOverBoundCacheBeforeBuildingIt) {
  const DiGraph g = path_graph(8);
  const std::string bound = std::to_string(kMaxSigmaCacheBytes);
  auto expect_refused = [&](const SigmaConfig& cfg, const char* what) {
    const std::string msg = build_error(g, cfg);
    EXPECT_NE(msg.find("-byte bound; lower sigma_samples or max_hops"),
              std::string::npos)
        << what << ": " << msg;
    EXPECT_NE(msg.find(bound), std::string::npos) << what << ": " << msg;
  };
  // A hop cap of 2^32-1 (OPOAO pick tables take 4 B x rows x hops per
  // sample) and a sample count whose seeds alone would wrap a 64-bit byte
  // count: both are refused before any per-sample allocation (an attempt
  // would throw std::bad_alloc or std::length_error instead).
  SigmaConfig hops = small_cfg(10);
  hops.max_hops = 0xffffffff;
  expect_refused(hops, "max_hops 2^32-1");
  SigmaConfig samples = small_cfg();
  samples.samples = std::size_t{1} << 62;
  expect_refused(samples, "sigma_samples 2^62");
  // DOAM materializes one realization, but its per-sample bookkeeping still
  // counts every sample.
  SigmaConfig doam = small_cfg();
  doam.model = DiffusionModel::kDoam;
  doam.samples = 1'000'000'000'000;
  expect_refused(doam, "DOAM 10^12 samples");

  // The default config still builds, within the bound.
  const SigmaEstimator est(g, {0}, {5, 6, 7}, SigmaConfig{});
  EXPECT_GT(est.realization_bytes(), 0u);
  EXPECT_LE(est.realization_bytes(), kMaxSigmaCacheBytes);
}

TEST(SigmaEstimator, CacheEstimateSaturatesInsteadOfWrapping) {
  // A wrapped estimate would be small and pass the bound; a saturated one
  // is refused and reported as SIZE_MAX bytes.
  const DiGraph g = path_graph(8);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::string saturated = "estimated " + std::to_string(kMax) + " bytes";
  auto refusal = [&](const SigmaConfig& cfg) -> std::string {
    try {
      (void)SigmaEstimator::check_footprint(g, 3, cfg, "sigma_samples");
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  // The per-sample seed and baseline term saturates on its own at 2^62
  // samples, so the cache estimate is checked at the traits.
  for (DiffusionModel m :
       {DiffusionModel::kOpoao, DiffusionModel::kIc, DiffusionModel::kLt,
        DiffusionModel::kWc}) {
    SigmaConfig cfg = small_cfg();
    cfg.model = m;
    cfg.samples = std::size_t{1} << 62;
    const std::size_t cache = dispatch_model(m, [&](auto t) {
      using T = decltype(t);
      return T::estimated_cache_bytes(g, cfg.samples, cfg.max_hops);
    });
    EXPECT_EQ(cache, kMax) << to_string(m);
    EXPECT_NE(refusal(cfg).find(saturated), std::string::npos)
        << to_string(m);
  }
  // Here the per-sample term stays far from SIZE_MAX: only OPOAO's pick
  // table estimate (hops x rows per sample) saturates.
  SigmaConfig hops = small_cfg();
  hops.max_hops = 0xffffffff;
  hops.samples = std::size_t{1} << 40;
  EXPECT_EQ(OpoaoTraits::estimated_cache_bytes(g, hops.samples, hops.max_hops),
            kMax);
  EXPECT_NE(refusal(hops).find(saturated), std::string::npos);
}

}  // namespace
}  // namespace lcrb
