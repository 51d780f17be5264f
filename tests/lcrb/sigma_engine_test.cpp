// Cross-checks of the sample-realization cache against the legacy
// simulate() reference. A cache cap of one byte materializes no sample, so
// every evaluation re-runs the forward kernel (run_cascade, what simulate()
// runs) — the reference. Both share the per-sample seeds, so every statistic
// must agree EXACTLY (not approximately): a replay is the same realization,
// not a re-estimate. A partial cap mixes the two within one estimator.
#include "lcrb/sigma_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/sigma.h"
#include "util/rng.h"

namespace lcrb {
namespace {

SigmaConfig engine_cfg(DiffusionModel model, std::size_t samples = 24,
                       std::uint64_t seed = 11) {
  SigmaConfig cfg;
  cfg.samples = samples;
  cfg.seed = seed;
  cfg.max_hops = 32;
  cfg.model = model;
  return cfg;
}

/// No sample fits: every evaluation is a forward simulate() run.
SigmaConfig legacy_cfg(SigmaConfig cfg) {
  cfg.max_cache_bytes = 1;
  return cfg;
}

/// Draws `k` distinct protector candidates avoiding the rumor set.
std::vector<NodeId> random_protectors(Rng& rng, NodeId n,
                                      std::span<const NodeId> rumors,
                                      std::size_t k) {
  std::vector<NodeId> out;
  while (out.size() < k) {
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (std::find(rumors.begin(), rumors.end(), v) != rumors.end()) continue;
    if (std::find(out.begin(), out.end(), v) != out.end()) continue;
    out.push_back(v);
  }
  return out;
}

const DiffusionModel kCachedModels[] = {
    DiffusionModel::kOpoao, DiffusionModel::kDoam, DiffusionModel::kIc,
    DiffusionModel::kLt, DiffusionModel::kWc};

/// The estimator's per-sample seeds for `cfg`, for building a SigmaEngine
/// directly.
std::vector<std::uint64_t> sample_seeds(const SigmaConfig& cfg) {
  Rng master(cfg.seed);
  std::vector<std::uint64_t> seeds(cfg.samples);
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    seeds[i] = master.fork(i).next();
  }
  return seeds;
}

/// `base` followed by `extra`: the set lane `extra` evaluates.
std::vector<NodeId> with_extra(std::span<const NodeId> base, NodeId extra) {
  std::vector<NodeId> with(base.begin(), base.end());
  with.push_back(extra);
  return with;
}

/// The lcrb::Error message `f` throws, or "no error".
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(SigmaEngine, EngineOnByDefaultLegacyOnRequest) {
  // The default cap materializes every sample; a one-byte cap none.
  const DiGraph g = path_graph(6);
  for (DiffusionModel m : kCachedModels) {
    SigmaEstimator cached(g, {0}, {3, 4}, engine_cfg(m));
    EXPECT_GT(cached.realization_bytes(), 0u) << to_string(m);
    SigmaEstimator legacy(g, {0}, {3, 4}, legacy_cfg(engine_cfg(m)));
    EXPECT_EQ(legacy.realization_bytes(), 0u) << to_string(m);
  }
}

TEST(SigmaEngine, DoamMaterializesOneRealization) {
  // DOAM is deterministic: one realization serves every sample, so the
  // cache does not grow with the sample count.
  const DiGraph g = path_graph(6);
  SigmaEstimator one(g, {0}, {3, 4}, engine_cfg(DiffusionModel::kDoam, 1));
  SigmaEstimator eight(g, {0}, {3, 4}, engine_cfg(DiffusionModel::kDoam, 8));
  SigmaEstimator fifty(g, {0}, {3, 4}, engine_cfg(DiffusionModel::kDoam, 50));
  EXPECT_GT(one.realization_bytes(), 0u);
  EXPECT_EQ(one.realization_bytes(), eight.realization_bytes());
  EXPECT_EQ(one.realization_bytes(), fifty.realization_bytes());
  const NodeId a[] = {2};
  EXPECT_DOUBLE_EQ(eight.sigma(a), 2.0);  // DOAM on a path: 2 blocks 3 and 4
  EXPECT_GT(eight.nodes_visited(), 0u);

  // The replayed realization matches the forward kernel (cap 1) bit for bit:
  // sigma, protected fraction and the CELF greedy result.
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {40, 40, 40};
  cg_cfg.avg_inter_degree = 1.2;
  cg_cfg.seed = 23;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};
  const std::vector<NodeId> ends =
      find_bridge_ends(cg.graph, p, 0, rumors).bridge_ends;
  ASSERT_FALSE(ends.empty());
  const SigmaConfig cfg = engine_cfg(DiffusionModel::kDoam, 8);
  SigmaEstimator cached(cg.graph, rumors, ends, cfg);
  SigmaEstimator forward(cg.graph, rumors, ends, legacy_cfg(cfg));
  EXPECT_GT(cached.realization_bytes(), 0u);
  EXPECT_EQ(forward.realization_bytes(), 0u);
  Rng rng(43);
  for (std::size_t k = 0; k <= 4; ++k) {
    const std::vector<NodeId> s =
        random_protectors(rng, cg.graph.num_nodes(), rumors, k);
    EXPECT_EQ(cached.sigma(s), forward.sigma(s)) << "k " << k;
    EXPECT_EQ(cached.protected_fraction(s), forward.protected_fraction(s))
        << "k " << k;
  }
  GreedyConfig gc;
  gc.alpha = 0.9;
  gc.use_celf = true;
  gc.sigma = cfg;
  const GreedyResult r_cached = greedy_lcrbp(cg.graph, p, 0, rumors, gc);
  gc.sigma = legacy_cfg(cfg);
  const GreedyResult r_forward = greedy_lcrbp(cg.graph, p, 0, rumors, gc);
  EXPECT_FALSE(r_cached.protectors.empty());
  EXPECT_EQ(r_cached.protectors, r_forward.protectors);
  EXPECT_EQ(r_cached.gain_history, r_forward.gain_history);
  EXPECT_EQ(r_cached.achieved_fraction, r_forward.achieved_fraction);
  EXPECT_EQ(r_cached.sigma_evaluations, r_forward.sigma_evaluations);
}

TEST(SigmaEngine, CacheByteCapForcesLegacyPath) {
  const DiGraph g = path_graph(6);
  SigmaConfig cfg = engine_cfg(DiffusionModel::kOpoao);
  cfg.max_cache_bytes = 1;  // nothing fits
  SigmaEstimator est(g, {0}, {3, 4}, cfg);
  EXPECT_EQ(est.realization_bytes(), 0u);
  cfg.max_cache_bytes = 0;  // 0 disables the cap
  SigmaEstimator uncapped(g, {0}, {3, 4}, cfg);
  EXPECT_GT(uncapped.realization_bytes(), 0u);
  const NodeId a[] = {2};
  EXPECT_EQ(est.sigma(a), uncapped.sigma(a));
}

TEST(SigmaEngine, PartialCapMaterializesAPrefixAndMatches) {
  // A cap sized for half the samples: the first half replays, the rest
  // re-run forward, and every statistic matches cap 0 (all replayed) and
  // cap 1 (none) bit for bit.
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {40, 40, 40};
  cg_cfg.avg_inter_degree = 1.2;
  cg_cfg.seed = 23;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};
  const std::vector<NodeId> ends =
      find_bridge_ends(cg.graph, p, 0, rumors).bridge_ends;
  ASSERT_FALSE(ends.empty());
  Rng rng(41);

  for (DiffusionModel m : kCachedModels) {
    SigmaConfig uncapped = engine_cfg(m, 12);
    uncapped.max_cache_bytes = 0;
    SigmaConfig half = uncapped;
    half.samples = 6;
    SigmaConfig partial = uncapped;
    partial.max_cache_bytes = SigmaEngine::estimated_bytes(cg.graph, half);
    const SigmaConfig none = legacy_cfg(uncapped);

    SigmaEstimator all(cg.graph, rumors, ends, uncapped);
    SigmaEstimator some(cg.graph, rumors, ends, partial);
    SigmaEstimator forward(cg.graph, rumors, ends, none);
    EXPECT_LE(all.realization_bytes(),
              SigmaEngine::estimated_bytes(cg.graph, uncapped))
        << to_string(m);
    EXPECT_GT(some.realization_bytes(), 0u) << to_string(m);
    EXPECT_LE(some.realization_bytes(), partial.max_cache_bytes)
        << to_string(m);
    if (m == DiffusionModel::kDoam) {
      // One realization serves every sample, and half the budget holds it.
      EXPECT_EQ(some.realization_bytes(), all.realization_bytes());
    } else {
      EXPECT_LT(some.realization_bytes(), all.realization_bytes())
          << to_string(m);
    }
    EXPECT_EQ(forward.realization_bytes(), 0u) << to_string(m);

    EXPECT_EQ(some.baseline_infected(), all.baseline_infected());

    // Every cap, just at and just below each prefix's estimate.
    const std::vector<NodeId> probe =
        random_protectors(rng, cg.graph.num_nodes(), rumors, 3);
    for (std::size_t k = 1; k <= uncapped.samples; ++k) {
      SigmaConfig prefix = uncapped;
      prefix.samples = k;
      const std::size_t fits = SigmaEngine::estimated_bytes(cg.graph, prefix);
      for (std::size_t cap : {fits - 1, fits}) {
        SigmaConfig c = uncapped;
        c.max_cache_bytes = cap;
        SigmaEstimator e(cg.graph, rumors, ends, c);
        EXPECT_LE(e.realization_bytes(), cap) << to_string(m) << " k " << k;
        EXPECT_EQ(e.sigma(probe), all.sigma(probe))
            << to_string(m) << " k " << k;
      }
    }
    for (std::size_t k = 0; k <= 4; ++k) {
      const std::vector<NodeId> a =
          random_protectors(rng, cg.graph.num_nodes(), rumors, k);
      EXPECT_EQ(some.sigma(a), all.sigma(a)) << to_string(m) << " k " << k;
      EXPECT_EQ(some.sigma(a), forward.sigma(a)) << to_string(m);
      EXPECT_EQ(some.protected_fraction(a), all.protected_fraction(a))
          << to_string(m);
      EXPECT_EQ(some.protected_fraction(a), forward.protected_fraction(a))
          << to_string(m);
    }

    GreedyConfig gc;
    gc.alpha = 0.9;
    gc.use_celf = true;
    gc.sigma = partial;
    const GreedyResult r_some = greedy_lcrbp(cg.graph, p, 0, rumors, gc);
    gc.sigma = uncapped;
    const GreedyResult r_all = greedy_lcrbp(cg.graph, p, 0, rumors, gc);
    gc.sigma = none;
    const GreedyResult r_none = greedy_lcrbp(cg.graph, p, 0, rumors, gc);
    EXPECT_EQ(r_some.protectors, r_all.protectors) << to_string(m);
    EXPECT_EQ(r_some.gain_history, r_all.gain_history) << to_string(m);
    EXPECT_EQ(r_some.achieved_fraction, r_all.achieved_fraction);
    EXPECT_EQ(r_some.protectors, r_none.protectors) << to_string(m);
    EXPECT_EQ(r_some.gain_history, r_none.gain_history) << to_string(m);
    EXPECT_EQ(r_some.achieved_fraction, r_none.achieved_fraction);
  }
}

TEST(SigmaEngine, PathBlockingIsExact) {
  // Forced walk: every model must show protector 2 saving ends 3, 4, 5.
  const DiGraph g = path_graph(6);
  for (DiffusionModel m : kCachedModels) {
    SigmaEstimator est(g, {0}, {3, 4, 5}, engine_cfg(m));
    ASSERT_GT(est.realization_bytes(), 0u);
    const NodeId a[] = {2};
    EXPECT_DOUBLE_EQ(est.sigma(a), est.baseline_infected()) << to_string(m);
    EXPECT_DOUBLE_EQ(est.protected_fraction(a), 1.0) << to_string(m);
    EXPECT_DOUBLE_EQ(est.sigma({}), 0.0) << to_string(m);
  }
}

TEST(SigmaEngine, MatchesLegacyOnFixedSets) {
  Rng graph_rng(17);
  const DiGraph graphs[] = {path_graph(10), star_graph(12),
                            erdos_renyi(90, 0.05, true, graph_rng)};
  for (const DiGraph& g : graphs) {
    std::vector<NodeId> targets;
    for (NodeId v = g.num_nodes() / 2; v < g.num_nodes() / 2 + 8; ++v) {
      if (v < g.num_nodes()) targets.push_back(v);
    }
    for (DiffusionModel m : kCachedModels) {
      const SigmaConfig cfg = engine_cfg(m);
      SigmaEstimator cached(g, {0, 1}, targets, cfg);
      SigmaEstimator legacy(g, {0, 1}, targets, legacy_cfg(cfg));
      ASSERT_GT(cached.realization_bytes(), 0u);
      ASSERT_EQ(legacy.realization_bytes(), 0u);
      EXPECT_EQ(cached.baseline_infected(), legacy.baseline_infected())
          << to_string(m);
      const std::vector<std::vector<NodeId>> sets = {
          {}, {2}, {2, 3}, {4, 7, 8}};
      for (const auto& a : sets) {
        EXPECT_EQ(cached.sigma(a), legacy.sigma(a)) << to_string(m);
        EXPECT_EQ(cached.protected_fraction(a), legacy.protected_fraction(a))
            << to_string(m);
      }
    }
  }
}

TEST(SigmaEngine, MatchesLegacyRandomizedSweep) {
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    Rng rng(100 + trial);
    const DiGraph g = erdos_renyi(120, 0.04, true, rng);
    const std::vector<NodeId> rumors{0, 1, 2};
    std::vector<NodeId> targets;
    for (NodeId v = 60; v < 80; ++v) targets.push_back(v);
    for (DiffusionModel m : kCachedModels) {
      const SigmaConfig cfg = engine_cfg(m, 16, 7 + trial);
      SigmaEstimator cached(g, rumors, targets, cfg);
      SigmaEstimator legacy(g, rumors, targets, legacy_cfg(cfg));
      ASSERT_GT(cached.realization_bytes(), 0u);
      for (std::size_t k = 1; k <= 6; ++k) {
        const std::vector<NodeId> a =
            random_protectors(rng, g.num_nodes(), rumors, k);
        EXPECT_EQ(cached.sigma(a), legacy.sigma(a))
            << to_string(m) << " trial " << trial << " k " << k;
        EXPECT_EQ(cached.protected_fraction(a), legacy.protected_fraction(a))
            << to_string(m) << " trial " << trial << " k " << k;
      }
    }
  }
}

TEST(SigmaEngine, ParallelBitIdenticalToSerial) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  std::vector<NodeId> targets{40, 41, 42, 43, 44, 45};
  ThreadPool pool(4);
  for (DiffusionModel m : kCachedModels) {
    const SigmaConfig cfg = engine_cfg(m, 20);
    SigmaEstimator serial(g, {0}, targets, cfg);
    SigmaEstimator parallel(g, {0}, targets, cfg, &pool);
    ASSERT_GT(serial.realization_bytes(), 0u);
    ASSERT_GT(parallel.realization_bytes(), 0u);
    // Bit-identical, not just near: same slots, same fixed reduction order.
    EXPECT_EQ(serial.baseline_infected(), parallel.baseline_infected())
        << to_string(m);
    for (std::size_t k = 0; k <= 4; ++k) {
      const std::vector<NodeId> a =
          random_protectors(rng, g.num_nodes(), std::vector<NodeId>{0}, k + 1);
      EXPECT_EQ(serial.sigma(a), parallel.sigma(a)) << to_string(m);
      EXPECT_EQ(serial.protected_fraction(a), parallel.protected_fraction(a))
          << to_string(m);
    }
  }
}

TEST(SigmaEngine, LegacyParallelBitIdenticalToSerial) {
  // The ordered reduction also covers forward-evaluated samples.
  Rng rng(6);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  std::vector<NodeId> targets{30, 31, 32, 33};
  ThreadPool pool(4);
  const SigmaConfig cfg = legacy_cfg(engine_cfg(DiffusionModel::kOpoao, 16));
  SigmaEstimator serial(g, {0}, targets, cfg);
  SigmaEstimator parallel(g, {0}, targets, cfg, &pool);
  const NodeId a[] = {9, 12};
  EXPECT_EQ(serial.sigma(a), parallel.sigma(a));
  EXPECT_EQ(serial.baseline_infected(), parallel.baseline_infected());
}

TEST(SigmaEngine, CountsEvaluationsLikeLegacy) {
  const DiGraph g = path_graph(5);
  const SigmaConfig cfg = engine_cfg(DiffusionModel::kOpoao, 8);
  for (const SigmaConfig& c : {cfg, legacy_cfg(cfg)}) {
    SigmaEstimator est(g, {0}, {4}, c);
    EXPECT_EQ(est.evaluations(), 0u);
    (void)est.sigma({});
    EXPECT_EQ(est.evaluations(), 8u);
    const NodeId a[] = {2};
    (void)est.protected_fraction(a);
    EXPECT_EQ(est.evaluations(), 16u);
  }
}

TEST(SigmaEngine, RejectsInvalidProtectors) {
  const DiGraph g = path_graph(6);
  for (DiffusionModel m : kCachedModels) {
    SigmaEstimator est(g, {0}, {3, 4}, engine_cfg(m, 4));
    ASSERT_GT(est.realization_bytes(), 0u);
    const NodeId out_of_range[] = {99};
    EXPECT_THROW((void)est.sigma(out_of_range), Error) << to_string(m);
    const NodeId collides[] = {0};
    EXPECT_THROW((void)est.sigma(collides), Error) << to_string(m);
    const NodeId dup[] = {2, 2};
    EXPECT_THROW((void)est.sigma(dup), Error) << to_string(m);
  }
}

TEST(SigmaEngine, GreedyResultsIdenticalWithAndWithoutCache) {
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {40, 40, 40};
  cg_cfg.avg_inter_degree = 1.2;
  cg_cfg.seed = 23;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};

  for (DiffusionModel m : kCachedModels) {
    for (bool celf : {false, true}) {
      GreedyConfig on;
      on.alpha = 0.9;
      on.use_celf = celf;
      on.sigma = engine_cfg(m, 12);
      GreedyConfig off = on;
      off.sigma.max_cache_bytes = 1;  // every sample re-simulated
      const GreedyResult a = greedy_lcrbp(cg.graph, p, 0, rumors, on);
      const GreedyResult b = greedy_lcrbp(cg.graph, p, 0, rumors, off);
      // Same picks in the same order, same gains, same achieved fraction.
      EXPECT_EQ(a.protectors, b.protectors)
          << to_string(m) << (celf ? " celf" : " plain");
      EXPECT_EQ(a.gain_history, b.gain_history)
          << to_string(m) << (celf ? " celf" : " plain");
      EXPECT_EQ(a.achieved_fraction, b.achieved_fraction)
          << to_string(m) << (celf ? " celf" : " plain");
    }
  }
}

TEST(SigmaEngine, LanesMatchPerSetEvaluate) {
  // evaluate_lanes is evaluate() once per lane, bit for bit: on replayed
  // samples (OPOAO's lane kernel, lane by lane for the other models) and on
  // samples past a partial cap (simulate() per lane).
  Rng rng(71);
  const DiGraph g = erdos_renyi(150, 0.04, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2};
  std::vector<NodeId> ends;
  for (NodeId v = 60; v < 90; ++v) ends.push_back(v);
  std::vector<NodeId> extras;
  for (NodeId v = 3; v < 3 + kSigmaLanes; ++v) extras.push_back(v);
  for (DiffusionModel m : kCachedModels) {
    SigmaConfig all = engine_cfg(m, 6);
    SigmaConfig half = all;
    half.samples = 3;
    SigmaConfig partial = all;
    partial.max_cache_bytes = SigmaEngine::estimated_bytes(g, half);
    for (const SigmaConfig& cfg : {all, partial}) {
      const SigmaEngine engine(g, rumors, ends, sample_seeds(cfg), cfg,
                               nullptr);
      // Only a lane kernel with every sample materialized scores a full
      // lane word for about the price of one set.
      const bool cheap_lanes = m == DiffusionModel::kOpoao &&
                               cfg.max_cache_bytes == all.max_cache_bytes;
      EXPECT_EQ(engine.lanes_per_pass(), cheap_lanes ? kSigmaLanes : 1u)
          << to_string(m);
      for (const std::vector<NodeId>& base :
           {std::vector<NodeId>{}, std::vector<NodeId>{120, 121}}) {
        for (std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                  std::size_t{kSigmaLanes}}) {
          const std::span<const NodeId> lane_extras(extras.data(), lanes);
          for (std::size_t i = 0; i < cfg.samples; ++i) {
            std::vector<SigmaEngine::Outcome> out(lanes);
            engine.evaluate_lanes(i, base, lane_extras, out);
            for (std::size_t l = 0; l < lanes; ++l) {
              const SigmaEngine::Outcome o =
                  engine.evaluate(i, with_extra(base, lane_extras[l]));
              EXPECT_EQ(out[l].saved, o.saved)
                  << to_string(m) << " sample " << i << " lane " << l;
              EXPECT_EQ(out[l].uninfected, o.uninfected)
                  << to_string(m) << " sample " << i << " lane " << l;
            }
          }
        }
      }
    }
  }
}

template <class G>
void check_batch_sizes(const G& g, DiffusionModel m, bool capped) {
  const std::vector<NodeId> rumors{0, 1, 2};
  std::vector<NodeId> ends;
  for (NodeId v = 100; v < 140; ++v) ends.push_back(v);
  const NodeId base[] = {150, 151};
  std::vector<NodeId> candidates;
  for (NodeId v = 3; v < 3 + 130; ++v) candidates.push_back(v);
  SigmaConfig cfg = engine_cfg(m, 8);
  SigmaConfig half = cfg;
  half.samples = 4;
  if (capped) cfg.max_cache_bytes = SigmaEngine::estimated_bytes(g, half);
  const SigmaEstimator est(g, rumors, ends, cfg);
  for (std::size_t size : {1, 63, 64, 65, 130}) {
    const std::span<const NodeId> batch(candidates.data(), size);
    const std::size_t before = est.evaluations();
    const std::vector<SigmaEstimator::Score> scores =
        est.sigma_batch(base, batch);
    EXPECT_EQ(est.evaluations() - before, size * cfg.samples);
    ASSERT_EQ(scores.size(), size);
    for (std::size_t j = 0; j < size; ++j) {
      const std::vector<NodeId> with = with_extra(base, batch[j]);
      EXPECT_EQ(scores[j].sigma, est.sigma(with))
          << to_string(m) << " size " << size << " lane " << j;
      EXPECT_EQ(scores[j].protected_fraction, est.protected_fraction(with))
          << to_string(m) << " size " << size << " lane " << j;
    }
  }
  EXPECT_TRUE(est.sigma_batch(base, {}).empty());
  EXPECT_EQ(est.baseline_protected_fraction(), est.protected_fraction({}))
      << to_string(m);
}

TEST(SigmaEngine, BatchSizesMatchPerSetOnBothBackends) {
  // sigma_batch == per-set sigma()/protected_fraction() for every batch
  // size around the lane word: uncapped (OPOAO: 64-lane passes) and with a
  // cap that replays half the samples and re-simulates the rest.
  Rng rng(73);
  const DiGraph csr = erdos_renyi(220, 0.03, true, rng);
  const EfGraph ef = EfGraph::from_csr(csr);
  for (DiffusionModel m : kCachedModels) {
    for (bool capped : {false, true}) {
      check_batch_sizes(csr, m, capped);
      check_batch_sizes(ef, m, capped);
    }
  }
}

TEST(SigmaEngine, LaneSeedsRejectedLikeEvaluate) {
  // A bad extra in the middle of a batch throws exactly what evaluate()
  // throws for base + that extra, on replayed and forward samples alike.
  Rng rng(79);
  const DiGraph g = erdos_renyi(90, 0.05, true, rng);
  const std::vector<NodeId> rumors{0, 1};
  const std::vector<NodeId> ends{40, 41, 42, 43};
  const std::vector<NodeId> base{20, 21};
  const NodeId bad_extras[] = {21, 0, 500};  // duplicate, rumor, range
  for (DiffusionModel m : kCachedModels) {
    SigmaConfig cfg = engine_cfg(m, 4);
    SigmaConfig half = cfg;
    half.samples = 2;
    cfg.max_cache_bytes = SigmaEngine::estimated_bytes(g, half);
    const SigmaEngine engine(g, rumors, ends, sample_seeds(cfg), cfg,
                             nullptr);
    const SigmaEstimator est(g, rumors, ends, cfg);
    for (NodeId bad : bad_extras) {
      const std::vector<NodeId> with = with_extra(base, bad);
      const NodeId extras[] = {30, bad, 31};
      for (std::size_t i = 0; i < cfg.samples; ++i) {
        const std::string expected =
            error_of([&] { (void)engine.evaluate(i, with); });
        EXPECT_NE(expected, "no error") << to_string(m) << " extra " << bad;
        std::vector<SigmaEngine::Outcome> out(3);
        EXPECT_EQ(error_of([&] { engine.evaluate_lanes(i, base, extras, out); }),
                  expected)
            << to_string(m) << " sample " << i << " extra " << bad;
      }
      EXPECT_EQ(error_of([&] { (void)est.sigma_batch(base, extras); }),
                error_of([&] { (void)est.sigma(with); }))
          << to_string(m) << " extra " << bad;
    }
  }
}

TEST(SigmaEngine, SupportsAndSizing) {
  const DiGraph g = path_graph(100);
  for (DiffusionModel m : kCachedModels) {
    EXPECT_GT(SigmaEngine::estimated_bytes(g, engine_cfg(m)), 0u);
  }
  // A deterministic model's estimate counts one realization.
  const DiffusionModel doam = DiffusionModel::kDoam;
  EXPECT_EQ(SigmaEngine::estimated_bytes(g, engine_cfg(doam, 1)),
            SigmaEngine::estimated_bytes(g, engine_cfg(doam, 50)));
}

}  // namespace
}  // namespace lcrb
