// SigmaEstimator's replay of its materialized realizations, cross-checked
// against the forward oracle (tests/support/sigma_oracle.h: the simulate()
// kernel, run per sample with and without the protectors). Both share the
// per-sample seeds, so every statistic must agree EXACTLY (not
// approximately): a replay is the same realization, not a re-estimate. The
// lane and batch paths are checked against per-set evaluate().
#include "lcrb/sigma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "support/sigma_oracle.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace lcrb {
namespace {

using statcheck::oracle_sigma;

SigmaConfig engine_cfg(DiffusionModel model, std::size_t samples = 24,
                       std::uint64_t seed = 11) {
  SigmaConfig cfg;
  cfg.samples = samples;
  cfg.seed = seed;
  cfg.max_hops = 32;
  cfg.model = model;
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

TEST(SigmaReplay, EveryModelMaterializesWithinBound) {
  // Every model materializes its samples within the size bound, and the
  // replay scores a set as the forward oracle does.
  const DiGraph g = path_graph(6);
  const std::vector<NodeId> rumors{0};
  const std::vector<NodeId> ends{3, 4};
  for (DiffusionModel m : kCachedModels) {
    SigmaEstimator cached(g, rumors, ends, engine_cfg(m));
    EXPECT_GT(cached.realization_bytes(), 0u) << to_string(m);
    EXPECT_LE(cached.realization_bytes(), kMaxSigmaCacheBytes);
    const std::vector<NodeId> a{2};
    EXPECT_EQ(cached.sigma(a),
              oracle_sigma(g, rumors, ends, a, engine_cfg(m)).sigma)
        << to_string(m);
  }
}

TEST(SigmaReplay, DoamMaterializesOneRealization) {
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
  // The one realization is replayed once per set, not once per sample, yet
  // every sample counts as an evaluation.
  EXPECT_DOUBLE_EQ(one.sigma(a), 2.0);
  EXPECT_EQ(eight.nodes_visited(), one.nodes_visited());
  EXPECT_EQ(eight.evaluations(), 8u);
  const NodeId cands[] = {1, 2, 5};
  const std::vector<SigmaEstimator::Score> batch = fifty.sigma_batch({}, cands);
  EXPECT_EQ(fifty.evaluations(), 150u);
  for (std::size_t j = 0; j < 3; ++j) {
    const NodeId with[] = {cands[j]};
    EXPECT_EQ(batch[j].sigma, eight.sigma(with)) << cands[j];
    EXPECT_EQ(batch[j].uninfected, 50 * one.score(with).uninfected)
        << cands[j];
  }

  // The replayed realization matches the forward kernel bit for bit.
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
  EXPECT_GT(cached.realization_bytes(), 0u);
  Rng rng(43);
  for (std::size_t k = 0; k <= 4; ++k) {
    const std::vector<NodeId> s =
        random_protectors(rng, cg.graph.num_nodes(), rumors, k);
    const statcheck::OracleSigma ref =
        oracle_sigma(cg.graph, rumors, ends, s, cfg);
    EXPECT_EQ(cached.sigma(s), ref.sigma) << "k " << k;
    EXPECT_EQ(cached.protected_fraction(s), ref.protected_fraction)
        << "k " << k;
  }
}

TEST(SigmaReplay, PathBlockingIsExact) {
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

TEST(SigmaReplay, MatchesOracleOnFixedSets) {
  Rng graph_rng(17);
  const DiGraph graphs[] = {path_graph(10), star_graph(12),
                            erdos_renyi(90, 0.05, true, graph_rng)};
  for (const DiGraph& g : graphs) {
    std::vector<NodeId> targets;
    for (NodeId v = g.num_nodes() / 2; v < g.num_nodes() / 2 + 8; ++v) {
      if (v < g.num_nodes()) targets.push_back(v);
    }
    const std::vector<NodeId> rumors{0, 1};
    for (DiffusionModel m : kCachedModels) {
      const SigmaConfig cfg = engine_cfg(m);
      SigmaEstimator cached(g, rumors, targets, cfg);
      ASSERT_GT(cached.realization_bytes(), 0u);
      const std::vector<std::vector<NodeId>> sets = {
          {}, {2}, {2, 3}, {4, 7, 8}};
      for (const auto& a : sets) {
        const statcheck::OracleSigma ref =
            oracle_sigma(g, rumors, targets, a, cfg);
        EXPECT_EQ(cached.sigma(a), ref.sigma) << to_string(m);
        EXPECT_EQ(cached.protected_fraction(a), ref.protected_fraction)
            << to_string(m);
        EXPECT_EQ(cached.baseline_infected(), ref.baseline_infected)
            << to_string(m);
      }
    }
  }
}

TEST(SigmaReplay, MatchesOracleRandomizedSweep) {
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    Rng rng(100 + trial);
    const DiGraph g = erdos_renyi(120, 0.04, true, rng);
    const std::vector<NodeId> rumors{0, 1, 2};
    std::vector<NodeId> targets;
    for (NodeId v = 60; v < 80; ++v) targets.push_back(v);
    for (DiffusionModel m : kCachedModels) {
      const SigmaConfig cfg = engine_cfg(m, 16, 7 + trial);
      SigmaEstimator cached(g, rumors, targets, cfg);
      ASSERT_GT(cached.realization_bytes(), 0u);
      for (std::size_t k = 1; k <= 6; ++k) {
        const std::vector<NodeId> a =
            random_protectors(rng, g.num_nodes(), rumors, k);
        const statcheck::OracleSigma ref =
            oracle_sigma(g, rumors, targets, a, cfg);
        EXPECT_EQ(cached.sigma(a), ref.sigma)
            << to_string(m) << " trial " << trial << " k " << k;
        EXPECT_EQ(cached.protected_fraction(a), ref.protected_fraction)
            << to_string(m) << " trial " << trial << " k " << k;
        EXPECT_EQ(cached.baseline_infected(), ref.baseline_infected)
            << to_string(m) << " trial " << trial;
      }
    }
  }
}

TEST(SigmaReplay, ParallelBitIdenticalToSerial) {
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

TEST(SigmaReplay, RejectsInvalidProtectors) {
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

TEST(SigmaReplay, GreedyPrefixesMatchOracle) {
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {40, 40, 40};
  cg_cfg.avg_inter_degree = 1.2;
  cg_cfg.seed = 23;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};

  const BridgeEndResult bridges = find_bridge_ends(cg.graph, p, 0, rumors);
  const std::vector<NodeId>& ends = bridges.bridge_ends;
  ASSERT_FALSE(ends.empty());

  // Every prefix of the greedy's picks scores the same under the cache and
  // the forward oracle, and the achieved fraction is the oracle's protected
  // fraction of the final set.
  std::size_t picks = 0;
  for (DiffusionModel m : kCachedModels) {
    for (bool celf : {false, true}) {
      GreedyConfig gc;
      gc.alpha = 0.9;
      gc.use_celf = celf;
      gc.sigma = engine_cfg(m, 12);
      const GreedyResult r =
          greedy_lcrbp_from_bridges(cg.graph, rumors, bridges, gc);
      const SigmaEstimator est(cg.graph, rumors, ends, gc.sigma);
      const std::string label = to_string(m) + (celf ? " celf" : " plain");
      picks += r.protectors.size();
      for (std::size_t k = 0; k <= r.protectors.size(); ++k) {
        const std::span<const NodeId> prefix(r.protectors.data(), k);
        EXPECT_EQ(est.sigma(prefix),
                  oracle_sigma(cg.graph, rumors, ends, prefix, gc.sigma).sigma)
            << label << " prefix " << k;
      }
      EXPECT_EQ(r.achieved_fraction,
                oracle_sigma(cg.graph, rumors, ends, r.protectors, gc.sigma)
                    .protected_fraction)
          << label;
    }
  }
  EXPECT_GT(picks, 0u);
}

TEST(SigmaReplay, LanesMatchPerSetEvaluate) {
  // evaluate_lanes is evaluate() once per lane, bit for bit: OPOAO's lane
  // kernel, lane by lane for the other models.
  Rng rng(71);
  const DiGraph g = erdos_renyi(150, 0.04, true, rng);
  const std::vector<NodeId> rumors{0, 1, 2};
  std::vector<NodeId> ends;
  for (NodeId v = 60; v < 90; ++v) ends.push_back(v);
  std::vector<NodeId> extras;
  for (NodeId v = 3; v < 3 + kSigmaLanes; ++v) extras.push_back(v);
  for (DiffusionModel m : kCachedModels) {
    const SigmaConfig cfg = engine_cfg(m, 6);
    const SigmaEstimator est(g, rumors, ends, cfg);
    // Only a lane kernel scores a full lane word for about the price of
    // one set.
    EXPECT_EQ(est.lanes_per_pass(),
              m == DiffusionModel::kOpoao ? kSigmaLanes : 1u)
        << to_string(m);
    for (const std::vector<NodeId>& base :
         {std::vector<NodeId>{}, std::vector<NodeId>{120, 121}}) {
      for (std::size_t lanes :
           {std::size_t{1}, std::size_t{5}, std::size_t{kSigmaLanes}}) {
        const std::span<const NodeId> lane_extras(extras.data(), lanes);
        for (std::size_t i = 0; i < cfg.samples; ++i) {
          std::vector<SigmaEstimator::Outcome> out(lanes);
          est.evaluate_lanes(i, base, lane_extras, out);
          for (std::size_t l = 0; l < lanes; ++l) {
            const SigmaEstimator::Outcome o =
                est.evaluate(i, with_extra(base, lane_extras[l]));
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

template <class G>
void check_batch_sizes(const G& g, DiffusionModel m) {
  const std::vector<NodeId> rumors{0, 1, 2};
  std::vector<NodeId> ends;
  for (NodeId v = 100; v < 140; ++v) ends.push_back(v);
  const NodeId base[] = {150, 151};
  std::vector<NodeId> candidates;
  for (NodeId v = 3; v < 3 + 130; ++v) candidates.push_back(v);
  const SigmaConfig cfg = engine_cfg(m, 8);
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
      EXPECT_EQ(scores[j].uninfected, est.score(with).uninfected)
          << to_string(m) << " size " << size << " lane " << j;
    }
  }
  EXPECT_TRUE(est.sigma_batch(base, {}).empty());
  EXPECT_EQ(est.baseline_protected_fraction(), est.protected_fraction({}))
      << to_string(m);
}

TEST(SigmaReplay, BatchSizesMatchPerSetOnBothBackends) {
  // sigma_batch == per-set sigma()/protected_fraction() for every batch
  // size around the lane word (OPOAO: 64-lane passes).
  Rng rng(73);
  const DiGraph csr = erdos_renyi(220, 0.03, true, rng);
  const EfGraph ef = EfGraph::from_csr(csr);
  for (DiffusionModel m : kCachedModels) {
    check_batch_sizes(csr, m);
    check_batch_sizes(ef, m);
  }
}

TEST(SigmaReplay, LaneSeedsRejectedLikeEvaluate) {
  // A bad extra in the middle of a batch throws exactly what evaluate()
  // throws for base + that extra.
  Rng rng(79);
  const DiGraph g = erdos_renyi(90, 0.05, true, rng);
  const std::vector<NodeId> rumors{0, 1};
  const std::vector<NodeId> ends{40, 41, 42, 43};
  const std::vector<NodeId> base{20, 21};
  const NodeId bad_extras[] = {21, 0, 500};  // duplicate, rumor, range
  for (DiffusionModel m : kCachedModels) {
    const SigmaConfig cfg = engine_cfg(m, 4);
    const SigmaEstimator est(g, rumors, ends, cfg);
    for (NodeId bad : bad_extras) {
      const std::vector<NodeId> with = with_extra(base, bad);
      const NodeId extras[] = {30, bad, 31};
      for (std::size_t i = 0; i < cfg.samples; ++i) {
        const std::string expected =
            error_of([&] { (void)est.evaluate(i, with); });
        EXPECT_NE(expected, "no error") << to_string(m) << " extra " << bad;
        std::vector<SigmaEstimator::Outcome> out(3);
        EXPECT_EQ(error_of([&] { est.evaluate_lanes(i, base, extras, out); }),
                  expected)
            << to_string(m) << " sample " << i << " extra " << bad;
      }
      EXPECT_EQ(error_of([&] { (void)est.sigma_batch(base, extras); }),
                error_of([&] { (void)est.sigma(with); }))
          << to_string(m) << " extra " << bad;
    }
  }
}

TEST(SigmaReplay, FootprintPerModelAndSample) {
  const DiGraph g = path_graph(100);
  auto footprint = [&](DiffusionModel m, std::size_t samples) {
    return SigmaEstimator::check_footprint(g, 2, engine_cfg(m, samples),
                                           "sigma_samples");
  };
  for (DiffusionModel m : kCachedModels) {
    EXPECT_GT(footprint(m, 24), 0u) << to_string(m);
  }
  // A deterministic model's estimate counts one realization: DOAM and IC
  // share the live-edge bound for one sample, and past it DOAM's grows only
  // by each sample's seed and baseline (bitset over the 2 targets and
  // infected count).
  const DiffusionModel doam = DiffusionModel::kDoam;
  const DiffusionModel ic = DiffusionModel::kIc;
  EXPECT_EQ(footprint(doam, 1), footprint(ic, 1));
  const std::size_t per_sample = sizeof(std::uint64_t) +
                                 sizeof(DynamicBitset) +
                                 sizeof(std::uint64_t) + sizeof(std::uint32_t);
  EXPECT_EQ(footprint(doam, 50) - footprint(doam, 1), 49 * per_sample);
  EXPECT_GT(footprint(ic, 50) - footprint(ic, 1), 49 * per_sample);
}

}  // namespace
}  // namespace lcrb
