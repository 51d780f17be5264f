// RIS property tests (the Lemma 4 analogues on RR-set coverage):
//
//  * per-pool monotonicity and submodularity of the coverage objective,
//  * bit-identical pools and greedy output across thread counts,
//  * RR-set membership vs forward simulation: on the SAME coupled
//    realization, v in RR(b) must mean "seeding v saves b" — an equivalence
//    for IC and DOAM, an implication (soundness only) for OPOAO.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/ris.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

BridgeEndResult bridges_on(const DiGraph& g, std::vector<NodeId> rumors,
                           std::vector<NodeId> ends) {
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

RisConfig model_cfg(DiffusionModel m, std::uint64_t seed) {
  RisConfig cfg;
  cfg.model = m;
  cfg.seed = seed;
  cfg.ic_edge_prob = 0.35;
  return cfg;
}

TEST(RisPropertiesTest, CoverageIsMonotoneAndSubmodular) {
  Rng rng(101);
  for (DiffusionModel model :
       {DiffusionModel::kOpoao, DiffusionModel::kIc, DiffusionModel::kDoam}) {
    const DiGraph g = erdos_renyi(35, 0.12, /*directed=*/true, rng);
    std::vector<NodeId> ends;
    for (NodeId v = 2; v < 14; ++v) ends.push_back(v);
    RrSampler sampler(g, {0, 1}, ends, model_cfg(model, 7));
    RrPool pool;
    sampler.extend(pool, 0, 256);

    // Random chains A subset of B and a probe v outside B.
    Rng pick(202);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<NodeId> a, b;
      NodeId probe = kInvalidNode;
      for (NodeId v = 2; v < g.num_nodes(); ++v) {
        const std::uint64_t r = pick.next() % 4;
        if (r == 0) {
          a.push_back(v);
          b.push_back(v);
        } else if (r == 1) {
          b.push_back(v);
        } else if (r == 2 && probe == kInvalidNode) {
          probe = v;
        }
      }
      if (probe == kInvalidNode) continue;
      const double cov_a = pool.coverage_fraction(a, false);
      const double cov_b = pool.coverage_fraction(b, false);
      EXPECT_GE(cov_b, cov_a - 1e-12);  // monotone

      auto with = [&](std::vector<NodeId> s) {
        s.push_back(probe);
        return pool.coverage_fraction(s, false);
      };
      const double gain_a = with(a) - cov_a;
      const double gain_b = with(b) - cov_b;
      EXPECT_GE(gain_a, gain_b - 1e-12);  // submodular (diminishing returns)
    }
  }
}

TEST(RisPropertiesTest, PoolsAreBitIdenticalAcrossThreadCounts) {
  Rng rng(303);
  const DiGraph g = erdos_renyi(60, 0.08, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 3; v < 20; ++v) ends.push_back(v);
  for (DiffusionModel model :
       {DiffusionModel::kOpoao, DiffusionModel::kIc, DiffusionModel::kDoam}) {
    RrSampler sampler(g, {0, 1, 2}, ends, model_cfg(model, 13));
    ThreadPool tp1(1), tp4(4);
    RrPool serial, par1, par4;
    sampler.extend(serial, 0, 300, nullptr);
    sampler.extend(par1, 0, 300, &tp1);
    sampler.extend(par4, 0, 300, &tp4);
    ASSERT_EQ(serial.num_sets(), 300u);
    for (std::size_t i = 0; i < 300; ++i) {
      const auto s = serial.set_nodes(i);
      const std::vector<NodeId> expect(s.begin(), s.end());
      EXPECT_EQ(expect, std::vector<NodeId>(par1.set_nodes(i).begin(),
                                            par1.set_nodes(i).end()));
      EXPECT_EQ(expect, std::vector<NodeId>(par4.set_nodes(i).begin(),
                                            par4.set_nodes(i).end()));
    }
    EXPECT_EQ(serial.num_null(), par4.num_null());
    EXPECT_EQ(serial.total_entries(), par4.total_entries());
  }
}

TEST(RisPropertiesTest, GreedyIsBitIdenticalAcrossThreadCounts) {
  Rng rng(404);
  const DiGraph g = erdos_renyi(50, 0.09, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 2; v < 18; ++v) ends.push_back(v);
  const auto bridges = bridges_on(g, {0, 1}, ends);
  const std::vector<NodeId> rumors = {0, 1};
  RisConfig cfg = model_cfg(DiffusionModel::kOpoao, 19);
  cfg.initial_sets = 128;

  ThreadPool tp4(4);
  const auto serial = ris_greedy_from_bridges(g, rumors, bridges, 0.8, 0, cfg);
  const auto par = ris_greedy_from_bridges(g, rumors, bridges, 0.8, 0, cfg, &tp4);
  EXPECT_EQ(serial.protectors, par.protectors);
  EXPECT_DOUBLE_EQ(serial.achieved_fraction, par.achieved_fraction);
  EXPECT_EQ(serial.rr_sets, par.rr_sets);
  EXPECT_EQ(serial.rounds, par.rounds);
  EXPECT_DOUBLE_EQ(serial.sigma_lower, par.sigma_lower);
  EXPECT_DOUBLE_EQ(serial.sigma_upper, par.sigma_upper);
  EXPECT_EQ(serial.gain_history, par.gain_history);
}

// Forward check of one coupled realization: does seeding {v} actually save
// the root? Uses the same model knobs and the draw's realization seed, so
// the forward run realizes exactly the randomness the RR search inverted.
bool forward_saves(const DiGraph& g, const std::vector<NodeId>& rumors,
                   NodeId protector, NodeId root, std::uint64_t seed,
                   DiffusionModel model, const RisConfig& cfg) {
  const DiffusionResult r =
      simulate(g, SeedSets{rumors, std::vector<NodeId>{protector}}, seed,
               model, {cfg.max_hops, cfg.ic_edge_prob});
  return r.state[root] != NodeState::kInfected;
}

bool forward_baseline_infected(const DiGraph& g,
                               const std::vector<NodeId>& rumors, NodeId root,
                               std::uint64_t seed, DiffusionModel model,
                               const RisConfig& cfg) {
  const DiffusionResult r = simulate(g, SeedSets{rumors, {}}, seed, model,
                                     {cfg.max_hops, cfg.ic_edge_prob});
  return r.state[root] == NodeState::kInfected;
}

TEST(RisPropertiesTest, RrMembershipMatchesForwardSave) {
  Rng rng(505);
  for (int graph_trial = 0; graph_trial < 3; ++graph_trial) {
    const DiGraph g = erdos_renyi(14, 0.18, true, rng);
    const std::vector<NodeId> rumors = {0, 1};
    std::vector<NodeId> ends;
    for (NodeId v = 2; v < g.num_nodes(); ++v) ends.push_back(v);

    for (DiffusionModel model : {DiffusionModel::kOpoao, DiffusionModel::kIc,
                                 DiffusionModel::kDoam}) {
      const RisConfig cfg =
          model_cfg(model, 1000 + static_cast<std::uint64_t>(graph_trial));
      RrSampler sampler(g, rumors, ends, cfg);
      for (std::size_t index = 0; index < 6; ++index) {
        const auto d = sampler.draw(0, index);
        const NodeId root = ends[d.root_idx];
        const auto rr = sampler.rr_set(d.root_idx, d.realization_seed);

        const bool infected = forward_baseline_infected(
            g, rumors, root, d.realization_seed, model, cfg);
        // Null RR set <=> the rumor never reaches the root unopposed.
        EXPECT_EQ(rr.empty(), !infected)
            << "model " << static_cast<int>(model) << " root " << root;
        if (rr.empty()) continue;

        for (NodeId v = 2; v < g.num_nodes(); ++v) {
          const bool member =
              std::binary_search(rr.begin(), rr.end(), v);
          const bool saved = forward_saves(g, rumors, v, root,
                                           d.realization_seed, model, cfg);
          if (model == DiffusionModel::kOpoao) {
            // Sound but not complete: upstream starvation can save the root
            // through nodes the reverse pick search cannot certify.
            if (member) {
              EXPECT_TRUE(saved) << "OPOAO root " << root << " member " << v;
            }
          } else {
            EXPECT_EQ(member, saved)
                << "model " << static_cast<int>(model) << " root " << root
                << " candidate " << v;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcrb
