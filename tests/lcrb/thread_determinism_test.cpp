// Cross-thread determinism: the library's contract is that a fixed config
// seed produces bit-identical results whatever the thread count. These tests
// run the full LCRB-P greedy (both sigma modes) serially, on a 1-thread pool
// and on a 4-thread pool, and require byte-identical protector sequences and
// gain histories — the end-to-end check behind the fixed-order reduction
// convention (see tools/lcrb_analyze rule D2 and src/util/reduce.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ranges>
#include <vector>

#include "graph/generators.h"
#include "lcrb/bbst_matrix.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "lcrb/sigma.h"
#include "support/own_sigma.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

BridgeEndResult bridges_on(const DiGraph& g, const std::vector<NodeId>& rumors,
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

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what << " differs bitwise";
  }
}

class ThreadDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(211);
    g_ = erdos_renyi(90, 0.06, /*directed=*/true, rng);
    rumors_ = {0, 1};
    std::vector<NodeId> ends;
    for (NodeId v = 8; v < 30; ++v) ends.push_back(v);
    bridges_ = bridges_on(g_, rumors_, std::move(ends));
  }

  // Runs the greedy serially, on 1 thread and on 4 threads; all three runs
  // must agree byte for byte.
  void check(const GreedyConfig& cfg) {
    const GreedyResult serial =
        testutil::greedy_own(g_, rumors_, bridges_, cfg, nullptr);
    ThreadPool one(1);
    const GreedyResult t1 =
        testutil::greedy_own(g_, rumors_, bridges_, cfg, &one);
    ThreadPool four(4);
    const GreedyResult t4 =
        testutil::greedy_own(g_, rumors_, bridges_, cfg, &four);

    for (const GreedyResult* r : {&t1, &t4}) {
      EXPECT_EQ(serial.protectors, r->protectors);
      expect_bitwise_equal(serial.gain_history, r->gain_history,
                           "gain_history");
      EXPECT_EQ(serial.achieved_fraction, r->achieved_fraction);
      EXPECT_EQ(serial.sigma_evaluations, r->sigma_evaluations);
      EXPECT_EQ(serial.candidate_count, r->candidate_count);
    }
    EXPECT_FALSE(serial.protectors.empty());
  }

  // check() for the RIS engine.
  void check_ris(double alpha, const RisConfig& cfg) {
    const RisGreedyResult serial =
        testutil::ris_greedy_own(g_, rumors_, bridges_, alpha, 0, cfg, nullptr);
    ThreadPool one(1);
    const RisGreedyResult t1 =
        testutil::ris_greedy_own(g_, rumors_, bridges_, alpha, 0, cfg, &one);
    ThreadPool four(4);
    const RisGreedyResult t4 =
        testutil::ris_greedy_own(g_, rumors_, bridges_, alpha, 0, cfg, &four);

    for (const RisGreedyResult* r : {&t1, &t4}) {
      EXPECT_EQ(serial.protectors, r->protectors);
      expect_bitwise_equal(serial.gain_history, r->gain_history,
                           "gain_history");
      EXPECT_EQ(serial.achieved_fraction, r->achieved_fraction);
      EXPECT_EQ(serial.rr_sets, r->rr_sets);
      EXPECT_EQ(serial.distinct_candidates, r->distinct_candidates);
    }
    EXPECT_FALSE(serial.protectors.empty());
  }

  DiGraph g_;
  std::vector<NodeId> rumors_;
  BridgeEndResult bridges_;
};

TEST_F(ThreadDeterminismTest, McGreedyOpoaoIsThreadCountInvariant) {
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kOpoao;
  check(cfg);
}

TEST_F(ThreadDeterminismTest, McGreedyIcIsThreadCountInvariant) {
  // The IC live-edge cache, replayed from the pooled samples.
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 10;
  cfg.sigma.seed = 13;
  cfg.sigma.model = DiffusionModel::kIc;
  cfg.sigma.ic_edge_prob = 0.3;
  check(cfg);
}

TEST_F(ThreadDeterminismTest, McGreedyDoamIsThreadCountInvariant) {
  // DOAM materializes one realization that every sample replays, so the
  // pooled runs replay it concurrently.
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kDoam;
  check(cfg);
}

TEST_F(ThreadDeterminismTest, SigmaBatchAndCelfAreThreadCountInvariant) {
  // Batched gains run one task per (sample, 64-lane block) on the pool and
  // reduce per candidate in sample order: every score, and the CELF result
  // built on them, is the same with no pool, 1 thread and 4 threads. All
  // nodes are candidates, so batches span two lane blocks.
  GreedyConfig cfg;
  cfg.alpha = 0.9;
  cfg.candidates = CandidateStrategy::kAllNodes;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kOpoao;
  check(cfg);

  const NodeId base[] = {8};
  std::vector<NodeId> candidates;
  for (NodeId v = 2; v < g_.num_nodes(); ++v) {
    if (v != base[0]) candidates.push_back(v);
  }
  ASSERT_GT(candidates.size(), kSigmaLanes);
  auto flat = [&](ThreadPool* pool) {
    const SigmaEstimator est(g_, rumors_, bridges_.bridge_ends, cfg.sigma,
                             pool);
    std::vector<double> out;
    for (const SigmaEstimator::Score& s : est.sigma_batch(base, candidates)) {
      out.push_back(s.sigma);
      out.push_back(s.protected_fraction);
    }
    return out;
  };
  const std::vector<double> serial = flat(nullptr);
  ThreadPool one(1);
  ThreadPool four(4);
  expect_bitwise_equal(serial, flat(&one), "1-thread batch scores");
  expect_bitwise_equal(serial, flat(&four), "4-thread batch scores");
}

TEST_F(ThreadDeterminismTest, RisGreedyOpoaoIsThreadCountInvariant) {
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.seed = 9;
  cfg.initial_sets = 128;
  cfg.max_sets = 4096;
  check_ris(0.8, cfg);
}

TEST_F(ThreadDeterminismTest, RisGreedyIcBoundsAreThreadCountInvariant) {
  RisConfig cfg;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.25;
  cfg.seed = 21;
  cfg.initial_sets = 128;
  cfg.max_sets = 4096;

  const RisGreedyResult serial =
      testutil::ris_greedy_own(g_, rumors_, bridges_, 0.7, 0, cfg, nullptr);
  ThreadPool four(4);
  const RisGreedyResult t4 =
      testutil::ris_greedy_own(g_, rumors_, bridges_, 0.7, 0, cfg, &four);
  EXPECT_EQ(serial.protectors, t4.protectors);
  EXPECT_EQ(serial.rounds, t4.rounds);
  // The certified bounds are sums over preassigned RR-set slots — also
  // scheduling-invariant, bit for bit.
  EXPECT_EQ(serial.sigma_lower, t4.sigma_lower);
  EXPECT_EQ(serial.sigma_upper, t4.sigma_upper);
  EXPECT_EQ(serial.achieved_fraction, t4.achieved_fraction);
}

TEST_F(ThreadDeterminismTest, RisPoolGenerationIsThreadCountInvariant) {
  // Sharded parallel generation must produce byte-identical pools at 0/1/4
  // threads — same sets, same order, same counters — including when the
  // 4-thread pool grows in stages (different shard boundaries).
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.seed = 9;
  RrSampler sampler(g_, rumors_, bridges_.bridge_ends, cfg);

  RrPool serial;
  sampler.extend(serial, 0, 300);
  ASSERT_EQ(serial.num_sets(), 300u);
  EXPECT_NO_THROW(serial.validate());

  ThreadPool one(1);
  RrPool t1;
  sampler.extend(t1, 0, 300, &one);
  ThreadPool four(4);
  RrPool t4;
  sampler.extend(t4, 0, 300, &four);
  RrPool staged;  // different extend boundaries => different shard splits
  sampler.extend(staged, 0, 77, &four);
  sampler.extend(staged, 0, 300, &four);

  for (const RrPool* p : {&t1, &t4, &staged}) {
    ASSERT_EQ(p->num_sets(), serial.num_sets());
    EXPECT_EQ(p->num_null(), serial.num_null());
    EXPECT_EQ(p->total_entries(), serial.total_entries());
    EXPECT_EQ(p->nodes_visited(), serial.nodes_visited());
    for (std::size_t i = 0; i < serial.num_sets(); ++i) {
      const auto a = serial.set_nodes(i);
      const auto b = p->set_nodes(i);
      ASSERT_EQ(a.size(), b.size()) << "set " << i;
      if (!a.empty()) {
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(NodeId)),
                  0)
            << "set " << i << " differs bitwise";
      }
    }
  }
}

TEST_F(ThreadDeterminismTest, ScbgIsThreadCountInvariant) {
  // SCBG's bridge-end matrix is swept block by block: the matrix bytes and
  // the cover picked from it are identical with no pool, 1 thread and 4
  // threads.
  ThreadPool one(1);
  ThreadPool four(4);
  const BbstMatrix serial = build_bbst_matrix(g_, rumors_, bridges_);
  const ScbgResult want = scbg_from_bridges(g_, rumors_, bridges_);
  ASSERT_EQ(serial.num_ends(), bridges_.bridge_ends.size());
  EXPECT_FALSE(want.protectors.empty());
  for (ThreadPool* tp : {&one, &four}) {
    const BbstMatrix m = build_bbst_matrix(g_, rumors_, bridges_, tp);
    ASSERT_EQ(m.num_blocks(), serial.num_blocks());
    EXPECT_TRUE(std::ranges::equal(m.lane_ends(), serial.lane_ends()));
    for (std::size_t k = 0; k < serial.num_blocks(); ++k) {
      const auto a = serial.block_words(k);
      const auto b = m.block_words(k);
      ASSERT_EQ(a.size(), b.size()) << "block " << k;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0)
          << "block " << k << " words differ bitwise";
      EXPECT_TRUE(std::ranges::equal(serial.block_nodes(k), m.block_nodes(k)))
          << "block " << k;
    }
    const ScbgResult got = scbg_from_bridges(g_, rumors_, bridges_, tp);
    EXPECT_EQ(got.protectors, want.protectors);
    EXPECT_EQ(got.candidate_count, want.candidate_count);
  }
}

TEST_F(ThreadDeterminismTest, RisGreedyDoamIsThreadCountInvariant) {
  // Third model family through the same byte-identity harness (OPOAO and IC
  // are covered above): generation + selection, serial vs 1 vs 4 threads.
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  cfg.seed = 5;
  cfg.initial_sets = 128;
  cfg.max_sets = 4096;
  check_ris(0.8, cfg);
}

TEST_F(ThreadDeterminismTest, KWayMultiGreedyIsThreadCountInvariant) {
  // The multi-campaign greedy (both coordination modes) must honor the same
  // 0/1/4-thread byte-identity contract as the single-campaign selector:
  // identical per-campaign groups, deployed unions, and bitwise-equal gain
  // histories and achieved fractions.
  GreedyConfig cfg;
  cfg.alpha = 1.0;
  cfg.sigma.samples = 10;
  cfg.sigma.seed = 7;
  cfg.sigma.model = DiffusionModel::kOpoao;
  const std::vector<std::size_t> budgets{2, 1};
  for (const MultiCascadeMode mode :
       {MultiCascadeMode::kCoordinated, MultiCascadeMode::kUncoordinated}) {
    const MultiGreedyResult serial = testutil::greedy_multi_own(
        g_, rumors_, bridges_, cfg, budgets, mode, nullptr);
    ThreadPool one(1);
    const MultiGreedyResult t1 = testutil::greedy_multi_own(
        g_, rumors_, bridges_, cfg, budgets, mode, &one);
    ThreadPool four(4);
    const MultiGreedyResult t4 = testutil::greedy_multi_own(
        g_, rumors_, bridges_, cfg, budgets, mode, &four);
    for (const MultiGreedyResult* r : {&t1, &t4}) {
      EXPECT_EQ(serial.groups, r->groups) << to_string(mode);
      EXPECT_EQ(serial.deployed, r->deployed) << to_string(mode);
      expect_bitwise_equal(serial.combined.gain_history,
                           r->combined.gain_history, "multi gain_history");
      EXPECT_EQ(serial.combined.achieved_fraction,
                r->combined.achieved_fraction)
          << to_string(mode);
    }
    EXPECT_FALSE(serial.deployed.empty()) << to_string(mode);
  }
}

TEST_F(ThreadDeterminismTest, RepeatedPooledRunsAreIdentical) {
  // Same pool, same seed, run twice: nothing may leak between runs (scratch
  // reuse, counters) that changes the answer.
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 10;
  cfg.sigma.seed = 5;
  ThreadPool pool(4);
  const GreedyResult a =
      testutil::greedy_own(g_, rumors_, bridges_, cfg, &pool);
  const GreedyResult b =
      testutil::greedy_own(g_, rumors_, bridges_, cfg, &pool);
  EXPECT_EQ(a.protectors, b.protectors);
  expect_bitwise_equal(a.gain_history, b.gain_history, "gain_history");
  EXPECT_EQ(a.achieved_fraction, b.achieved_fraction);
}

}  // namespace
}  // namespace lcrb
