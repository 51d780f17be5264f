// Concurrency stress over the scratch-leasing evaluators: many external
// threads hammer SigmaEstimator::evaluate, RrSampler::rr_set and RrPool growth
// at once, asserting results stay byte-identical to a serial pass. Run under
// the CI tsan job, these are the tests that make scratch-pool reuse and
// inverted-index growth races visible.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "lcrb/ris.h"
#include "lcrb/sigma.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

constexpr std::size_t kThreads = 8;

TEST(SigmaEstimatorConcurrencyTest, ConcurrentEvaluateMatchesSerial) {
  Rng rng(101);
  const DiGraph g = erdos_renyi(120, 0.05, /*directed=*/true, rng);
  const std::vector<NodeId> rumors = {0, 1};
  std::vector<NodeId> ends;
  for (NodeId v = 10; v < 40; ++v) ends.push_back(v);

  for (DiffusionModel model :
       {DiffusionModel::kOpoao, DiffusionModel::kIc, DiffusionModel::kLt}) {
    SigmaConfig cfg;
    cfg.model = model;
    cfg.samples = 12;
    cfg.seed = 1000;
    cfg.ic_edge_prob = 0.25;
    const SigmaEstimator est(g, rumors, ends, cfg);

    const std::vector<std::vector<NodeId>> candidate_sets = {
        {5}, {5, 42}, {17, 23, 61}, {99}};
    // Serial reference pass.
    std::vector<SigmaEstimator::Outcome> want;
    for (std::size_t s = 0; s < cfg.samples; ++s) {
      for (const auto& a : candidate_sets) {
        want.push_back(est.evaluate(s, a));
      }
    }
    // kThreads workers replay the full grid repeatedly, leasing scratch
    // buffers concurrently; every outcome must match the serial pass.
    std::vector<std::thread> workers;
    std::vector<int> ok(kThreads, 0);
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        int good = 1;
        for (int round = 0; round < 3; ++round) {
          std::size_t k = 0;
          for (std::size_t s = 0; s < cfg.samples; ++s) {
            for (const auto& a : candidate_sets) {
              const auto got = est.evaluate(s, a);
              if (got.saved != want[k].saved ||
                  got.uninfected != want[k].uninfected) {
                good = 0;
              }
              ++k;
            }
          }
        }
        ok[t] = good;
      });
    }
    for (auto& w : workers) w.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(ok[t], 1) << to_string(model) << " thread " << t;
    }
  }
}

TEST(SigmaEstimatorConcurrencyTest, PooledSigmaMatchesSerialBitwise) {
  Rng rng(103);
  const DiGraph g = erdos_renyi(100, 0.06, true, rng);
  const std::vector<NodeId> rumors = {0, 1, 2};
  std::vector<NodeId> ends;
  for (NodeId v = 8; v < 30; ++v) ends.push_back(v);
  SigmaConfig cfg;
  cfg.samples = 16;
  cfg.seed = 77;

  const SigmaEstimator serial(g, rumors, ends, cfg, nullptr);
  ThreadPool tp(4);
  const SigmaEstimator pooled(g, rumors, ends, cfg, &tp);
  const std::vector<std::vector<NodeId>> sets = {{4}, {4, 33}, {50, 51, 52}};
  for (const auto& a : sets) {
    EXPECT_EQ(serial.sigma(a), pooled.sigma(a));  // bitwise: fixed-order sum
    EXPECT_EQ(serial.protected_fraction(a), pooled.protected_fraction(a));
  }
  EXPECT_EQ(serial.baseline_infected(), pooled.baseline_infected());
}

TEST(RrSamplerConcurrencyTest, ConcurrentRrSetsMatchSerial) {
  Rng rng(107);
  const DiGraph g = erdos_renyi(90, 0.07, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 5; v < 25; ++v) ends.push_back(v);

  for (DiffusionModel model :
       {DiffusionModel::kOpoao, DiffusionModel::kIc, DiffusionModel::kDoam}) {
    RisConfig cfg;
    cfg.model = model;
    cfg.ic_edge_prob = 0.3;
    RrSampler sampler(g, {0, 1}, ends, cfg);

    struct Job {
      std::size_t root;
      std::uint64_t seed;
    };
    std::vector<Job> jobs;
    std::vector<std::vector<NodeId>> want;
    for (std::size_t r = 0; r < ends.size(); ++r) {
      for (std::uint64_t s : {11ULL, 222ULL, 3333ULL}) {
        jobs.push_back({r, s});
        want.push_back(sampler.rr_set(r, s));
      }
    }
    std::vector<std::thread> workers;
    std::vector<int> ok(kThreads, 0);
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        int good = 1;
        for (int round = 0; round < 3; ++round) {
          for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (sampler.rr_set(jobs[j].root, jobs[j].seed) != want[j]) {
              good = 0;
            }
          }
        }
        ok[t] = good;
      });
    }
    for (auto& w : workers) w.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(ok[t], 1) << to_string(model) << " thread " << t;
    }
  }
}

TEST(RrPoolConcurrencyTest, ParallelExtendMatchesSerialByteForByte) {
  Rng rng(109);
  const DiGraph g = erdos_renyi(80, 0.08, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 4; v < 24; ++v) ends.push_back(v);
  RisConfig cfg;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.25;
  RrSampler sampler(g, {0, 1}, ends, cfg);

  RrPool serial;
  sampler.extend(serial, /*stream=*/0, /*target_sets=*/600);
  serial.validate();

  ThreadPool tp(4);
  RrPool parallel;
  // Grow in rounds like the adaptive loop does; every round appends into the
  // CSR and rebuilds the inverted index while workers generate concurrently.
  for (std::size_t target : {100u, 300u, 600u}) {
    sampler.extend(parallel, 0, target, &tp);
    parallel.validate();
  }
  ASSERT_EQ(parallel.num_sets(), serial.num_sets());
  EXPECT_EQ(parallel.num_null(), serial.num_null());
  EXPECT_EQ(parallel.total_entries(), serial.total_entries());
  for (std::size_t i = 0; i < serial.num_sets(); ++i) {
    const auto a = serial.set_nodes(i);
    const auto b = parallel.set_nodes(i);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << "set " << i;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = serial.sets_containing(v);
    const auto b = parallel.sets_containing(v);
    ASSERT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()))
        << "node " << v;
  }
}

TEST(RrPoolConcurrencyTest, ConcurrentCoverageQueriesOnFrozenPool) {
  // Readers share the pool with no locking once extend() returns; the
  // queries must agree with a serial pass (tsan checks the sharing is
  // genuinely read-only).
  Rng rng(113);
  const DiGraph g = erdos_renyi(70, 0.08, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 3; v < 20; ++v) ends.push_back(v);
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  RrSampler sampler(g, {0}, ends, cfg);
  RrPool pool;
  sampler.extend(pool, 0, 400);

  const std::vector<std::vector<NodeId>> sets = {{5}, {5, 12}, {8, 9, 10}};
  std::vector<double> want;
  for (const auto& a : sets) want.push_back(pool.coverage_fraction(a, true));
  std::vector<std::thread> workers;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      int good = 1;
      for (int round = 0; round < 10; ++round) {
        for (std::size_t j = 0; j < sets.size(); ++j) {
          if (pool.coverage_fraction(sets[j], true) != want[j]) good = 0;
        }
      }
      ok[t] = good;
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1);
}

}  // namespace
}  // namespace lcrb
