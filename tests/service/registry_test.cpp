#include "service/session.h"

#include <gtest/gtest.h>

#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "lcrb/pipeline.h"

namespace lcrb::service {
namespace {

struct RegistryFixture : public ::testing::Test {
  void SetUp() override {
    CommunityGraphConfig cfg;
    cfg.community_sizes = {40, 40, 40};
    cfg.avg_intra_degree = 6.0;
    cfg.avg_inter_degree = 1.0;
    cfg.seed = 5;
    cg = make_community_graph(cfg);
    p = Partition(cg.membership);
  }

  /// The session's memoized setup for `seed`, built and kept on a miss.
  ExperimentSetup setup_for(GraphSession& s, std::uint64_t seed,
                            bool* hit = nullptr) {
    const std::string key = make_setup_key({}, 0, 4, seed);
    std::shared_ptr<const ExperimentSetup> setup = s.find_setup(key);
    if (hit != nullptr) *hit = setup != nullptr;
    if (setup == nullptr) {
      setup = std::make_shared<const ExperimentSetup>(
          prepare_experiment(s.graph(), s.partition(), 0, 4, seed));
      s.keep_setup(key, setup);
    }
    return *setup;
  }

  CommunityGraph cg;
  Partition p;
};

TEST_F(RegistryFixture, SessionRejectsMismatchedPartition) {
  Partition small(std::vector<CommunityId>{0, 0, 1});
  EXPECT_THROW(GraphSession("x", cg.graph, small), Error);
}

TEST_F(RegistryFixture, SetupCacheHitsOnRepeat) {
  GraphSession s("ds", cg.graph, p);
  bool hit = true;
  const ExperimentSetup a = setup_for(s, 17, &hit);
  EXPECT_FALSE(hit);
  const ExperimentSetup b = setup_for(s, 17, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.rumors, b.rumors);
  // A different seed is a different key.
  setup_for(s, 18, &hit);
  EXPECT_FALSE(hit);
}

TEST_F(RegistryFixture, EstimatorAndRisContextsAreKeyedByKnobs) {
  GraphSession s("ds", cg.graph, p);
  const ExperimentSetup setup = setup_for(s, 17);
  const std::string key = make_setup_key({}, 0, 4, 17);

  SigmaConfig sc;
  sc.samples = 5;
  bool hit = true;
  const auto e1 = s.estimator_for(key, setup, sc, nullptr, &hit);
  EXPECT_FALSE(hit);
  const auto e2 = s.estimator_for(key, setup, sc, nullptr, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(e1.get(), e2.get());
  sc.seed += 1;  // draw-shaping knob -> different estimator
  s.estimator_for(key, setup, sc, nullptr, &hit);
  EXPECT_FALSE(hit);

  RisConfig rc;
  rc.initial_sets = 32;
  rc.max_sets = 256;
  const auto c1 = s.ris_context_for(key, setup, rc, &hit);
  EXPECT_FALSE(hit);
  // Accuracy knobs don't shape draws: pools are shared across them.
  rc.epsilon = 0.3;
  rc.max_sets = 1024;
  const auto c2 = s.ris_context_for(key, setup, rc, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(c1.get(), c2.get());
  rc.seed += 1;  // draw-shaping knob -> new pools
  s.ris_context_for(key, setup, rc, &hit);
  EXPECT_FALSE(hit);
}

TEST_F(RegistryFixture, MemoryGrowsWithWarmStateAndShedsClean) {
  GraphSession s("ds", cg.graph, p);
  const std::size_t base = s.memory_bytes();
  EXPECT_GT(base, 0u);
  const ExperimentSetup setup = setup_for(s, 17);
  SigmaConfig sc;
  sc.samples = 5;
  s.estimator_for(make_setup_key({}, 0, 4, 17), setup, sc, nullptr, nullptr);
  EXPECT_GT(s.memory_bytes(), base);
}

TEST_F(RegistryFixture, ResultCacheStoresCanonicalEntries) {
  GraphSession s("ds", cg.graph, p);
  QueryRequest req;
  req.dataset = "ds";
  req.id = "caller-1";
  req.deadline_ms = 250;
  const std::string key = make_result_key(req);
  // Caller-varying fields don't split the key space.
  QueryRequest other = req;
  other.id = "caller-2";
  other.deadline_ms = -1;
  EXPECT_EQ(make_result_key(other), key);
  other.rumor_seed += 1;
  EXPECT_NE(make_result_key(other), key);

  EXPECT_EQ(s.cached_result(key), nullptr);
  const std::size_t before = s.memory_bytes();
  QueryResult r;
  r.id = "caller-1";
  r.dataset = "ds";
  r.protectors = {4, 5};
  s.store_result(key, r);
  const auto cached = s.cached_result(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->id.empty());  // re-stamped per caller on replay
  EXPECT_EQ(cached->protectors, r.protectors);
  EXPECT_GT(s.memory_bytes(), before);
}

TEST_F(RegistryFixture, CompressedSessionReportsSmallerFootprint) {
  GraphSession csr("csr", cg.graph, p);
  GraphSession ef("ef", EfGraph::from_csr(cg.graph), p);
  EXPECT_EQ(csr.backend(), GraphBackend::kCsr);
  EXPECT_EQ(ef.backend(), GraphBackend::kEf);
  // Same graph, same partition: the only delta is the adjacency encoding,
  // and the Elias-Fano form must be the smaller one.
  EXPECT_LT(ef.memory_bytes(), csr.memory_bytes());
  // The compressed session still serves queries: same setup, same rumors.
  const ExperimentSetup a = setup_for(csr, 17);
  const ExperimentSetup b = setup_for(ef, 17);
  EXPECT_EQ(a.rumors, b.rumors);
  EXPECT_EQ(a.bridges.bridge_ends, b.bridges.bridge_ends);
}

TEST_F(RegistryFixture, CompressedSessionsEvictUnderBytePressure) {
  SessionRegistry reg;
  reg.open("a", EfGraph::from_csr(cg.graph), p);
  reg.open("b", EfGraph::from_csr(cg.graph), p);
  reg.open("c", EfGraph::from_csr(cg.graph), p);
  EXPECT_NE(reg.find("a"), nullptr);  // a is now newer than b and c
  const std::size_t one = reg.resident_bytes() / 3;
  reg.set_max_bytes(reg.resident_bytes() - one);  // room for two sessions
  EXPECT_EQ(reg.datasets(), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(reg.stats().evictions, 1u);
  // A budget sized for the CSR encoding holds more compressed sessions: the
  // two survivors fit where at most one uncompressed session would.
  const std::size_t csr_bytes =
      GraphSession("x", cg.graph, p).memory_bytes();
  EXPECT_LT(reg.resident_bytes(), 2 * csr_bytes);
}

TEST_F(RegistryFixture, MakeSetupKeyDistinguishesRumorChoices) {
  EXPECT_EQ(make_setup_key({1, 2, 3}, 0, 4, 17),
            make_setup_key({1, 2, 3}, 9, 8, 99));  // explicit ids win
  EXPECT_NE(make_setup_key({1, 2, 3}, 0, 4, 17),
            make_setup_key({1, 2, 4}, 0, 4, 17));
  EXPECT_NE(make_setup_key({}, 0, 4, 17), make_setup_key({}, 0, 4, 18));
  EXPECT_NE(make_setup_key({}, 0, 4, 17), make_setup_key({}, 1, 4, 17));
  EXPECT_NE(make_setup_key({}, 0, 4, 17), make_setup_key({}, 0, 5, 17));
}

TEST_F(RegistryFixture, ReopenReturnsTheExistingSession) {
  SessionRegistry reg;
  const auto a = reg.open("ds", cg.graph, p);
  const auto b = reg.open("ds", cg.graph, p);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(reg.datasets(), std::vector<std::string>{"ds"});
  EXPECT_TRUE(reg.close("ds"));
  EXPECT_FALSE(reg.close("ds"));
  EXPECT_EQ(reg.find("ds"), nullptr);
}

TEST_F(RegistryFixture, FindCountsHitsAndMisses) {
  SessionRegistry reg;
  reg.open("ds", cg.graph, p);
  EXPECT_NE(reg.find("ds"), nullptr);
  EXPECT_EQ(reg.find("nope"), nullptr);
  const SessionRegistry::Stats st = reg.stats();
  EXPECT_EQ(st.sessions, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST_F(RegistryFixture, PinnedSessionsSurviveBytePressure) {
  SessionRegistry reg;
  auto a = reg.open("a", cg.graph, p);
  auto b = reg.open("b", cg.graph, p);
  // Over budget, but both sessions are pinned by our shared_ptrs: the
  // registry tolerates the overshoot instead of failing queries.
  reg.set_max_bytes(reg.resident_bytes() - 1);
  EXPECT_EQ(reg.datasets().size(), 2u);
  EXPECT_EQ(reg.stats().evictions, 0u);

  // Unpin the older session; the next lookup rebalances and evicts it.
  a.reset();
  EXPECT_NE(reg.find("b"), nullptr);
  EXPECT_EQ(reg.datasets(), std::vector<std::string>{"b"});
  EXPECT_EQ(reg.stats().evictions, 1u);
  EXPECT_EQ(reg.find("a"), nullptr);  // evicted; callers re-open
}

TEST_F(RegistryFixture, EvictionIsLeastRecentlyUsed) {
  SessionRegistry reg;
  reg.open("a", cg.graph, p);
  reg.open("b", cg.graph, p);
  reg.open("c", cg.graph, p);
  EXPECT_NE(reg.find("a"), nullptr);  // a is now newer than b and c
  const std::size_t one = reg.resident_bytes() / 3;
  reg.set_max_bytes(reg.resident_bytes() - one);  // room for two sessions
  EXPECT_EQ(reg.datasets(), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(reg.stats().evictions, 1u);
}

TEST_F(RegistryFixture, WarmStateCountsTowardTheBudget) {
  SessionRegistry reg;
  reg.open("a", cg.graph, p);
  reg.open("b", cg.graph, p);
  reg.set_max_bytes(reg.resident_bytes() + 1024);  // snug but under

  // Growing session b's warm state pushes the registry over; the next
  // lookup of b evicts idle a (b itself is pinned by the lookup).
  {
    const auto b = reg.find("b");
    const ExperimentSetup setup = setup_for(*b, 17);
    SigmaConfig sc;
    sc.samples = 8;
    b->estimator_for(make_setup_key({}, 0, 4, 17), setup, sc, nullptr,
                     nullptr);
  }
  EXPECT_NE(reg.find("b"), nullptr);
  EXPECT_EQ(reg.datasets(), std::vector<std::string>{"b"});
  EXPECT_EQ(reg.stats().evictions, 1u);
}

}  // namespace
}  // namespace lcrb::service
