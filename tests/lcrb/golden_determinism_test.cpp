// Golden determinism pins: byte-level hashes of the library's headline
// outputs — greedy/SCBG protector sequences (all sigma modes), gain
// histories, and the OPOAO pick trace — for fixed seeds, checked against
// values recorded in golden_hashes.inc. Every case is run serially, on a
// 1-thread pool and on a 4-thread pool, and all three runs must match the
// pinned hash.
//
// Purpose: any refactor of the diffusion kernels, the realization cache, the
// RR samplers, or the greedy loop that drifts a single byte of output fails
// here immediately — the tripwire behind the "outputs stay byte-identical"
// contract. If a change is *supposed* to alter outputs, regenerate the
// constants: run with --gtest_filter='Golden*' and LCRB_GOLDEN_PRINT=1 in
// the environment, and paste the printed lines into golden_hashes.inc.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <type_traits>

#include "diffusion/montecarlo.h"
#include "diffusion/opoao_traits.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/cldag.h"
#include "lcrb/greedy.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

struct GoldenEntry {
  const char* name;
  std::uint64_t hash;
};

constexpr GoldenEntry kGolden[] = {
#include "lcrb/golden_hashes.inc"
};

std::uint64_t golden_for(const std::string& name) {
  for (const GoldenEntry& e : kGolden) {
    if (name == e.name) return e.hash;
  }
  ADD_FAILURE() << "no golden entry named '" << name
                << "' — add it to golden_hashes.inc";
  return 0;
}

/// FNV-1a over the byte stream the case feeds in. Doubles are hashed by bit
/// pattern, so any floating-point drift (not just value drift) is caught.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void check_golden(const std::string& name, std::uint64_t hash) {
  if (std::getenv("LCRB_GOLDEN_PRINT") != nullptr) {
    printf("GOLDEN {\"%s\", 0x%016llxULL},\n", name.c_str(),
           static_cast<unsigned long long>(hash));
  }
  EXPECT_EQ(golden_for(name), hash) << "golden hash drifted for " << name;
}

/// Protectors, gain history and achieved fraction: the fields both greedy
/// engines (GreedyResult, RisGreedyResult) report alike.
template <class Result>
std::uint64_t hash_greedy(const Result& r) {
  Fnv h;
  h.u64(r.protectors.size());
  for (NodeId v : r.protectors) h.u32(v);
  h.u64(r.gain_history.size());
  for (double g : r.gain_history) h.f64(g);
  h.f64(r.achieved_fraction);
  return h.value();
}

std::uint64_t hash_multi(const MultiGreedyResult& r) {
  Fnv h;
  h.u64(r.groups.size());
  for (const std::vector<NodeId>& group : r.groups) {
    h.u64(group.size());
    for (NodeId v : group) h.u32(v);
  }
  h.u64(r.deployed.size());
  for (NodeId v : r.deployed) h.u32(v);
  h.u64(r.combined.gain_history.size());
  for (double g : r.combined.gain_history) h.f64(g);
  h.f64(r.combined.achieved_fraction);
  return h.value();
}

std::uint64_t hash_scbg(const ScbgResult& r) {
  Fnv h;
  h.u64(r.protectors.size());
  for (NodeId v : r.protectors) h.u32(v);
  h.u64(static_cast<std::uint64_t>(r.covered));
  return h.value();
}

template <class G>
BridgeEndResult bridges_on(const G& g, const std::vector<NodeId>& rumors,
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

// Parameterized over the storage backend: every pinned hash below must come
// out identical from the CSR and the Elias-Fano graph — the executable form
// of the "outputs are byte-identical across backends" contract.
template <class G>
class GoldenDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    DiGraph csr = erdos_renyi(120, 0.05, /*directed=*/true, rng);
    rumors_ = {0, 1, 2};
    std::vector<NodeId> ends;
    for (NodeId v = 10; v < 42; ++v) ends.push_back(v);
    bridges_ = bridges_on(csr, rumors_, std::move(ends));
    if constexpr (std::is_same_v<G, DiGraph>) {
      g_ = std::move(csr);
    } else {
      g_ = EfGraph::from_csr(csr);
    }
  }

  /// Runs the greedy serially and on 1- and 4-thread pools; all three must
  /// produce the same bytes, and those bytes must match the pinned hash.
  /// Returns the serial run's sigma_evaluations, which every run must share.
  std::size_t check_greedy(const std::string& name, const GreedyConfig& cfg) {
    const GreedyResult serial =
        greedy_lcrbp_from_bridges(g_, rumors_, bridges_, cfg, nullptr);
    ThreadPool one(1);
    const GreedyResult t1 =
        greedy_lcrbp_from_bridges(g_, rumors_, bridges_, cfg, &one);
    ThreadPool four(4);
    const GreedyResult t4 =
        greedy_lcrbp_from_bridges(g_, rumors_, bridges_, cfg, &four);
    EXPECT_EQ(hash_greedy(serial), hash_greedy(t1))
        << name << ": 1-thread run drifted from serial";
    EXPECT_EQ(hash_greedy(serial), hash_greedy(t4))
        << name << ": 4-thread run drifted from serial";
    EXPECT_EQ(serial.sigma_evaluations, t1.sigma_evaluations) << name;
    EXPECT_EQ(serial.sigma_evaluations, t4.sigma_evaluations) << name;
    check_golden(name, hash_greedy(serial));
    return serial.sigma_evaluations;
  }

  /// check_greedy for the RIS engine (RR-set max coverage, no cap).
  void check_ris(const std::string& name, double alpha, const RisConfig& cfg) {
    const RisGreedyResult serial =
        ris_greedy_from_bridges(g_, rumors_, bridges_, alpha, 0, cfg, nullptr);
    ThreadPool one(1);
    const RisGreedyResult t1 =
        ris_greedy_from_bridges(g_, rumors_, bridges_, alpha, 0, cfg, &one);
    ThreadPool four(4);
    const RisGreedyResult t4 =
        ris_greedy_from_bridges(g_, rumors_, bridges_, alpha, 0, cfg, &four);
    EXPECT_EQ(hash_greedy(serial), hash_greedy(t1))
        << name << ": 1-thread run drifted from serial";
    EXPECT_EQ(hash_greedy(serial), hash_greedy(t4))
        << name << ": 4-thread run drifted from serial";
    EXPECT_EQ(serial.rr_sets, t1.rr_sets) << name;
    EXPECT_EQ(serial.rr_sets, t4.rr_sets) << name;
    check_golden(name, hash_greedy(serial));
  }

  G g_;
  std::vector<NodeId> rumors_;
  BridgeEndResult bridges_;
};

using GraphBackends = ::testing::Types<DiGraph, EfGraph>;
TYPED_TEST_SUITE(GoldenDeterminismTest, GraphBackends);

TYPED_TEST(GoldenDeterminismTest, GreedyMcCacheOpoao) {
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kOpoao;
  // The oracle calls CELF consumes, pinned: batching the lazy
  // re-evaluations must not change how many the greedy counts.
  EXPECT_EQ(this->check_greedy("greedy_mc_cache_opoao", cfg), 5196u);
}

TYPED_TEST(GoldenDeterminismTest, GreedyMcPlainOpoao) {
  // The paper's plain greedy: every candidate re-scored every round.
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.use_celf = false;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kOpoao;
  this->check_greedy("greedy_mc_plain_opoao", cfg);
}

TYPED_TEST(GoldenDeterminismTest, GreedyMcCacheIc) {
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 10;
  cfg.sigma.seed = 13;
  cfg.sigma.model = DiffusionModel::kIc;
  cfg.sigma.ic_edge_prob = 0.3;
  this->check_greedy("greedy_mc_cache_ic", cfg);
}

TYPED_TEST(GoldenDeterminismTest, GreedyMcCacheLt) {
  GreedyConfig cfg;
  cfg.alpha = 0.7;
  cfg.sigma.samples = 10;
  cfg.sigma.seed = 17;
  cfg.sigma.model = DiffusionModel::kLt;
  this->check_greedy("greedy_mc_cache_lt", cfg);
}

TYPED_TEST(GoldenDeterminismTest, GreedyMcDoam) {
  GreedyConfig cfg;
  cfg.alpha = 0.8;
  cfg.sigma.samples = 4;  // DOAM is deterministic; samples collapse anyway
  cfg.sigma.seed = 3;
  cfg.sigma.model = DiffusionModel::kDoam;
  this->check_greedy("greedy_mc_doam", cfg);
}

TYPED_TEST(GoldenDeterminismTest, GreedyRisOpoao) {
  RisConfig cfg;
  cfg.model = DiffusionModel::kOpoao;
  cfg.seed = 9;
  cfg.initial_sets = 128;
  cfg.max_sets = 4096;
  this->check_ris("greedy_ris_opoao", 0.8, cfg);
}

TYPED_TEST(GoldenDeterminismTest, GreedyRisIc) {
  RisConfig cfg;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.25;
  cfg.seed = 21;
  cfg.initial_sets = 128;
  cfg.max_sets = 4096;
  this->check_ris("greedy_ris_ic", 0.7, cfg);
}

TYPED_TEST(GoldenDeterminismTest, GreedyRisDoam) {
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  cfg.seed = 5;
  cfg.initial_sets = 128;
  cfg.max_sets = 4096;
  this->check_ris("greedy_ris_doam", 0.8, cfg);
}

TYPED_TEST(GoldenDeterminismTest, ScbgSeedSet) {
  const ScbgResult r = scbg_from_bridges(this->g_, this->rumors_, this->bridges_);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* tp : {&one, &four}) {
    EXPECT_EQ(hash_scbg(scbg_from_bridges(this->g_, this->rumors_,
                                          this->bridges_, tp)),
              hash_scbg(r))
        << tp->thread_count() << "-thread run drifted from serial";
  }
  check_golden("scbg_seed_set", hash_scbg(r));
}

TYPED_TEST(GoldenDeterminismTest, KWaySimulationPins) {
  // K=3 multi-rumor forward runs (two rumor campaigns vs one protector
  // campaign) pinned for every model: final states, winning-cascade
  // attribution, and the per-cascade activation series. Guards the K-way
  // kernel the same way opoao_trace guards the K=2 path.
  const std::vector<std::vector<NodeId>> rumor_groups{{0, 1}, {2}};
  const std::vector<std::vector<NodeId>> protector_groups{{50, 51}};
  const SeedSets seeds = make_seed_sets(rumor_groups, protector_groups,
                                        CascadePriority::kFixedOrder);
  Fnv h;
  for (const DiffusionModel model :
       {DiffusionModel::kOpoao, DiffusionModel::kDoam, DiffusionModel::kIc,
        DiffusionModel::kLt, DiffusionModel::kWc}) {
    const DiffusionResult r =
        simulate(this->g_, seeds, 777, model,
                 {.max_hops = 31, .ic_edge_prob = 0.3});
    for (NodeState s : r.state) h.u32(static_cast<std::uint32_t>(s));
    for (std::uint8_t c : r.cascade) h.u32(c);
    h.u32(r.steps);
    h.u64(r.newly_by_cascade.size());
    for (const std::vector<std::uint32_t>& series : r.newly_by_cascade) {
      h.u64(series.size());
      for (std::uint32_t c : series) h.u32(c);
    }
  }
  check_golden("kway_sim_k3", h.value());
}

TYPED_TEST(GoldenDeterminismTest, MultiGreedyCoordinated) {
  GreedyConfig cfg;
  cfg.alpha = 1.0;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kOpoao;
  const std::vector<std::size_t> budgets{2, 2};
  const std::uint64_t serial = hash_multi(greedy_multi_from_bridges(
      this->g_, this->rumors_, this->bridges_, cfg, budgets, MultiCascadeMode::kCoordinated,
      nullptr));
  ThreadPool one(1);
  const std::uint64_t t1 = hash_multi(greedy_multi_from_bridges(
      this->g_, this->rumors_, this->bridges_, cfg, budgets, MultiCascadeMode::kCoordinated,
      &one));
  ThreadPool four(4);
  const std::uint64_t t4 = hash_multi(greedy_multi_from_bridges(
      this->g_, this->rumors_, this->bridges_, cfg, budgets, MultiCascadeMode::kCoordinated,
      &four));
  EXPECT_EQ(serial, t1) << "1-thread multi-greedy drifted from serial";
  EXPECT_EQ(serial, t4) << "4-thread multi-greedy drifted from serial";
  check_golden("multi_greedy_coordinated", serial);
}

TYPED_TEST(GoldenDeterminismTest, MultiGreedyUncoordinated) {
  GreedyConfig cfg;
  cfg.alpha = 1.0;
  cfg.sigma.samples = 12;
  cfg.sigma.seed = 9;
  cfg.sigma.model = DiffusionModel::kOpoao;
  const std::vector<std::size_t> budgets{2, 2};
  const std::uint64_t serial = hash_multi(greedy_multi_from_bridges(
      this->g_, this->rumors_, this->bridges_, cfg, budgets, MultiCascadeMode::kUncoordinated,
      nullptr));
  ThreadPool four(4);
  const std::uint64_t t4 = hash_multi(greedy_multi_from_bridges(
      this->g_, this->rumors_, this->bridges_, cfg, budgets, MultiCascadeMode::kUncoordinated,
      &four));
  EXPECT_EQ(serial, t4) << "4-thread multi-greedy drifted from serial";
  check_golden("multi_greedy_uncoordinated", serial);
}

TYPED_TEST(GoldenDeterminismTest, CldagSeedSet) {
  const CldagResult r =
      cldag_protectors(this->g_, this->rumors_, this->bridges_.bridge_ends, /*budget=*/4,
                       /*theta=*/1.0 / 320.0);
  Fnv h;
  h.u64(r.protectors.size());
  for (NodeId v : r.protectors) h.u32(v);
  h.u64(r.score_history.size());
  for (double s : r.score_history) h.f64(s);
  h.u64(r.ldag_nodes);
  h.u64(r.ldag_arcs);
  check_golden("cldag_seed_set", h.value());
}

TYPED_TEST(GoldenDeterminismTest, OpoaoTracePins) {
  SeedSets seeds;
  seeds.rumors = this->rumors_;
  seeds.protectors = {50, 51};
  OpoaoTrace trace;
  const DiffusionResult r = run_cascade<OpoaoTraits>(
      this->g_, seeds, 777, {.max_hops = 31}, &trace);
  Fnv h;
  h.u64(trace.picks.size());
  for (const OpoaoPick& p : trace.picks) {
    h.u32(p.step);
    h.u32(p.from);
    h.u32(p.to);
    h.u32(static_cast<std::uint32_t>(p.cascade));
    h.u32(p.activated ? 1u : 0u);
  }
  h.u64(r.infected_count());
  h.u64(r.protected_count());
  h.u32(r.steps);
  for (std::uint32_t c : r.newly_infected) h.u32(c);
  for (std::uint32_t c : r.newly_protected) h.u32(c);
  check_golden("opoao_trace", h.value());
}

}  // namespace
}  // namespace lcrb
