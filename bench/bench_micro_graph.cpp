// Microbenchmarks (google-benchmark): graph substrate throughput.
//
// The EfGraph entries double as the compressed-backend regression gate:
// tools/check_bench_graph.py reads the recorded BENCH_graph.json and fails
// CI when ef_bytes_per_arc exceeds 6, or when the EfGraph rows of
// BM_KernelTraversal or of BM_KernelOpoao's forward runs fall further
// behind the CSR rows than their bounds allow.
#include <benchmark/benchmark.h>


#include "build_guard.h"
#include "community/louvain.h"
#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "lcrb/bridge.h"
#include "lcrb/pipeline.h"
#include "lcrb/ris.h"
#include "util/rng.h"

namespace {

using namespace lcrb;

void BM_CsrBuild(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(1);
  // Pre-generate the arc list once; measure finalize() only.
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (EdgeId e = 0; e < static_cast<EdgeId>(n) * 8; ++e) {
    arcs.emplace_back(static_cast<NodeId>(rng.next_below(n)),
                      static_cast<NodeId>(rng.next_below(n)));
  }
  for (auto _ : state) {
    GraphBuilder b;
    b.reserve_nodes(n);
    b.reserve_edges(arcs.size());
    for (const auto& [u, v] : arcs) b.add_edge(u, v);
    DiGraph g = b.finalize();
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_BfsForward(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(2);
  const DiGraph g = erdos_renyi_m(n, static_cast<EdgeId>(n) * 8, true, rng);
  const NodeId src[] = {0};
  for (auto _ : state) {
    const BfsResult r = bfs_forward(g, src);
    benchmark::DoNotOptimize(r.dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BfsForward)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_BfsForwardEf(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(2);  // same seed as BM_BfsForward: identical topology, fair ratio
  const DiGraph csr = erdos_renyi_m(n, static_cast<EdgeId>(n) * 8, true, rng);
  const EfGraph g = EfGraph::from_csr(csr);
  const NodeId src[] = {0};
  for (auto _ : state) {
    const BfsResult r = bfs_forward(g, src);
    benchmark::DoNotOptimize(r.dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BfsForwardEf)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_EfCompress(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(2);
  const DiGraph csr = erdos_renyi_m(n, static_cast<EdgeId>(n) * 8, true, rng);
  for (auto _ : state) {
    EfGraph g = EfGraph::from_csr(csr);
    benchmark::DoNotOptimize(g.num_edges());
  }
  // Space ledger for the checker: both encodings' bytes-per-arc over the
  // same graph (CSR counts both directions' offset + endpoint arrays).
  const auto m = static_cast<double>(csr.num_edges());
  const EfGraph ef = EfGraph::from_csr(csr);
  const double csr_bytes =
      2.0 * ((csr.num_nodes() + 1.0) * sizeof(EdgeId) + m * sizeof(NodeId));
  state.counters["csr_bytes_per_arc"] = csr_bytes / m;
  state.counters["ef_bytes_per_arc"] =
      static_cast<double>(ef.memory_bytes()) / m;
}
BENCHMARK(BM_EfCompress)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// The diffusion kernel on each backend, identical topology and seeds. The
// items_per_second ratio of the /0 (CSR) and /1 (EfGraph) rows is the
// kernel-traversal regression the checker bounds at 2x: decode cost must
// stay amortized behind the kernel's RNG and state work.
template <class G>
void kernel_traversal(benchmark::State& state, const DiGraph& csr,
                      const G& g) {
  SeedSets seeds;
  seeds.rumors = {0, 1, 2, 3};
  RealizationParams params;
  params.ic_edge_prob = 0.2;  // dense-enough cascades to walk most arcs
  std::uint64_t run = 0;
  for (auto _ : state) {
    const DiffusionResult r = simulate(g, seeds, 1000 + (run++ % 16),
                                       DiffusionModel::kIc, params);
    benchmark::DoNotOptimize(r.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.num_edges()));
}

void BM_KernelTraversal(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const bool ef = state.range(1) != 0;
  Rng rng(2);
  const DiGraph csr = erdos_renyi_m(n, static_cast<EdgeId>(n) * 8, true, rng);
  if (ef) {
    kernel_traversal(state, csr, EfGraph::from_csr(csr));
  } else {
    kernel_traversal(state, csr, csr);
  }
  state.counters["ef"] = ef ? 1 : 0;
}
BENCHMARK(BM_KernelTraversal)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

// OPOAO on each backend over the Fig. 4 Hep analog (3 047 nodes at scale
// 0.2, rumors at 5% of the planted medium community), identical draws on
// both: rr:0 rows time forward runs from the rumor seeds (every active node
// picks a row entry per step), rr:1 rows time RR sets (phase 1 replays the
// rumor's picks, phase 2 probes in-neighbours' picks). A pick indexes a row
// where BM_KernelTraversal walks one, so these rows bound EF's random
// access; the checker gates the forward ef:1 / ef:0 ratio.
struct OpoaoSetup {
  OpoaoSetup() {
    DatasetSubstitute ds = make_hep_like(/*seed=*/1, /*scale=*/0.2);
    csr = std::move(ds.net.graph);
    ef = EfGraph::from_csr(csr);
    const Partition part(ds.net.membership);
    const auto nr = static_cast<std::size_t>(
        std::max<NodeId>(1, part.size_of(ds.planted_medium) / 20));
    ExperimentSetup ex =
        prepare_experiment(csr, part, ds.planted_medium, nr, /*seed=*/25);
    rumors = std::move(ex.rumors);
    bridge_ends = std::move(ex.bridges.bridge_ends);
  }
  OpoaoSetup(const OpoaoSetup&) = delete;
  OpoaoSetup& operator=(const OpoaoSetup&) = delete;

  DiGraph csr;
  EfGraph ef;
  std::vector<NodeId> rumors;
  std::vector<NodeId> bridge_ends;
};

const OpoaoSetup& opoao_setup() {
  static const OpoaoSetup setup;
  return setup;
}

template <class G>
void kernel_opoao(benchmark::State& state, const G& g, const OpoaoSetup& s,
                  bool rr) {
  constexpr std::uint64_t kDraws = 64;  // cycled, so both backends match
  std::uint64_t i = 0;
  if (rr) {
    RisConfig cfg;
    cfg.model = DiffusionModel::kOpoao;
    RrSampler sampler(g, s.rumors, s.bridge_ends, cfg);
    for (auto _ : state) {
      const RrSampler::Draw d = sampler.draw(0, i++ % kDraws);
      const std::vector<NodeId> set =
          sampler.rr_set(d.root_idx, d.realization_seed);
      benchmark::DoNotOptimize(set.data());
    }
  } else {
    SeedSets seeds;
    seeds.rumors = s.rumors;
    const RealizationParams params;  // the paper's 31 hops
    for (auto _ : state) {
      const DiffusionResult r = simulate(g, seeds, 1000 + i++ % kDraws,
                                         DiffusionModel::kOpoao, params);
      benchmark::DoNotOptimize(r.steps);
    }
  }
}

void BM_KernelOpoao(benchmark::State& state) {
  const bool rr = state.range(0) != 0;
  const bool ef = state.range(1) != 0;
  const OpoaoSetup& s = opoao_setup();
  if (ef) {
    kernel_opoao(state, s.ef, s, rr);
  } else {
    kernel_opoao(state, s.csr, s, rr);
  }
}
BENCHMARK(BM_KernelOpoao)
    ->ArgNames({"rr", "ef"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CommunityGenerator(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    CommunityGraphConfig cfg;
    cfg.community_sizes.assign(10, n / 10);
    cfg.seed = 3;
    CommunityGraph cg = make_community_graph(cfg);
    benchmark::DoNotOptimize(cg.graph.num_edges());
  }
}
BENCHMARK(BM_CommunityGenerator)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Louvain(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  CommunityGraphConfig cfg;
  cfg.community_sizes.assign(10, n / 10);
  cfg.seed = 4;
  const CommunityGraph cg = make_community_graph(cfg);
  for (auto _ : state) {
    Partition p = louvain(cg.graph);
    benchmark::DoNotOptimize(p.num_communities());
  }
}
BENCHMARK(BM_Louvain)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_BridgeEndDetection(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  CommunityGraphConfig cfg;
  cfg.community_sizes.assign(10, n / 10);
  cfg.seed = 5;
  const CommunityGraph cg = make_community_graph(cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};
  for (auto _ : state) {
    BridgeEndResult r = find_bridge_ends(cg.graph, p, 0, rumors);
    benchmark::DoNotOptimize(r.bridge_ends.size());
  }
}
BENCHMARK(BM_BridgeEndDetection)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  lcrb::bench::require_release_build("bench_micro_graph");
  benchmark::AddCustomContext("lcrb_build_type", lcrb::bench::kBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
