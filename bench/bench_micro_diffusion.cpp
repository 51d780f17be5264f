// Microbenchmarks (google-benchmark): diffusion simulator throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "build_guard.h"
#include "diffusion/doam.h"
#include "diffusion/montecarlo.h"
#include "graph/generators.h"
#include "lcrb/sigma.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using namespace lcrb;

DiGraph bench_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return erdos_renyi_m(n, static_cast<EdgeId>(n) * 8, true, rng);
}

SeedSets bench_seeds(NodeId n) {
  SeedSets s;
  for (NodeId v = 0; v < 8; ++v) s.rumors.push_back(v);
  for (NodeId v = 8; v < 16 && v < n; ++v) s.protectors.push_back(v);
  return s;
}

void BM_DoamAnalyticSavedTest(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const DiGraph g = bench_graph(n, 3);
  const SeedSets seeds = bench_seeds(n);
  std::vector<NodeId> targets;
  for (NodeId v = 100; v < 200 && v < n; ++v) targets.push_back(v);
  for (auto _ : state) {
    auto saved = doam_saved(g, seeds, targets);
    benchmark::DoNotOptimize(saved.size());
  }
}
BENCHMARK(BM_DoamAnalyticSavedTest)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// The unified run_cascade<Traits> kernel behind the model-generic simulate()
// entry point (diffusion/kernel.h + model_traits.h), one benchmark per
// model: what every subsystem that dispatches on DiffusionModel pays,
// including the one switch hop.
void BM_Kernel(benchmark::State& state) {
  const auto model = static_cast<DiffusionModel>(state.range(0));
  const auto n = static_cast<NodeId>(state.range(1));
  const DiGraph g = bench_graph(n, 8);
  const SeedSets seeds = bench_seeds(n);
  const RealizationParams params{.max_hops = 31, .ic_edge_prob = 0.1};
  std::uint64_t s = 0;
  for (auto _ : state) {
    DiffusionResult r = simulate(g, seeds, ++s, model, params);
    benchmark::DoNotOptimize(r.infected_count());
  }
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Kernel)
    ->ArgsProduct({{static_cast<long>(DiffusionModel::kOpoao),
                    static_cast<long>(DiffusionModel::kDoam),
                    static_cast<long>(DiffusionModel::kIc),
                    static_cast<long>(DiffusionModel::kLt),
                    static_cast<long>(DiffusionModel::kWc)},
                   {10000}})
    ->Unit(benchmark::kMicrosecond);

void BM_MonteCarloSeries(benchmark::State& state) {
  const DiGraph g = bench_graph(2000, 5);
  const SeedSets seeds = bench_seeds(2000);
  MonteCarloConfig cfg;
  cfg.runs = static_cast<std::size_t>(state.range(0));
  cfg.max_hops = 31;
  ThreadPool pool;
  for (auto _ : state) {
    HopSeries s = monte_carlo_series(g, seeds, cfg, {}, &pool);
    benchmark::DoNotOptimize(s.final_infected_mean);
  }
}
BENCHMARK(BM_MonteCarloSeries)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_SigmaEvaluation(benchmark::State& state) {
  const DiGraph g = bench_graph(2000, 6);
  std::vector<NodeId> rumors{0, 1, 2, 3};
  std::vector<NodeId> targets;
  for (NodeId v = 500; v < 540; ++v) targets.push_back(v);
  SigmaConfig cfg;
  cfg.samples = static_cast<std::size_t>(state.range(0));
  const SigmaEstimator est(g, rumors, targets, cfg);
  const NodeId protectors[] = {10, 11, 12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.sigma(protectors));
  }
}
BENCHMARK(BM_SigmaEvaluation)
    ->Arg(10)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  lcrb::bench::require_release_build("bench_micro_diffusion");
  benchmark::AddCustomContext("lcrb_build_type", lcrb::bench::kBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
