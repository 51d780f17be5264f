// Microbenchmarks (google-benchmark): sigma evaluation throughput per
// diffusion model, every sample replayed from the realization cache
// (Cached). items_processed counts single-sample evaluations, so
// items_per_second is directly "sigma evals/sec". DOAM is deterministic:
// its Cached run replays one realization for all samples. Lanes scores 64
// OPOAO sets per replay pass (SigmaEstimator::sigma_batch).
#include <benchmark/benchmark.h>

#include <vector>

#include "build_guard.h"
#include "graph/generators.h"
#include "lcrb/sigma.h"
#include "util/rng.h"

namespace {

using namespace lcrb;

DiGraph bench_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return erdos_renyi_m(n, static_cast<EdgeId>(n) * 8, true, rng);
}

SigmaConfig sigma_cfg(DiffusionModel model, std::size_t samples) {
  SigmaConfig cfg;
  cfg.samples = samples;
  cfg.seed = 13;
  cfg.max_hops = 31;
  cfg.model = model;
  return cfg;
}

void run_sigma_bench(benchmark::State& state, DiffusionModel model) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const DiGraph g = bench_graph(n, 6);
  const std::vector<NodeId> rumors{0, 1, 2, 3};
  std::vector<NodeId> targets;
  for (NodeId v = n / 4; v < n / 4 + 40; ++v) targets.push_back(v);

  const SigmaEstimator est(g, rumors, targets, sigma_cfg(model, samples));
  const NodeId protectors[] = {10, 11, 12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.sigma(protectors));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples));
}

void BM_SigmaCached_Opoao(benchmark::State& state) {
  run_sigma_bench(state, DiffusionModel::kOpoao);
}
void BM_SigmaCached_Doam(benchmark::State& state) {
  run_sigma_bench(state, DiffusionModel::kDoam);
}
void BM_SigmaCached_Ic(benchmark::State& state) {
  run_sigma_bench(state, DiffusionModel::kIc);
}
void BM_SigmaCached_Lt(benchmark::State& state) {
  run_sigma_bench(state, DiffusionModel::kLt);
}

// The batched form of BM_SigmaCached_Opoao: 64 gains per iteration, each
// base {10, 11} plus one candidate, all replayed in one lane-word pass per
// sample. items_processed counts single-sample evaluations (64 per sample),
// so items_per_second compares directly with the one-set-per-pass rows.
void BM_SigmaLanes_Opoao(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const DiGraph g = bench_graph(n, 6);
  const std::vector<NodeId> rumors{0, 1, 2, 3};
  std::vector<NodeId> targets;
  for (NodeId v = n / 4; v < n / 4 + 40; ++v) targets.push_back(v);
  const SigmaEstimator est(g, rumors, targets,
                           sigma_cfg(DiffusionModel::kOpoao, samples));
  const NodeId base[] = {10, 11};
  std::vector<NodeId> candidates;
  for (NodeId v = 12; v < 12 + kSigmaLanes; ++v) candidates.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.sigma_batch(base, candidates).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples * kSigmaLanes));
}

#define SIGMA_ARGS \
  Args({2000, 50})->Args({10000, 50})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_SigmaCached_Opoao)->SIGMA_ARGS;
BENCHMARK(BM_SigmaLanes_Opoao)->SIGMA_ARGS;
BENCHMARK(BM_SigmaCached_Doam)->SIGMA_ARGS;
BENCHMARK(BM_SigmaCached_Ic)->SIGMA_ARGS;
BENCHMARK(BM_SigmaCached_Lt)->SIGMA_ARGS;

// Construction cost of the realization cache (what greedy pays once before
// its thousands of evaluations).
void BM_SigmaEngineBuild(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const DiGraph g = bench_graph(n, 6);
  const std::vector<NodeId> rumors{0, 1, 2, 3};
  std::vector<NodeId> targets;
  for (NodeId v = n / 4; v < n / 4 + 40; ++v) targets.push_back(v);
  for (auto _ : state) {
    SigmaEstimator est(g, rumors, targets,
                       sigma_cfg(DiffusionModel::kOpoao, 50));
    benchmark::DoNotOptimize(est.baseline_infected());
  }
}
BENCHMARK(BM_SigmaEngineBuild)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  lcrb::bench::require_release_build("bench_micro_sigma");
  benchmark::AddCustomContext("lcrb_build_type", lcrb::bench::kBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
