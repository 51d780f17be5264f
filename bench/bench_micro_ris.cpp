// MC-vs-RIS ablation (google-benchmark): the LCRB-P greedy with the
// Monte-Carlo SigmaEstimator against SigmaMode::kRis on the paper-figure
// analogs (Fig. 4: Hep under OPOAO; Fig. 7: Hep under DOAM), tiny scale.
//
// Counters:
//   visits_per_seed   sigma node-touch operations / protectors selected —
//                     the common cost currency of both modes
//   visit_ratio       MC visits_per_seed / RIS visits_per_seed (the
//                     acceptance bar is >= 5)
//   sigma_mc_ref,     both protector sets scored by one fresh reference
//   sigma_ris_ref     MC estimator on common random numbers
//   agreement_ok      1 when |sigma_mc_ref - sigma_ris_ref| <=
//                     eps * |B| + Hoeffding tolerance (matches the stat
//                     test's check)
//
// Regenerate the committed record with:
//   ./build/bench/bench_micro_ris --benchmark_out=bench/BENCH_ris.json
//       --benchmark_out_format=json   (both flags on one line)
#include <benchmark/benchmark.h>

#include <cmath>

#include "build_guard.h"
#include "community/partition.h"
#include "graph/generators.h"
#include "lcrb/options.h"
#include "lcrb/pipeline.h"
#include "lcrb/ris.h"
#include "lcrb/sigma.h"
#include "util/threadpool.h"

namespace {

using namespace lcrb;

constexpr double kScale = 0.1;
constexpr double kRisEpsilon = 0.1;

/// Hep-like dataset with rumors planted in the paper's medium community at
/// the 5%-of-|C| figure point — the shared substrate of Fig. 4 / Fig. 7.
/// Built in place (as a function-local static) because `ex` references
/// `graph`.
struct FigureSetup {
  FigureSetup() {
    DatasetSubstitute ds = make_hep_like(/*seed=*/1, kScale);
    graph = std::move(ds.net.graph);
    const Partition part(ds.net.membership);
    const NodeId csize = part.size_of(ds.planted_medium);
    const auto nr =
        static_cast<std::size_t>(std::max<NodeId>(2, csize / 20));
    ex = prepare_experiment(graph, part, ds.planted_medium, nr, 102);
    ex.partition = nullptr;  // `part` is gone; selection never reads it
    budget = ex.rumors.size();
  }
  FigureSetup(const FigureSetup&) = delete;
  FigureSetup& operator=(const FigureSetup&) = delete;

  DiGraph graph;
  ExperimentSetup ex;
  std::size_t budget = 0;
};

LcrbOptions mode_opts(DiffusionModel model, SigmaMode mode,
                      std::size_t budget) {
  LcrbOptions opts;
  opts.alpha = 0.95;
  opts.budget = budget;
  opts.max_candidates = 300;
  opts.model = model;
  opts.sigma_samples = (model == DiffusionModel::kDoam) ? 4 : 20;
  opts.sigma_seed = 9;
  opts.sigma_mode = mode;
  opts.ris_epsilon = kRisEpsilon;
  opts.ris_initial_sets = 256;  // the doubling rule grows it when needed
  opts.ris_max_sets = std::size_t{1} << 14;
  return opts;
}

double visits_per_seed(const Selection& r) {
  return r.protectors.empty()
             ? 0.0
             : static_cast<double>(r.nodes_visited) /
                   static_cast<double>(r.protectors.size());
}

void run_select(benchmark::State& state, DiffusionModel model,
                SigmaMode mode) {
  static const FigureSetup setup;
  const LcrbOptions opts = mode_opts(model, mode, setup.budget);
  Selection last;
  for (auto _ : state) {
    last = select(setup.ex, opts);
    benchmark::DoNotOptimize(last.protectors.data());
  }
  state.counters["protectors"] =
      static_cast<double>(last.protectors.size());
  state.counters["visits_per_seed"] = visits_per_seed(last);
  if (last.ris) {
    state.counters["rr_sets"] = static_cast<double>(last.sigma_evaluations);
    state.counters["rounds"] = static_cast<double>(last.ris->rounds);
  }
}

void BM_SelectMc_HepOpoao(benchmark::State& state) {
  run_select(state, DiffusionModel::kOpoao, SigmaMode::kMonteCarlo);
}
void BM_SelectRis_HepOpoao(benchmark::State& state) {
  run_select(state, DiffusionModel::kOpoao, SigmaMode::kRis);
}
void BM_SelectMc_HepDoam(benchmark::State& state) {
  run_select(state, DiffusionModel::kDoam, SigmaMode::kMonteCarlo);
}
void BM_SelectRis_HepDoam(benchmark::State& state) {
  run_select(state, DiffusionModel::kDoam, SigmaMode::kRis);
}

/// The ablation record: both modes end to end, a reference estimator scoring
/// both protector sets, and the visit ratio the acceptance bar reads.
void run_ablation(benchmark::State& state, DiffusionModel model) {
  static const FigureSetup setup;
  Selection mc, ris;
  for (auto _ : state) {
    mc = select(setup.ex,
                mode_opts(model, SigmaMode::kMonteCarlo, setup.budget));
    ris = select(setup.ex, mode_opts(model, SigmaMode::kRis, setup.budget));
    benchmark::DoNotOptimize(mc.protectors.data());
    benchmark::DoNotOptimize(ris.protectors.data());
  }

  SigmaConfig ref_cfg;
  ref_cfg.model = model;
  ref_cfg.samples = (model == DiffusionModel::kDoam) ? 4 : 400;
  ref_cfg.seed = 777;
  SigmaEstimator ref(setup.graph, setup.ex.rumors,
                     setup.ex.bridges.bridge_ends, ref_cfg);
  const double sigma_mc = ref.sigma(mc.protectors);
  const double sigma_ris = ref.sigma(ris.protectors);
  const auto range =
      static_cast<double>(setup.ex.bridges.bridge_ends.size());
  const double hoeffding =
      2.0 * range *
      std::sqrt(std::log(2.0 / 1e-4) /
                (2.0 * static_cast<double>(ref_cfg.samples)));
  const double tol = kRisEpsilon * range + hoeffding;

  const double mc_vps = visits_per_seed(mc);
  const double ris_vps = visits_per_seed(ris);
  state.counters["mc_visits_per_seed"] = mc_vps;
  state.counters["ris_visits_per_seed"] = ris_vps;
  state.counters["visit_ratio"] = ris_vps > 0.0 ? mc_vps / ris_vps : 0.0;
  state.counters["sigma_mc_ref"] = sigma_mc;
  state.counters["sigma_ris_ref"] = sigma_ris;
  state.counters["agreement_tol"] = tol;
  state.counters["agreement_ok"] =
      std::fabs(sigma_mc - sigma_ris) <= tol ? 1.0 : 0.0;
}

void BM_McVsRis_Fig4Opoao(benchmark::State& state) {
  run_ablation(state, DiffusionModel::kOpoao);
}
void BM_McVsRis_Fig7Doam(benchmark::State& state) {
  run_ablation(state, DiffusionModel::kDoam);
}

/// Sharded-generation scaling sweep: grow a fixed-size RR pool on 1/2/4/8
/// worker threads. Determinism makes the pools byte-identical across the
/// sweep, so the only variable is wall-clock; `sets_per_sec` is the scaling
/// counter the CI artifact tracks.
void BM_RisGenerate_ThreadSweep(benchmark::State& state) {
  static const FigureSetup setup;
  constexpr std::size_t kSweepSets = 4096;
  RisConfig rc;
  rc.model = DiffusionModel::kOpoao;
  rc.seed = 9;
  RrSampler sampler(setup.graph, setup.ex.rumors,
                    setup.ex.bridges.bridge_ends, rc);
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  std::uint64_t visits = 0;
  for (auto _ : state) {
    RrPool rr;
    sampler.extend(rr, 0, kSweepSets, &pool);
    visits = rr.nodes_visited();
    benchmark::DoNotOptimize(rr.num_sets());
  }
  state.counters["sets_per_sec"] = benchmark::Counter(
      static_cast<double>(kSweepSets) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["nodes_visited"] = static_cast<double>(visits);
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_SelectMc_HepOpoao)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectRis_HepOpoao)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectMc_HepDoam)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectRis_HepDoam)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_McVsRis_Fig4Opoao)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_McVsRis_Fig7Doam)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_RisGenerate_ThreadSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  lcrb::bench::require_release_build("bench_micro_ris");
  benchmark::AddCustomContext("lcrb_build_type", lcrb::bench::kBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
