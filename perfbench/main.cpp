// lcrb_perfbench: one benchmark run of one workload.
//
//   lcrb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--workdir DIR] [--tiny] [--corrupt-payload]
//
// Prints a provenance object, then, as the last line of stdout, the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any query or output check failed (after printing the
// result), 2 on bad usage, and 1 without a result on any other error.
// perfbench/run.py builds this binary and is the command to run.
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench/build_guard.h"
#include "bench.h"
#include "util/log.h"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  bool tiny = false;
  bool corrupt = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw lcrb::Error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-payload") {
      o.corrupt = true;
    } else {
      throw lcrb::Error("unknown argument " + a);
    }
  }
  if (!have_workload) throw lcrb::Error("--workload is required");
  if (!(o.seconds > 0.0)) throw lcrb::Error("--seconds must be positive");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

using ByFraction = std::map<double, std::vector<double>>;

/// Mean over the |R| fractions of the per-fraction means, so the figure does
/// not depend on how many draws of each fraction a run happened to finish.
double fraction_balanced_mean(const ByFraction& by) {
  std::vector<double> means;
  for (const auto& [frac, xs] : by) means.push_back(mean(xs));
  return mean(means);
}

/// Geometric mean over the |R| fractions of the per-fraction medians. The
/// latencies of one phase form one cluster per fraction (Fig. 4 cold selects:
/// ~0.1 s at 1%, ~0.3 s at 5%, ~0.5 s at 10%), so a pooled median sits on the
/// edge of the middle cluster and jumps with the draw mix; this does not.
double fraction_balanced_p50(const ByFraction& by) {
  double log_sum = 0.0;
  for (const auto& [frac, xs] : by) log_sum += std::log(median(xs));
  return by.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(by.size()));
}

lcrb::JsonValue e2e_metrics(const Bench& b, lcrb::JsonValue& prov) {
  std::map<Phase, ByFraction> by_phase;
  std::vector<double> all;
  for (const QueryRecord& r : b.records) {
    by_phase[r.phase][r.fraction].push_back(r.latency_ms);
    all.push_back(r.latency_ms);
  }
  std::size_t beyond = 0;
  const double p90 = percentile(all, 90.0, &beyond);
  if (beyond < kMinBeyondP90) {
    throw lcrb::Error("latency_p90_ms has only " + std::to_string(beyond) +
                      " samples beyond it, fewer than " +
                      std::to_string(kMinBeyondP90));
  }

  ByFraction cost;
  ByFraction saved;
  for (const DrawRecord& dr : b.draws) {
    if (dr.results.empty()) continue;
    cost[dr.draw.fraction].push_back(
        static_cast<double>(dr.results.front().protectors.size()));
    for (std::size_t i = 2; i < dr.results.size(); ++i) {
      saved[dr.draw.fraction].push_back(dr.results[i].saved_fraction);
    }
  }

  lcrb::JsonValue samples = lcrb::JsonValue::object();
  samples.set("setup_s", static_cast<std::uint64_t>(b.setup_ms.size()));
  for (Phase ph : kPhases) {
    // Per |R| fraction, smallest first.
    lcrb::JsonValue counts = lcrb::JsonValue::array();
    for (const auto& [frac, xs] : by_phase[ph]) {
      counts.push_back(static_cast<std::uint64_t>(xs.size()));
    }
    samples.set(std::string(to_string(ph)) + "_p50_ms", counts);
  }
  samples.set("latency_p90_ms", static_cast<std::uint64_t>(all.size()));
  samples.set("latency_p90_ms_beyond", static_cast<std::uint64_t>(beyond));
  samples.set("draws", static_cast<std::uint64_t>(b.draws.size()));
  prov.set("samples", samples);

  lcrb::JsonValue m = lcrb::JsonValue::object();
  put_metric(m, "setup_s", median(b.setup_ms) / 1e3, "s");
  put_metric(m, "select_cold_p50_ms",
             fraction_balanced_p50(by_phase[Phase::kSelectCold]), "ms");
  put_metric(m, "select_warm_p50_ms",
             fraction_balanced_p50(by_phase[Phase::kSelectWarm]), "ms");
  put_metric(m, "evaluate_p50_ms",
             fraction_balanced_p50(by_phase[Phase::kEvaluate]), "ms");
  put_metric(m, "latency_p90_ms", p90, "ms");
  put_metric(m, "throughput_qps",
             static_cast<double>(all.size()) / (b.loop_wall_ms / 1e3), "1/s");
  put_metric(m, "peak_rss_mib", b.rss_mib, "MiB");
  put_metric(m, "protectors_mean", fraction_balanced_mean(cost), "count");
  put_metric(m, "saved_fraction_mean", fraction_balanced_mean(saved),
             "ratio");
  return m;
}

int run(const Options& o) {
  lcrb::bench::require_release_build("lcrb_perfbench");
  lcrb::set_log_level(lcrb::LogLevel::Warn);
  const Workload w = find_workload(o.workload, o.tiny);

  Bench b(w, o.seed, o.workdir, o.trace);
  b.warm_up();
  // The traced run splits its time between the loop and the replay.
  b.run_loop(o.trace ? o.seconds / 2 : o.seconds, o.trace ? 2 : 4);
  b.check_outputs(o.corrupt);

  lcrb::JsonValue prov = lcrb::JsonValue::object();
  prov.set("workload", w.name);
  prov.set("seed", o.seed);
  prov.set("seconds", o.seconds);
  prov.set("trace", o.trace);
  prov.set("tiny", o.tiny);
  prov.set("build_type", lcrb::bench::kBuildType);
  prov.set("nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  prov.set("cpu_model", cpu_model());
  prov.set("clients", static_cast<std::uint64_t>(w.clients));
  prov.set("pool_threads", static_cast<std::uint64_t>(kPoolThreads));
  prov.set("backend", lcrb::to_string(w.backend));
  prov.set("nodes", static_cast<std::uint64_t>(b.inputs().num_nodes));
  prov.set("arcs", static_cast<std::uint64_t>(b.inputs().num_arcs));
  prov.set("community_size", static_cast<std::uint64_t>(b.community_size()));
  prov.set("queries", static_cast<std::uint64_t>(b.records.size()));
  prov.set("host_steal_frac", b.steal_frac);
  prov.set("error_rate", b.attempted == 0
                             ? 0.0
                             : static_cast<double>(b.failed) /
                                   static_cast<double>(b.attempted));
  lcrb::JsonValue errors = lcrb::JsonValue::array();
  for (const std::string& e : b.errors) errors.push_back(e);
  prov.set("errors", errors);

  lcrb::JsonValue metrics;
  if (o.trace) {
    metrics = trace_layers(b, o.seconds / 2, prov);
    const std::string path = o.workdir + "/trace-" + w.name + "-" +
                             std::to_string(o.seed) + ".json";
    b.write_spans(path);
    prov.set("spans", path);
  } else {
    metrics = e2e_metrics(b, prov);
    prov.set("host_spin_ms", spin_ms());
  }

  const bool correct = b.failed == 0;
  lcrb::JsonValue head = lcrb::JsonValue::object();
  head.set("provenance", prov);
  std::cout << head.dump() << "\n";
  lcrb::JsonValue result = lcrb::JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<std::uint64_t>(b.attempted));
  result.set("failed", static_cast<std::uint64_t>(b.failed));
  result.set("metrics", metrics);
  std::cout << result.dump() << std::endl;
  for (const std::string& e : b.errors) std::cerr << "FAILED: " << e << "\n";
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "lcrb_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "lcrb_perfbench: " << e.what() << "\n";
    return 1;
  }
}
