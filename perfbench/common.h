// Shared pieces of the repository benchmark: the workload table, input
// generation, the paper-shaped requests and small statistics.
//
// The benchmark drives `lcrb::service::QueryService` the way `lcrbd` does:
// the generated graph is written to an edge-list file and opened through
// QueryService::open_dataset (read, Louvain, backend build), then select and
// evaluate requests are submitted in a closed loop. Everything about the
// inputs is a function of (workload, seed); nothing about them depends on
// timing except how many draws fit in the measured window.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/backend.h"
#include "lcrb/ris.h"
#include "service/query_service.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using lcrb::NodeId;
using lcrb::service::QueryRequest;
using lcrb::service::QueryResult;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The three query phases of one rumor draw. Table I's `kEvaluate` phase
/// holds two evaluates (the SCBG set and the cost-matched MaxDegree set).
enum class Phase : std::uint8_t { kSelectCold, kSelectWarm, kEvaluate };
inline constexpr Phase kPhases[] = {Phase::kSelectCold, Phase::kSelectWarm,
                                    Phase::kEvaluate};
const char* to_string(Phase p);

struct Workload {
  std::string name;
  bool email = false;  ///< Email analog (Table I) instead of the Hep analog
  double scale = 1.0;  ///< generator scale vs the paper's dataset
  lcrb::GraphBackend backend = lcrb::GraphBackend::kCsr;
  lcrb::SigmaMode sigma_mode = lcrb::SigmaMode::kMonteCarlo;
  /// Service executors = concurrent clients, each on its own session.
  std::size_t clients = 1;
  /// Greedy sigma settings; set per workload in common.cpp, unused by SCBG.
  std::size_t sigma_samples = 0;
  std::size_t max_candidates = 0;
  std::size_t eval_runs = 0;
  /// Cold select, warm select, evaluate; Table I also evaluates the warm set.
  std::size_t queries_per_draw() const { return email ? 4 : 3; }
};

/// Inner pool threads of every service (clients + pool threads <= 4, the
/// reference host's nproc).
inline constexpr std::size_t kPoolThreads = 2;
/// Generator seed of every graph. Like the paper's datasets, a workload's
/// graph is fixed; the run seed drives the rumor draws and evaluation seeds,
/// so runs with different seeds measure the same dataset.
inline constexpr std::uint64_t kDatasetSeed = 1;

/// latency_p90_ms is reported only with at least kMinBeyondP90 samples above
/// it; a nearest-rank p90 over kMinQueries queries has exactly that many, so
/// every timed loop completes at least kMinQueries queries.
inline constexpr std::size_t kMinBeyondP90 = 10;
inline constexpr std::size_t kMinQueries = 10 * kMinBeyondP90;

/// Looks up a workload by name; `tiny` shrinks it for the smoke tests.
/// Throws lcrb::Error on an unknown name.
Workload find_workload(const std::string& name, bool tiny);
std::vector<std::string> workload_names();

/// The generated dataset as the service sees it: an edge-list file.
struct Inputs {
  std::string edge_path;
  NodeId planted_size = 0;  ///< |C| the rumor community is matched to
  std::size_t num_nodes = 0;
  std::size_t num_arcs = 0;
};
/// Generates the workload's graph and writes it to `edge_path`.
Inputs make_inputs(const Workload& w, const std::string& edge_path);

/// One rumor draw: |R| is a paper fraction (1/5/10%) of the resolved |C|.
struct Draw {
  std::uint64_t index = 0;
  double fraction = 0.0;
  std::size_t num_rumors = 0;
  std::uint64_t rumor_seed = 0;
};
/// Draw `index` of the run seeded `seed`; the fractions cycle per index.
Draw make_draw(std::uint64_t seed, std::uint64_t index,
               lcrb::CommunityId community, NodeId community_size);
/// Warm-up draws: a fixed seed and an index space disjoint from every timed
/// draw.
inline constexpr std::uint64_t kWarmupSeed = 0;
inline constexpr std::uint64_t kWarmupDrawBase = std::uint64_t{1} << 40;
inline constexpr std::uint64_t kWarmupDraws = 6;

/// The requests of one draw. The cold and warm selects differ only in
/// a knob that changes the result-cache key but not the setup, estimator or
/// RR-pool keys (alpha for greedy; the selector for Table I).
QueryRequest cold_select(const Workload& w, const std::string& dataset,
                         lcrb::CommunityId community, const Draw& d);
QueryRequest warm_select(const Workload& w, const std::string& dataset,
                         lcrb::CommunityId community, const Draw& d,
                         std::size_t scbg_cost);
QueryRequest evaluate(const Workload& w, const std::string& dataset,
                      lcrb::CommunityId community, const Draw& d,
                      std::vector<NodeId> protectors, const std::string& tag);

/// The deterministic payload bytes the output checks compare.
inline std::string payload(const QueryResult& r) {
  return r.to_json(false).dump();
}

/// The workload's service: `w.clients` executors unless `executors` is
/// given. The warm-up uses one executor, so every warm-up query runs on the
/// same thread and allocator arena and its peak RSS repeats.
lcrb::service::ServiceConfig service_config(const Workload& w,
                                            std::size_t executors = 0);

// --- statistics ------------------------------------------------------------

double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);
/// Nearest-rank percentile; `beyond` receives how many samples lie above it.
double percentile(std::vector<double> xs, double p, std::size_t* beyond);

/// A fixed CPU loop, timed: drift of the shared host shows here, separate
/// from any change to the program. Never used to normalise other metrics.
double spin_ms();

/// Host-wide CPU time from /proc/stat, in clock ticks: time the guest's CPUs
/// ran or wanted to run, and time the hypervisor took from them (steal).
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
/// Share of the guest's wanted CPU time that was stolen between two readings.
double steal_frac(const CpuTicks& from, const CpuTicks& to);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// One metric of the final result line.
void put_metric(lcrb::JsonValue& metrics, const std::string& name,
                double value, const std::string& unit);

}  // namespace perfbench
