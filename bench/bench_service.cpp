// Warm-session vs cold-process economics of the query service, plus an
// open-loop replay load generator for the concurrent dispatcher.
//
// Part 1 (warm vs cold). The service exists so repeated queries stop paying
// the CLI's fixed costs: re-reading the edge list, re-building the
// partition, re-deriving bridge ends, and re-materializing sigma
// realizations on every invocation. This bench runs the same 100-query
// mixed workload (greedy MC / SCBG / maxdegree selects, evaluates, infos)
// two ways:
//
//   cold   one fresh QueryService per query, loading graph + membership from
//          disk each time — the work a cold `lcrb ...` process does, minus
//          exec/link overhead (so the measured ratio *understates* the win)
//   warm   one QueryService, batches of 10 against the shared GraphSession
//
// It also re-checks the batch-vs-sequential byte-identity guarantee on the
// fly and refuses to report numbers if it fails.
//
// Part 2 (open loop). A Poisson arrival process replays evaluate queries
// (fresh seed per request, so every one does real Monte-Carlo work) against
// several sessions of a multi-executor service, sweeping the offered rate
// from well under to well over the measured capacity. Open loop means the
// schedule never waits for the service: latency is measured from each
// request's *scheduled* arrival, so queueing delay under overload is charged
// to the service (no coordinated omission). Reported per rate: achieved QPS
// and p50/p99 latency; the headline `qps_at_saturation` is the best achieved
// throughput over the sweep.
//
// Results land in --out (default BENCH_service.json).
//
// Flags: --scale F | --queries N | --threads N | --out PATH | --seed S
//        --loadgen-requests N | --loadgen-executors N | --loadgen-sessions N
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

#include "community/io.h"
#include "graph/io.h"
#include "lcrb/options.h"
#include "service/query_service.h"
#include "util/args.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcrb;
using namespace lcrb::bench;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The mixed workload: query i cycles through five request shapes, with the
/// rumor draw re-seeded every cycle so warm runs still see a handful of
/// distinct experiment setups (not one setup amortized 100 ways).
std::vector<service::QueryRequest> make_workload(std::size_t n,
                                                 const BenchContext& ctx,
                                                 const Dataset& ds) {
  const CommunityId community = ds.community;
  // Evaluate-op protectors must be disjoint from every rumor draw; picking
  // them from a different community guarantees that.
  const CommunityId other = community == 0 ? 1 : 0;
  const std::vector<NodeId>& pool = ds.partition.members(other);
  const std::vector<NodeId> protectors(pool.begin(),
                                       pool.begin() + std::min<std::size_t>(
                                                          3, pool.size()));
  std::vector<service::QueryRequest> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    service::QueryRequest req;
    req.id = std::to_string(i);
    req.dataset = "bench";
    req.rumor_community = community;
    req.num_rumors = 3;
    req.rumor_seed = ctx.seed + (i / 10) % 4;  // 4 distinct rumor draws
    req.options.alpha = 0.9;
    req.options.sigma_samples = ctx.sigma_samples;
    req.options.sigma_seed = ctx.seed + 7;
    req.options.max_candidates = ctx.max_candidates;
    switch (i % 5) {
      case 0:  // LCRB-P Monte-Carlo greedy
        break;
      case 1:
        req.options.selector = SelectorKind::kScbg;
        break;
      case 2:
        req.options.selector = SelectorKind::kMaxDegree;
        break;
      case 3:
        req.op = service::QueryOp::kEvaluate;
        req.protectors = protectors;
        req.eval_runs = ctx.mc_runs;
        req.eval_seed = ctx.seed + 13;
        break;
      case 4:
        req.op = service::QueryOp::kInfo;
        break;
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// The open-loop unit of work: a Monte-Carlo evaluate with a per-request
/// seed, so no two requests share a result-cache entry and each one costs
/// real simulation time.
service::QueryRequest make_loadgen_request(const std::string& dataset,
                                           std::uint64_t seed,
                                           const BenchContext& ctx,
                                           const Dataset& ds) {
  const CommunityId other = ds.community == 0 ? 1 : 0;
  const std::vector<NodeId>& pool = ds.partition.members(other);
  service::QueryRequest req;
  req.op = service::QueryOp::kEvaluate;
  req.dataset = dataset;
  req.rumor_community = ds.community;
  req.num_rumors = 3;
  req.rumor_seed = ctx.seed;
  req.protectors.assign(pool.begin(),
                        pool.begin() + std::min<std::size_t>(3, pool.size()));
  req.eval_runs = std::max<std::size_t>(ctx.mc_runs / 4, 5);
  req.eval_seed = seed;
  return req;
}

/// Nearest-rank percentile of an unsorted latency sample.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::min(rank == 0 ? 0 : rank - 1, xs.size() - 1)];
}

struct OpenLoopPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Replays `n` requests with Poisson (exponential inter-arrival) timing at
/// `rate_qps` against a round-robin of sessions. Latency is completion time
/// minus *scheduled* arrival.
OpenLoopPoint run_open_loop(service::QueryService& svc,
                            const std::vector<std::string>& sessions,
                            double rate_qps, std::size_t n,
                            std::uint64_t seed_base, const BenchContext& ctx,
                            const Dataset& ds, bool* all_ok) {
  Rng rng(ctx.seed + 101);
  std::vector<double> arrival_ms(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.next_double()) * 1000.0 / rate_qps;
    arrival_ms[i] = t;
  }
  std::vector<double> latency(n, 0.0);
  std::atomic<std::size_t> failures{0};
  std::size_t done = 0;
  std::mutex mu;
  std::condition_variable cv;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point scheduled =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(arrival_ms[i]));
    std::this_thread::sleep_until(scheduled);  // open loop: never waits for
                                               // the service, only the clock
    // Seeds are disjoint across rate sweeps: a repeated eval_seed would hit
    // the result cache and report replay latency instead of compute latency.
    service::QueryRequest req = make_loadgen_request(
        sessions[i % sessions.size()], seed_base + i, ctx, ds);
    svc.submit_async(std::move(req), [&, i, scheduled](
                                         const service::QueryResult& r) {
      if (!r.ok) failures.fetch_add(1);
      latency[i] =
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count();
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  }
  const double wall_ms = ms_since(t0);
  *all_ok = *all_ok && failures.load() == 0;
  OpenLoopPoint point;
  point.offered_qps = rate_qps;
  point.achieved_qps = static_cast<double>(n) * 1000.0 / wall_ms;
  point.p50_ms = percentile(latency, 50.0);
  point.p99_ms = percentile(latency, 99.0);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchContext ctx =
      parse_context(argc, argv, "service: warm sessions vs cold processes");
  const Args args(argc, argv);
  const std::size_t queries =
      static_cast<std::size_t>(args.get_int("queries", 100));
  const std::size_t threads =
      static_cast<std::size_t>(args.get_int("threads", 0));
  const std::string out_path = args.get_string("out", "BENCH_service.json");

  const Dataset ds = make_hep_dataset(ctx);
  const std::string graph_path = "bench_service_graph.txt";
  const std::string membership_path = "bench_service_membership.csv";
  save_edge_list(ds.graph, graph_path);
  save_membership(ds.partition, membership_path);

  const std::vector<service::QueryRequest> workload =
      make_workload(queries, ctx, ds);

  service::ServiceConfig cfg;
  cfg.threads = threads;
  cfg.collect_meta = false;

  // --- cold: a fresh service (and a fresh disk load) per query -------------
  std::vector<std::string> cold_payloads;
  cold_payloads.reserve(workload.size());
  const Clock::time_point cold_start = Clock::now();
  for (const service::QueryRequest& req : workload) {
    service::QueryService svc(cfg);
    DiGraph g = load_edge_list(graph_path);
    Partition p = load_membership(membership_path);
    svc.registry().open("bench", std::move(g), std::move(p));
    const service::QueryResult r = svc.run(req);
    if (!r.ok) {
      std::cerr << "cold query " << req.id << " failed: " << r.error << "\n";
      return 1;
    }
    cold_payloads.push_back(r.to_json(false).dump());
  }
  const double cold_ms = ms_since(cold_start);

  // --- warm: one service, batches of 10 against the shared session ---------
  service::QueryService warm_svc(cfg);
  {
    DiGraph g = load_edge_list(graph_path);
    Partition p = load_membership(membership_path);
    warm_svc.registry().open("bench", std::move(g), std::move(p));
  }
  std::vector<std::string> warm_payloads;
  warm_payloads.reserve(workload.size());
  const Clock::time_point warm_start = Clock::now();
  for (std::size_t i = 0; i < workload.size(); i += 10) {
    std::vector<service::QueryRequest> batch(
        workload.begin() + static_cast<std::ptrdiff_t>(i),
        workload.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + 10, workload.size())));
    for (const service::QueryResult& r : warm_svc.run_batch(std::move(batch))) {
      if (!r.ok) {
        std::cerr << "warm query " << r.id << " failed: " << r.error << "\n";
        return 1;
      }
      warm_payloads.push_back(r.to_json(false).dump());
    }
  }
  const double warm_ms = ms_since(warm_start);

  // The headline numbers are only meaningful if warm batching returned the
  // exact payload bytes of the cold one-shot runs. Info replies are excluded:
  // their resident_bytes field truthfully reports the session's warm-cache
  // footprint, which *should* differ between a cold and a warm service.
  bool identical = cold_payloads.size() == warm_payloads.size();
  for (std::size_t i = 0; identical && i < cold_payloads.size(); ++i) {
    if (workload[i].op == service::QueryOp::kInfo) continue;
    if (cold_payloads[i] != warm_payloads[i]) {
      std::cerr << "FAIL: query " << i << " differs\n  cold: "
                << cold_payloads[i] << "\n  warm: " << warm_payloads[i]
                << "\n";
      identical = false;
    }
  }
  if (!identical) return 1;

  // --- open loop: Poisson replay against a concurrent service --------------
  const std::size_t lg_requests =
      static_cast<std::size_t>(args.get_int("loadgen-requests", 160));
  const std::size_t lg_executors =
      static_cast<std::size_t>(args.get_int("loadgen-executors", 4));
  const std::size_t lg_sessions =
      static_cast<std::size_t>(args.get_int("loadgen-sessions", 4));

  service::ServiceConfig lg_cfg;
  lg_cfg.threads = 2;  // modest inner pool: executor concurrency dominates
  lg_cfg.collect_meta = false;
  lg_cfg.max_concurrent = lg_executors;
  service::QueryService lg_svc(lg_cfg);
  std::vector<std::string> sessions;
  for (std::size_t s = 0; s < lg_sessions; ++s) {
    sessions.push_back(std::to_string(s).insert(0, 1, 's'));
    DiGraph g = load_edge_list(graph_path);
    Partition p = load_membership(membership_path);
    lg_svc.registry().open(sessions.back(), std::move(g), std::move(p));
  }
  // Pre-warm every session's experiment setup so the sweep measures steady
  // state, then calibrate single-stream capacity closed-loop.
  for (const std::string& s : sessions) {
    const service::QueryResult r =
        lg_svc.run(make_loadgen_request(s, ctx.seed + 999, ctx, ds));
    if (!r.ok) {
      std::cerr << "loadgen warmup failed: " << r.error << "\n";
      return 1;
    }
  }
  const std::size_t calibration = 20;
  const Clock::time_point cal_start = Clock::now();
  for (std::size_t i = 0; i < calibration; ++i) {
    lg_svc.run(make_loadgen_request(sessions[0], ctx.seed + 2000 + i, ctx,
                                    ds));
  }
  const double mean_ms = ms_since(cal_start) / calibration;
  const double est_capacity_qps =
      1000.0 / mean_ms * static_cast<double>(lg_executors);

  bool loadgen_ok = true;
  std::vector<OpenLoopPoint> points;
  std::uint64_t seed_base = ctx.seed + 10'000;
  for (const double factor : {0.25, 0.5, 1.0, 2.0}) {
    points.push_back(run_open_loop(lg_svc, sessions,
                                   est_capacity_qps * factor, lg_requests,
                                   seed_base, ctx, ds, &loadgen_ok));
    seed_base += lg_requests;
  }
  if (!loadgen_ok) {
    std::cerr << "open-loop requests failed\n";
    return 1;
  }
  double qps_at_saturation = 0.0;
  for (const OpenLoopPoint& pt : points) {
    qps_at_saturation = std::max(qps_at_saturation, pt.achieved_qps);
  }

  const double ratio = warm_ms / cold_ms;
  JsonValue out = JsonValue::object();
  out.set("bench", std::string("service_warm_vs_cold"));
  out.set("dataset", ds.name);
  out.set("num_nodes", static_cast<std::uint64_t>(ds.graph.num_nodes()));
  out.set("num_arcs", static_cast<std::uint64_t>(ds.graph.num_edges()));
  out.set("queries", static_cast<std::uint64_t>(queries));
  out.set("workload", std::string(
      "greedy-mc/scbg/maxdegree selects + evaluate + info, round-robin, "
      "4 distinct rumor draws"));
  out.set("sigma_samples", static_cast<std::uint64_t>(ctx.sigma_samples));
  out.set("mc_runs", static_cast<std::uint64_t>(ctx.mc_runs));
  out.set("scale", ctx.scale);
  out.set("threads", static_cast<std::uint64_t>(threads));
  out.set("cold_wall_ms", cold_ms);
  out.set("warm_wall_ms", warm_ms);
  out.set("warm_over_cold", ratio);
  out.set("acceptance_max_ratio", 0.25);
  out.set("acceptance_ok", ratio < 0.25);
  out.set("batch_byte_identical", identical);

  JsonValue lg = JsonValue::object();
  lg.set("workload", std::string(
      "evaluate, fresh eval_seed per request (no result-cache hits), "
      "Poisson arrivals, latency from scheduled arrival"));
  lg.set("sessions", static_cast<std::uint64_t>(lg_sessions));
  lg.set("executors", static_cast<std::uint64_t>(lg_executors));
  lg.set("requests_per_rate", static_cast<std::uint64_t>(lg_requests));
  lg.set("eval_runs", static_cast<std::uint64_t>(
                          std::max<std::size_t>(ctx.mc_runs / 4, 5)));
  lg.set("single_stream_ms_per_query", mean_ms);
  JsonValue pts = JsonValue::array();
  for (const OpenLoopPoint& pt : points) {
    JsonValue row = JsonValue::object();
    row.set("offered_qps", pt.offered_qps);
    row.set("achieved_qps", pt.achieved_qps);
    row.set("p50_ms", pt.p50_ms);
    row.set("p99_ms", pt.p99_ms);
    pts.push_back(row);
  }
  lg.set("rates", pts);
  lg.set("qps_at_saturation", qps_at_saturation);
  out.set("open_loop", lg);

  std::ofstream f(out_path);
  f << out.dump() << "\n";
  std::cout << "cold: " << cold_ms << " ms for " << queries << " queries\n"
            << "warm: " << warm_ms << " ms (" << ratio * 100.0
            << "% of cold)\n"
            << "payloads byte-identical: yes\n"
            << "wrote " << out_path << "\n";
  std::remove(graph_path.c_str());
  std::remove(membership_path.c_str());
  return ratio < 0.25 ? 0 : 2;
}
