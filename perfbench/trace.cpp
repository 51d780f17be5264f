// The traced run's per-layer numbers.
//
// The closed loop has already run (with spans around every query). This
// replays the same draws stage by stage through each module's public
// functions, on the session's own graph and partition, timing one span per
// layer. Each replayed stage must reproduce the service's answer, so a
// replay that drifted from the query path fails the run instead of
// reporting numbers for work the service does not do.
//
// For every select/evaluate phase, the decomposition written to the
// provenance is exact by construction over the replayed draws:
//   mean phase latency = mean queue wait + sum of mean layer times
//                        + unaccounted (service dispatch, caches, JSON,
//                          replay-vs-service cache differences)
#include <algorithm>
#include <map>

#include "community/detect.h"
#include "bench.h"
#include "graph/io.h"
#include "lcrb/greedy.h"
#include "lcrb/pipeline.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "lcrb/sigma.h"
#include "util/error.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Layer samples, by metric name, plus the per-phase layer times of every
/// replayed draw.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  /// phase -> layer -> per-query milliseconds.
  std::map<Phase, std::map<std::string, std::vector<double>>> phase_ms;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
  double med(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
  double avg(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : mean(it->second);
  }
};

/// Times `f` as one span named `layer` under `parent`; returns milliseconds.
template <class F>
double timed(Bench& b, const std::string& layer, std::uint64_t request,
             int parent, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  const Clock::time_point t1 = Clock::now();
  b.span(layer, request, parent, t0, t1);
  return ms_between(t0, t1);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw lcrb::Error("trace replay diverged from the service: " + what);
}

/// Stage-by-stage open: read, Louvain, backend build.
void replay_setup(Bench& b, Layers& L, int reps) {
  const Workload& w = b.workload();
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const int root = b.span("replay.setup", 0, -1, t0, t0);
    lcrb::DiGraph g;
    L.add("graph.load_ms", timed(b, "graph.load", 0, root, [&] {
            g = lcrb::load_edge_list(b.inputs().edge_path, false);
          }));
    lcrb::Partition p;
    L.add("community.louvain_ms", timed(b, "community.louvain", 0, root, [&] {
            p = lcrb::detect_communities(g, lcrb::CommunityMethod::kLouvain, 1);
          }));
    if (w.backend == lcrb::GraphBackend::kEf) {
      L.add("graph.build_ef_ms", timed(b, "graph.build_ef", 0, root, [&] {
              lcrb::GraphAny any = lcrb::to_backend(std::move(g), w.backend);
            }));
    }
    b.end_span(root);
  }
}

/// Replays one draw's queries stage by stage.
void replay_draw(Bench& b, const DrawRecord& dr, Layers& L) {
  const Workload& w = b.workload();
  const lcrb::GraphRef g = b.session()->graph();
  const lcrb::Partition& part = b.session()->partition();
  lcrb::ThreadPool* pool = &b.service().pool();
  const std::uint64_t id = dr.draw.index;
  const QueryRequest& cold_req = dr.requests[0];
  const QueryResult& cold = dr.results[0];
  const QueryRequest& warm_req = dr.requests[1];
  const QueryResult& warm = dr.results[1];
  auto& cold_ms = L.phase_ms[Phase::kSelectCold];
  auto& warm_ms = L.phase_ms[Phase::kSelectWarm];

  Clock::time_point t0 = Clock::now();
  const int cold_span = b.span("replay.select_cold", id, -1, t0, t0);
  lcrb::ExperimentSetup setup;
  const double prep = timed(b, "bridge.prepare", id, cold_span, [&] {
    const std::size_t k = std::min<std::size_t>(
        std::max<std::size_t>(cold_req.num_rumors, 1),
        part.size_of(cold_req.rumor_community));
    setup = lcrb::prepare_experiment(g, part, cold_req.rumor_community, k,
                                     cold_req.rumor_seed);
  });
  require(setup.rumors == cold.rumors, "rumor draw");
  L.add("bridge.prepare_ms", prep);
  L.add("bridge.ends_mean",
        static_cast<double>(setup.bridges.bridge_ends.size()));
  cold_ms["bridge.prepare_ms"].push_back(prep);
  const std::size_t budget =
      cold_req.options.resolved_budget(setup.rumors.size());

  int warm_span = -1;
  if (w.email) {
    lcrb::ScbgResult sc;
    const double t = timed(b, "scbg.select", id, cold_span, [&] {
      sc = g.visit([&](const auto& gr) {
        return lcrb::scbg_from_bridges(gr, setup.rumors, setup.bridges);
      });
    });
    require(sc.protectors == cold.protectors, "SCBG selection");
    L.add("scbg.select_ms", t);
    cold_ms["scbg.select_ms"].push_back(t);
    b.end_span(cold_span);
    t0 = Clock::now();
    warm_span = b.span("replay.select_warm", id, -1, t0, t0);
    std::vector<NodeId> md;
    const double tm = timed(b, "maxdegree.select", id, warm_span, [&] {
      md = lcrb::select_protectors(setup, warm_req.options, pool);
    });
    require(md == warm.protectors, "MaxDegree selection");
    L.add("maxdegree.select_ms", tm);
    warm_ms["maxdegree.select_ms"].push_back(tm);
  } else if (w.sigma_mode == lcrb::SigmaMode::kMonteCarlo) {
    std::unique_ptr<lcrb::SigmaEstimator> est;
    const double tb = timed(b, "sigma.build", id, cold_span, [&] {
      est = std::make_unique<lcrb::SigmaEstimator>(
          g, setup.rumors, setup.bridges.bridge_ends,
          cold_req.options.sigma_config(), pool);
    });
    L.add("sigma.build_ms", tb);
    cold_ms["sigma.build_ms"].push_back(tb);
    auto greedy = [&](const QueryRequest& req) {
      lcrb::GreedyConfig gc = req.options.greedy_config();
      gc.max_protectors = budget;
      return g.visit([&](const auto& gr) {
        return lcrb::greedy_lcrbp_with_estimator(gr, setup.rumors,
                                                 setup.bridges, gc, *est, pool);
      });
    };
    const std::uint64_t visits0 = est->nodes_visited();
    lcrb::GreedyResult rc;
    const double tc = timed(b, "greedy.select", id, cold_span,
                            [&] { rc = greedy(cold_req); });
    require(rc.protectors == cold.protectors, "cold greedy selection");
    cold_ms["greedy.select_ms"].push_back(tc);
    b.end_span(cold_span);
    t0 = Clock::now();
    warm_span = b.span("replay.select_warm", id, -1, t0, t0);
    lcrb::GreedyResult rw;
    const double tw = timed(b, "greedy.select", id, warm_span,
                            [&] { rw = greedy(warm_req); });
    require(rw.protectors == warm.protectors, "warm greedy selection");
    warm_ms["greedy.select_ms"].push_back(tw);
    L.add("greedy.select_ms", tw);
    L.add("sigma.nodes_visited",
          static_cast<double>(est->nodes_visited() - visits0));
    for (const lcrb::GreedyResult* r : {&rc, &rw}) {
      L.add("greedy.sigma_evaluations",
            static_cast<double>(r->sigma_evaluations));
      L.add("greedy.picks", static_cast<double>(r->protectors.size()));
    }
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point s0 = Clock::now();
      (void)est->sigma(rc.protectors);
      L.add("sigma.eval_us", 1e3 * ms_between(s0, Clock::now()));
    }
    L.add("sigma.cache_mib", static_cast<double>(est->memory_bytes()) / kMiB);
  } else {
    const lcrb::RisConfig cfg = cold_req.options.ris_config();
    lcrb::RisContext ctx(g, setup.rumors, setup.bridges.bridge_ends, cfg);
    lcrb::RisGreedyResult r1;
    const double fresh = timed(b, "ris.select_fresh", id, cold_span, [&] {
      r1 = lcrb::ris_greedy_with_context(cold_req.options.alpha, budget, cfg,
                                         ctx, pool);
    });
    require(r1.protectors == cold.protectors, "cold RIS selection");
    const std::size_t sets =
        ctx.selection.num_sets() + ctx.validation.num_sets();
    L.add("ris.rr_nodes_total",
          static_cast<double>(ctx.selection.total_entries() +
                              ctx.validation.total_entries()));
    // The same call on the now-warm pools is coverage greedy alone; the
    // difference is RR-set generation.
    const double again = timed(b, "ris.greedy", id, cold_span, [&] {
      (void)lcrb::ris_greedy_with_context(cold_req.options.alpha, budget, cfg,
                                          ctx, pool);
    });
    const double gen = std::max(fresh - again, 0.0);
    L.add("ris.generate_ms", gen);
    L.add("ris.sets_per_s", gen > 0.0 ? static_cast<double>(sets) / (gen / 1e3)
                                      : 0.0);
    L.add("ris.rr_sets", static_cast<double>(r1.rr_sets));
    L.add("ris.rounds", static_cast<double>(r1.rounds));
    L.add("ris.guarantee_met_frac", r1.guarantee_met ? 1.0 : 0.0);
    cold_ms["ris.generate_ms"].push_back(gen);
    cold_ms["ris.greedy_ms"].push_back(again);
    b.end_span(cold_span);
    t0 = Clock::now();
    warm_span = b.span("replay.select_warm", id, -1, t0, t0);
    lcrb::RisGreedyResult rw;
    const double tw = timed(b, "ris.greedy", id, warm_span, [&] {
      rw = lcrb::ris_greedy_with_context(warm_req.options.alpha, budget,
                                         warm_req.options.ris_config(), ctx,
                                         pool);
    });
    require(rw.protectors == warm.protectors, "warm RIS selection");
    L.add("ris.greedy_ms", tw);
    warm_ms["ris.greedy_ms"].push_back(tw);
    L.add("ris.pool_mib", static_cast<double>(ctx.memory_bytes()) / kMiB);
  }

  b.end_span(warm_span);

  for (std::size_t i = 2; i < dr.requests.size(); ++i) {
    const QueryRequest& req = dr.requests[i];
    t0 = Clock::now();
    const int ev_span = b.span("replay.evaluate", id, -1, t0, t0);
    lcrb::MonteCarloConfig mc;
    mc.runs = req.eval_runs;
    mc.seed = req.eval_seed;
    mc.max_hops = req.options.max_hops;
    mc.model = req.options.model;
    mc.ic_edge_prob = req.options.ic_edge_prob;
    lcrb::HopSeries s;
    const double t = timed(b, "diffusion.eval", id, ev_span, [&] {
      s = lcrb::evaluate_protectors(setup, req.protectors, mc, pool);
    });
    require(s.saved_fraction_mean == dr.results[i].saved_fraction,
            "evaluate " + req.id);
    L.add("diffusion.eval_ms", t);
    L.add("diffusion.runs", static_cast<double>(mc.runs));
    // Every run activates its final infected and protected sets once.
    L.add("diffusion.activations",
          static_cast<double>(mc.runs) *
              (s.final_infected_mean + s.final_protected_mean));
    L.phase_ms[Phase::kEvaluate]["diffusion.eval_ms"].push_back(t);
    b.end_span(ev_span);
  }
}

/// Median microseconds of `reps` calls of `f`.
template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    f();
    us.push_back(1e3 * ms_between(t0, Clock::now()));
  }
  return median(us);
}

double hit_rate(const std::vector<QueryRecord>& recs, int QueryRecord::*flag) {
  double hits = 0.0;
  double seen = 0.0;
  for (const QueryRecord& r : recs) {
    if (r.*flag < 0) continue;
    seen += 1.0;
    hits += r.*flag;
  }
  return seen == 0.0 ? 0.0 : hits / seen;
}

}  // namespace

lcrb::JsonValue trace_layers(Bench& b, double seconds,
                             lcrb::JsonValue& provenance) {
  Layers L;
  const Clock::time_point start = Clock::now();
  replay_setup(b, L, 3);

  // Replay the timed draws in order until the budget is spent (at least one
  // draw per |R| fraction).
  // A draw that failed part-way stops short of its evaluate; it has already
  // failed the run and is not replayed.
  std::vector<const DrawRecord*> complete;
  for (const DrawRecord& dr : b.draws) {
    if (dr.results.size() >= 3) complete.push_back(&dr);
  }
  if (complete.empty()) throw lcrb::Error("no complete draw to replay");
  std::vector<std::uint64_t> replayed;
  for (const DrawRecord* dr : complete) {
    if (replayed.size() >= 3 &&
        ms_between(start, Clock::now()) > seconds * 1e3) {
      break;
    }
    replay_draw(b, *dr, L);
    replayed.push_back(dr->draw.index);
  }

  // Service layer: a result-cache hit through run() and through submit(),
  // and the wire (de)serialisation of one request/result pair.
  lcrb::service::QueryService& svc = b.service();
  const DrawRecord& last = *complete.back();
  const QueryRequest& req = last.requests[1];
  const std::string expected = payload(last.results[1]);
  require(payload(svc.run(req)) == expected, "cached replay");
  const double exec_us = median_us(50, [&] { (void)svc.run(req); });
  const double dispatch_us =
      median_us(50, [&] { (void)svc.submit(req).get(); });
  const std::string line = req.to_json().dump();
  const QueryResult& res = last.results[1];
  const double json_us = median_us(50, [&] {
    (void)QueryRequest::from_json(lcrb::JsonValue::parse(line));
    (void)res.to_json(true).dump();
  });

  std::vector<double> queue_ms;
  for (const QueryRecord& r : b.records) {
    queue_ms.push_back(std::max(r.latency_ms - r.wall_ms, 0.0));
  }
  std::vector<double> spin;
  for (int i = 0; i < 5; ++i) spin.push_back(spin_ms());

  // Phase decomposition over the replayed draws.
  lcrb::JsonValue phases = lcrb::JsonValue::object();
  for (Phase ph : kPhases) {
    std::vector<double> lat;
    std::vector<double> wait;
    for (const QueryRecord& r : b.records) {
      if (r.phase != ph ||
          !std::binary_search(replayed.begin(), replayed.end(), r.draw)) {
        continue;
      }
      lat.push_back(r.latency_ms);
      wait.push_back(std::max(r.latency_ms - r.wall_ms, 0.0));
    }
    lcrb::JsonValue o = lcrb::JsonValue::object();
    o.set("queries", static_cast<std::uint64_t>(lat.size()));
    o.set("latency_mean_ms", mean(lat));
    o.set("queue_wait_mean_ms", mean(wait));
    double rest = mean(lat) - mean(wait);
    lcrb::JsonValue layers = lcrb::JsonValue::object();
    for (const auto& [name, ms] : L.phase_ms[ph]) {
      // Per query: Table I's evaluate phase has two queries per draw, and
      // so two layer samples.
      const double per_query = mean(ms);
      layers.set(name, per_query);
      rest -= per_query;
    }
    o.set("layers_mean_ms", layers);
    o.set("unaccounted_mean_ms", rest);
    phases.set(to_string(ph), o);
  }
  lcrb::JsonValue setup = lcrb::JsonValue::object();
  double setup_rest = mean(b.setup_ms);
  setup.set("open_mean_ms", setup_rest);
  for (const char* name :
       {"graph.load_ms", "community.louvain_ms", "graph.build_ef_ms"}) {
    setup.set(name, L.avg(name));
    setup_rest -= L.avg(name);
  }
  setup.set("unaccounted_mean_ms", setup_rest);
  phases.set("setup", setup);
  provenance.set("phase_decomposition", phases);
  lcrb::JsonValue samples = lcrb::JsonValue::object();
  for (const auto& [name, xs] : L.samples) {
    samples.set(name, static_cast<std::uint64_t>(xs.size()));
  }
  samples.set("service.queue_wait_p50_ms",
              static_cast<std::uint64_t>(queue_ms.size()));
  provenance.set("samples", samples);
  provenance.set("replayed_draws", static_cast<std::uint64_t>(replayed.size()));
  provenance.set("trace_overhead_frac",
                 b.loop_wall_ms > 0.0 ? b.span_cost_ms / b.loop_wall_ms : 0.0);

  const lcrb::GraphRef g = b.session()->graph();
  double evals = 0.0;
  double picks = 0.0;
  for (double x : L.samples["greedy.sigma_evaluations"]) evals += x;
  for (double x : L.samples["greedy.picks"]) picks += x;
  double runs = 0.0;
  double acts = 0.0;
  double eval_s = 0.0;
  for (double x : L.samples["diffusion.runs"]) runs += x;
  for (double x : L.samples["diffusion.activations"]) acts += x;
  for (double x : L.samples["diffusion.eval_ms"]) eval_s += x / 1e3;

  lcrb::JsonValue m = lcrb::JsonValue::object();
  put_metric(m, "graph.load_ms", L.med("graph.load_ms"), "ms");
  put_metric(m, "graph.build_ef_ms", L.med("graph.build_ef_ms"), "ms");
  put_metric(m, "graph.bytes_per_arc",
             static_cast<double>(g.memory_bytes()) /
                 static_cast<double>(g.num_edges()),
             "B/arc");
  put_metric(m, "community.louvain_ms", L.med("community.louvain_ms"), "ms");
  put_metric(m, "bridge.prepare_ms", L.med("bridge.prepare_ms"), "ms");
  put_metric(m, "bridge.ends_mean", L.avg("bridge.ends_mean"), "count");
  put_metric(m, "sigma.build_ms", L.med("sigma.build_ms"), "ms");
  put_metric(m, "sigma.eval_us", L.med("sigma.eval_us"), "us");
  put_metric(m, "sigma.nodes_visited", L.avg("sigma.nodes_visited"), "count");
  put_metric(m, "sigma.cache_mib", L.avg("sigma.cache_mib"), "MiB");
  put_metric(m, "greedy.select_ms", L.med("greedy.select_ms"), "ms");
  put_metric(m, "greedy.sigma_evaluations",
             L.avg("greedy.sigma_evaluations"), "count");
  put_metric(m, "greedy.picks_per_eval", evals > 0.0 ? picks / evals : 0.0,
             "ratio");
  put_metric(m, "ris.generate_ms", L.med("ris.generate_ms"), "ms");
  put_metric(m, "ris.sets_per_s", L.med("ris.sets_per_s"), "1/s");
  put_metric(m, "ris.rr_sets", L.avg("ris.rr_sets"), "count");
  put_metric(m, "ris.rr_nodes_total", L.avg("ris.rr_nodes_total"), "count");
  put_metric(m, "ris.greedy_ms", L.med("ris.greedy_ms"), "ms");
  put_metric(m, "ris.rounds", L.avg("ris.rounds"), "count");
  put_metric(m, "ris.guarantee_met_frac", L.avg("ris.guarantee_met_frac"),
             "ratio");
  put_metric(m, "ris.pool_mib", L.avg("ris.pool_mib"), "MiB");
  put_metric(m, "scbg.select_ms", L.med("scbg.select_ms"), "ms");
  put_metric(m, "maxdegree.select_ms", L.med("maxdegree.select_ms"), "ms");
  put_metric(m, "diffusion.eval_ms", L.med("diffusion.eval_ms"), "ms");
  put_metric(m, "diffusion.runs_per_s", eval_s > 0.0 ? runs / eval_s : 0.0,
             "1/s");
  put_metric(m, "diffusion.activations_per_s",
             eval_s > 0.0 ? acts / eval_s : 0.0, "1/s");
  put_metric(m, "service.exec_overhead_us", exec_us, "us");
  put_metric(m, "service.dispatch_us", dispatch_us, "us");
  put_metric(m, "service.json_us", json_us, "us");
  put_metric(m, "service.queue_wait_p50_ms", median(queue_ms), "ms");
  put_metric(m, "service.setup_hit_rate",
             hit_rate(b.records, &QueryRecord::setup_hit), "ratio");
  put_metric(m, "service.estimator_hit_rate",
             hit_rate(b.records, &QueryRecord::estimator_hit), "ratio");
  put_metric(m, "service.ris_hit_rate",
             hit_rate(b.records, &QueryRecord::ris_hit), "ratio");
  put_metric(m, "host.spin_ms", median(spin), "ms");
  return m;
}

}  // namespace perfbench
