#include "bench.h"

#include <algorithm>
#include <fstream>
#include <thread>

#include "util/error.h"

namespace perfbench {

namespace {

int meta_flag(const QueryResult& r, const char* key) {
  const lcrb::JsonValue* v = r.meta.find(key);
  return v == nullptr ? -1 : (v->as_bool() ? 1 : 0);
}

}  // namespace

Bench::Bench(Workload w, std::uint64_t seed, const std::string& workdir,
             bool record_spans)
    : w_(std::move(w)),
      seed_(seed),
      record_spans_(record_spans),
      epoch_(Clock::now()),
      in_(make_inputs(w_, workdir + "/" + w_.name + "-" +
                              std::to_string(seed_) + ".edges")),
      svc_(std::make_unique<lcrb::service::QueryService>(service_config(w_))),
      probe_(std::make_unique<lcrb::service::QueryService>(
          service_config(w_, /*executors=*/1))) {}

int Bench::span(std::string name, std::uint64_t request, int parent,
                Clock::time_point start, Clock::time_point end) {
  const Clock::time_point t0 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans.push_back({std::move(name), request, parent,
                   ms_between(epoch_, start), ms_between(epoch_, end)});
  span_cost_ms += ms_between(t0, Clock::now());
  return static_cast<int>(spans.size()) - 1;
}

void Bench::end_span(int index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans[static_cast<std::size_t>(index)].end_ms = ms_between(epoch_, now);
}

void Bench::write_spans(const std::string& path) const {
  lcrb::JsonValue arr = lcrb::JsonValue::array();
  for (const Span& s : spans) {
    lcrb::JsonValue o = lcrb::JsonValue::object();
    o.set("name", s.name);
    o.set("request", s.request);
    o.set("parent", s.parent);
    o.set("start_ms", s.start_ms);
    o.set("end_ms", s.end_ms);
    arr.push_back(std::move(o));
  }
  std::ofstream(path) << arr.dump() << "\n";
}

void Bench::fail(std::string message) {
  ++failed;
  if (errors.size() < 20) errors.push_back(std::move(message));
}

std::shared_ptr<lcrb::service::GraphSession> Bench::timed_open(
    lcrb::service::QueryService& svc, const std::string& dataset,
    lcrb::GraphBackend backend, bool sample) {
  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<lcrb::service::GraphSession> s =
      svc.open_dataset(dataset, in_.edge_path, false, 1, backend);
  const Clock::time_point t1 = Clock::now();
  if (sample) setup_ms.push_back(ms_between(t0, t1));
  if (record_spans_) span("setup.open", 0, -1, t0, t1);
  return s;
}

QueryResult Bench::submit(lcrb::service::QueryService& svc,
                          const QueryRequest& req, Phase phase, const Draw& d,
                          std::vector<QueryRecord>* recs) {
  const Clock::time_point t0 = Clock::now();
  QueryResult r = svc.submit(req).get();
  const Clock::time_point t1 = Clock::now();
  QueryRecord rec;
  rec.phase = phase;
  rec.draw = d.index;
  rec.fraction = d.fraction;
  rec.latency_ms = ms_between(t0, t1);
  rec.wall_ms = r.meta.get_double("wall_ms", 0.0);
  rec.setup_hit = meta_flag(r, "setup_cache_hit");
  rec.estimator_hit = meta_flag(r, "estimator_cache_hit");
  rec.ris_hit = meta_flag(r, "ris_cache_hit");
  if (recs != nullptr) recs->push_back(rec);
  if (record_spans_) {
    // Queue and execution split at the service's own wall_ms.
    const Clock::time_point exec_start =
        t1 - std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(rec.wall_ms));
    const int q = span(std::string("query.") + to_string(phase), d.index, -1,
                       t0, t1);
    span("service.queue", d.index, q, t0, std::max(t0, exec_start));
    span("service.exec", d.index, q, std::max(t0, exec_start), t1);
  }
  return r;
}

std::string Bench::run_draw(lcrb::service::QueryService& svc,
                            const std::string& dataset, const Draw& d,
                            std::vector<QueryRecord>* recs, DrawRecord* out) {
  out->draw = d;
  auto query = [&](QueryRequest req, Phase phase) {
    QueryResult r = submit(svc, req, phase, d, recs);
    out->requests.push_back(std::move(req));
    out->results.push_back(r);
    return r;
  };
  auto failure = [&](const QueryResult& r) {
    return "draw " + std::to_string(d.index) + " " + r.id + ": " + r.error;
  };
  const QueryResult cold = query(cold_select(w_, dataset, community_, d),
                                 Phase::kSelectCold);
  if (!cold.ok) return failure(cold);
  if (cold.protectors.empty()) {
    return "draw " + std::to_string(d.index) + ": empty selection";
  }
  const QueryResult warm =
      query(warm_select(w_, dataset, community_, d, cold.protectors.size()),
            Phase::kSelectWarm);
  if (!warm.ok) return failure(warm);
  const QueryResult ev =
      query(evaluate(w_, dataset, community_, d, cold.protectors, "eval"),
            Phase::kEvaluate);
  if (!ev.ok) return failure(ev);
  if (w_.email) {
    // LCRB-D: SCBG protects every bridge end under DOAM by construction.
    if (ev.saved_fraction != 1.0) {
      return "draw " + std::to_string(d.index) +
             ": SCBG selection saved only " + std::to_string(ev.saved_fraction);
    }
    const QueryResult md =
        query(evaluate(w_, dataset, community_, d, warm.protectors, "eval-md"),
              Phase::kEvaluate);
    if (!md.ok) return failure(md);
  }
  return "";
}

void Bench::warm_up() {
  const std::string id = "warmup";
  std::shared_ptr<lcrb::service::GraphSession> s =
      probe_->open_dataset(id, in_.edge_path, false, 1, w_.backend);
  community_ = s->partition().closest_to_size(in_.planted_size);
  community_size_ = s->partition().size_of(community_);
  for (std::uint64_t i = 0; i < kWarmupDraws; ++i) {
    DrawRecord dr;
    const std::string err = run_draw(
        *probe_, id,
        make_draw(kWarmupSeed, kWarmupDrawBase + i, community_,
                  community_size_),
        nullptr, &dr);
    if (!err.empty()) throw lcrb::Error("warm-up draw failed: " + err);
  }
  rss_mib = peak_rss_mib();
  s.reset();
  probe_->registry().close(id);
}

void Bench::open_sessions() {
  // Fresh sessions per segment: the warm caches of a session grow with every
  // draw and nothing in the service bounds them, so a run-long session would
  // make late draws pay for a heap that early ones did not.
  sessions_.clear();
  for (const std::string& id : datasets_) svc_->registry().close(id);
  datasets_.clear();
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < w_.clients; ++c) {
    datasets_.push_back("client" + std::to_string(c));
    sessions_.push_back(timed_open(*svc_, datasets_.back(), w_.backend, true));
    // Same file, same Louvain seed: every session resolves the same
    // community as the warm-up did.
    if (sessions_.back()->partition().closest_to_size(in_.planted_size) !=
        community_) {
      throw lcrb::Error("sessions resolved different rumor communities");
    }
  }
  // More set-up samples while opens are cheap (the Fig. 4 graph opens in
  // ~10 ms), up to 100 ms at this point of the run.
  while (ms_between(start, Clock::now()) < 100.0) {
    const std::string id = "probe" + std::to_string(probe_opens_++);
    timed_open(*probe_, id, w_.backend, true);
    probe_->registry().close(id);
  }
}

void Bench::run_loop(double seconds, std::size_t segments) {
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(segments)));
  // A segment also runs on past its deadline until its share of the minimum
  // draw count has been taken, so a slow host shortens no run below it.
  const std::uint64_t min_draws =
      (kMinQueries + w_.queries_per_draw() - 1) / w_.queries_per_draw();
  const CpuTicks ticks = cpu_ticks();
  for (std::size_t s = 0; s < segments; ++s) {
    open_sessions();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + slice;
    const std::uint64_t draw_floor = (min_draws * (s + 1) + segments - 1) /
                                     static_cast<std::uint64_t>(segments);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < w_.clients; ++c) {
      clients.emplace_back([this, c, deadline, draw_floor] {
        while (Clock::now() < deadline || next_draw_.load() < draw_floor) {
          const Draw d = make_draw(seed_, next_draw_.fetch_add(1),
                                   community_, community_size_);
          std::vector<QueryRecord> recs;
          DrawRecord dr;
          std::string err;
          try {
            err = run_draw(*svc_, datasets_[c], d, &recs, &dr);
          } catch (const std::exception& e) {
            err = e.what();
          }
          std::lock_guard<std::mutex> lock(mu_);
          // Every query, plus Table I's SCBG full-protection check.
          attempted += recs.size() + (w_.email ? 1 : 0);
          if (!err.empty()) fail(err);
          records.insert(records.end(), recs.begin(), recs.end());
          draws.push_back(std::move(dr));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    loop_wall_ms += ms_between(start, Clock::now());
  }
  steal_frac = perfbench::steal_frac(ticks, cpu_ticks());
  std::sort(draws.begin(), draws.end(),
            [](const DrawRecord& a, const DrawRecord& b) {
              return a.draw.index < b.draw.index;
            });
}

void Bench::check_outputs(bool corrupt) {
  // One draw per |R| fraction from the start of the run, plus the last one
  // (answered by the session with the most warm state).
  std::vector<const DrawRecord*> sample;
  for (const DrawRecord& dr : draws) {
    if (dr.draw.index < 3 || &dr == &draws.back()) sample.push_back(&dr);
  }
  auto replay = [&](lcrb::GraphBackend backend, bool setup_sample,
                    const char* label) {
    lcrb::service::QueryService fresh(service_config(w_));
    const std::string id = "replay";
    timed_open(fresh, id, backend, setup_sample);
    for (const DrawRecord* dr : sample) {
      for (std::size_t i = 0; i < dr->requests.size(); ++i) {
        QueryRequest req = dr->requests[i];
        req.dataset = id;
        QueryResult r = fresh.submit(req).get();
        r.dataset = dr->requests[i].dataset;
        std::string expected = payload(dr->results[i]);
        if (corrupt && dr == sample.front() && i == 0) {
          expected[expected.size() / 2] ^= 0x20;
        }
        ++attempted;
        if (payload(r) != expected) {
          fail(std::string(label) + " replay of " + req.id + " differs");
        }
      }
    }
  };
  replay(w_.backend, true, "fresh-service");
  if (w_.backend == lcrb::GraphBackend::kEf) {
    // EF and CSR must answer byte-identically; the CSR open is not this
    // workload's set-up, so it is not a set-up sample.
    replay(lcrb::GraphBackend::kCsr, false, "csr");
  }
}

}  // namespace perfbench
