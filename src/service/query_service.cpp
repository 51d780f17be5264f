#include "service/query_service.h"

#include <algorithm>
#include <utility>

#include "community/detect.h"
#include "graph/io.h"
#include "lcrb/pipeline.h"
#include "util/error.h"

namespace lcrb::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Deadline test at a stage boundary, for budgets that survived admission
/// (positive deadline_ms; a zero budget never reaches these checks — it is
/// deadline_rejected on entry, which keeps deadline failures reproducible).
bool deadline_lapsed(const QueryRequest& req, Clock::time_point admitted) {
  if (req.deadline_ms <= 0) return false;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - admitted);  // det-ok[D3]: deadline bookkeeping; affects only whether we answer, never the answer
  return elapsed.count() >= req.deadline_ms;
}

void check_deadline(const QueryRequest& req, Clock::time_point admitted) {
  if (deadline_lapsed(req, admitted)) {
    throw ServiceError(ErrorCode::kDeadlineExpired, "deadline expired");
  }
}

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)  // det-ok[D3]: elapsed-time metadata reported in the meta block only
      .count();
}

std::size_t resolve_executors(std::size_t max_concurrent) {
  if (max_concurrent != 0) return max_concurrent;
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, std::max<std::size_t>(hw / 2, 1));
}

}  // namespace

QueryService::QueryService(ServiceConfig cfg)
    : cfg_(cfg), pool_(cfg.threads), registry_(cfg.max_resident_bytes) {
  dispatcher_ = std::make_unique<Dispatcher>(
      [this](const QueryRequest& req, Clock::time_point admitted) {
        return execute(req, admitted);
      },
      resolve_executors(cfg_.max_concurrent), cfg_.default_quota,
      cfg_.tenant_quotas);
}

QueryService::~QueryService() {
  // Explicit: fail queued work with code `shutdown` and join executors while
  // the registry and pool are still intact.
  dispatcher_->shutdown();
}

std::shared_ptr<GraphSession> QueryService::open_dataset(
    const std::string& dataset, const std::string& edge_list_path,
    bool undirected, std::uint64_t community_seed, GraphBackend backend) {
  if (std::shared_ptr<GraphSession> existing = registry_.find(dataset)) {
    return existing;
  }
  DiGraph g = load_edge_list(edge_list_path, undirected);
  Partition p =
      detect_communities(g, CommunityMethod::kLouvain, community_seed);
  return registry_.open(dataset, to_backend(std::move(g), backend),
                        std::move(p));
}

QueryResult QueryService::run(const QueryRequest& req) {
  return execute(req, Clock::now());  // det-ok[D3]: admission timestamp for deadline bookkeeping, not in result path
}

QueryService::Ticket QueryService::submit_async(
    QueryRequest req, std::function<void(QueryResult)> done) {
  return dispatcher_->submit(std::move(req), std::move(done));
}

std::future<QueryResult> QueryService::submit(QueryRequest req) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> fut = promise->get_future();
  submit_async(std::move(req), [promise](QueryResult result) {
    promise->set_value(std::move(result));
  });
  return fut;
}

std::vector<QueryResult> QueryService::run_batch(
    std::vector<QueryRequest> reqs) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(reqs.size());
  for (QueryRequest& req : reqs) futures.push_back(submit(std::move(req)));
  std::vector<QueryResult> out;
  out.reserve(futures.size());
  for (std::future<QueryResult>& f : futures) out.push_back(f.get());
  return out;
}

bool QueryService::cancel(Ticket ticket) { return dispatcher_->cancel(ticket); }

void QueryService::pause() { dispatcher_->pause(); }

void QueryService::resume() { dispatcher_->resume(); }

void QueryService::drain() { dispatcher_->drain(); }

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.dispatch = dispatcher_->stats();
  s.registry = registry_.stats();
  return s;
}

QueryResult QueryService::execute(const QueryRequest& req,
                                  Clock::time_point admitted) {
  const Clock::time_point started = Clock::now();  // det-ok[D3]: elapsed_ms meta field only; results depend solely on req + seed
  JsonValue meta = JsonValue::object();
  QueryResult result;
  try {
    if (req.dataset.empty()) {
      throw ServiceError(ErrorCode::kInvalidArgument,
                         "request: dataset is required");
    }
    if (req.deadline_ms == 0) {
      // The same deterministic rejection the dispatcher applies at
      // admission, so run() and submit() answer a spent budget identically
      // (code deadline_rejected, v1 message "deadline exceeded").
      throw ServiceError(ErrorCode::kDeadlineRejected, "deadline exceeded");
    }
    check_deadline(req, admitted);
    std::shared_ptr<GraphSession> session = registry_.find(req.dataset);
    if (session == nullptr) {
      throw ServiceError(ErrorCode::kUnknownDataset,
                         "unknown dataset '" + req.dataset +
                             "' (open it first)");
    }
    if (req.op == QueryOp::kInfo) {
      // Never cached: resident_bytes truthfully tracks warm-cache growth.
      result = execute_info(req, *session);
    } else {
      // Select/evaluate results are deterministic functions of the immutable
      // session and the request, so a warm session replays them from its
      // result cache instead of recomputing.
      const std::string result_key = make_result_key(req);
      if (std::shared_ptr<const QueryResult> cached =
              session->cached_result(result_key)) {
        result = *cached;
        result.version = req.version;
        result.id = req.id;
        meta.set("result_cache_hit", true);
      } else {
        meta.set("result_cache_hit", false);
        result = req.op == QueryOp::kSelect
                     ? execute_select(req, *session, admitted, meta)
                     : execute_evaluate(req, *session, admitted, meta);
        if (result.ok) session->store_result(result_key, result);
      }
    }
    result.version = req.version;
  } catch (const ServiceError& e) {
    result = QueryResult::make_error(req, e.code(), e.what());
  } catch (const Error& e) {
    // Bare lcrb::Error from option validation or request-derived values:
    // the invalid_argument class, with the v1 message surface unchanged.
    result = QueryResult::make_error(req, e.what());
  } catch (const std::exception& e) {
    // Anything else (std::bad_alloc, a library bug) fails this query alone;
    // it must never unwind through a dispatcher thread.
    result = QueryResult::make_error(req, ErrorCode::kInternal, e.what());
  }
  if (cfg_.collect_meta) {
    meta.set("wall_ms", elapsed_ms(started));
    result.meta = std::move(meta);
  }
  return result;
}

std::shared_ptr<const ExperimentSetup> QueryService::setup_for(
    const QueryRequest& req, GraphSession& session, std::string* key_out,
    bool* cache_hit) {
  const Partition& p = session.partition();
  // Multi-rumor requests resolve to their flattened union: the bridge ends
  // (and so the setup) depend only on WHERE the rumors are, not on how the
  // campaigns split them — group partitions with equal unions share one
  // memoized setup.
  std::vector<NodeId> rumor_ids = req.rumor_ids;
  if (!req.rumor_groups.empty()) {
    rumor_ids.clear();
    for (const auto& group : req.rumor_groups) {
      LCRB_REQUIRE(!group.empty(), "rumor groups must be non-empty");
      rumor_ids.insert(rumor_ids.end(), group.begin(), group.end());
    }
    std::sort(rumor_ids.begin(), rumor_ids.end());
    rumor_ids.erase(std::unique(rumor_ids.begin(), rumor_ids.end()),
                    rumor_ids.end());
  }
  CommunityId community = req.rumor_community;
  if (rumor_ids.empty() && community == kInvalidCommunity) {
    community = p.closest_to_size(static_cast<NodeId>(req.community_size));
  }
  const std::string key =
      make_setup_key(rumor_ids, community, req.num_rumors, req.rumor_seed);
  *key_out = key;
  std::shared_ptr<const ExperimentSetup> setup = session.find_setup(key);
  *cache_hit = setup != nullptr;
  if (setup != nullptr) return setup;
  const GraphRef g = session.graph();
  if (!rumor_ids.empty()) {
    return std::make_shared<const ExperimentSetup>(
        prepare_experiment_with_rumors(g, p, std::move(rumor_ids)));
  }
  LCRB_REQUIRE(community < p.num_communities(),
               "rumor community out of range");
  const std::size_t k = std::min<std::size_t>(
      std::max<std::size_t>(req.num_rumors, 1), p.size_of(community));
  return std::make_shared<const ExperimentSetup>(
      prepare_experiment(g, p, community, k, req.rumor_seed));
}

QueryResult QueryService::execute_select(const QueryRequest& req,
                                         GraphSession& session,
                                         Clock::time_point admitted,
                                         JsonValue& meta) {
  req.options.validate();
  QueryResult result;
  result.version = req.version;
  result.id = req.id;
  result.op = req.op;
  result.dataset = req.dataset;

  bool setup_hit = false;
  std::string setup_key;
  std::shared_ptr<const ExperimentSetup> setup =
      setup_for(req, session, &setup_key, &setup_hit);
  meta.set("setup_cache_hit", setup_hit);
  result.rumor_community = setup->rumor_community;
  result.rumors = setup->rumors;
  result.num_bridge_ends = setup->bridges.bridge_ends.size();
  check_deadline(req, admitted);

  // Lend the session's warm sigma state to the selector that reads it.
  const LcrbOptions& opts = req.options;
  WarmSigma warm;
  std::shared_ptr<SigmaEstimator> estimator;
  std::shared_ptr<RisContext> ris;
  if (opts.selector == SelectorKind::kGreedy) {
    bool hit = false;
    if (opts.sigma_mode == SigmaMode::kMonteCarlo) {
      estimator = session.estimator_for(setup_key, *setup,
                                        opts.sigma_config(), &pool_, &hit);
      meta.set("estimator_cache_hit", hit);
      warm.estimator = estimator.get();
    } else {
      ris = session.ris_context_for(setup_key, *setup, opts.ris_config(),
                                    &hit);
      meta.set("ris_cache_hit", hit);
      warm.ris = ris.get();
    }
    check_deadline(req, admitted);
  }
  Selection s = lcrb::select(*setup, opts, &pool_, warm);
  if (!setup_hit) session.keep_setup(setup_key, setup);

  result.protectors = std::move(s.protectors);
  result.protector_groups = std::move(s.groups);
  result.achieved_fraction = s.achieved_fraction;
  result.gain_history = std::move(s.gain_history);
  result.candidate_count = s.candidate_count;
  result.sigma_evaluations = s.sigma_evaluations;
  if (!result.protector_groups.empty()) {
    meta.set("multi_mode", to_string(opts.multi_mode));
  }
  if (s.ris) {
    meta.set("ris_rounds", static_cast<std::uint64_t>(s.ris->rounds));
    meta.set("ris_sigma_lower", s.ris->sigma_lower);
    meta.set("ris_sigma_upper", s.ris->sigma_upper);
    meta.set("ris_guarantee_met", s.ris->guarantee_met);
    meta.set("ris_stop_reason", to_string(s.ris->stop_reason));
  }
  return result;
}

QueryResult QueryService::execute_evaluate(const QueryRequest& req,
                                           GraphSession& session,
                                           Clock::time_point admitted,
                                           JsonValue& meta) {
  req.options.validate();
  QueryResult result;
  result.version = req.version;
  result.id = req.id;
  result.op = req.op;
  result.dataset = req.dataset;

  for (NodeId v : req.protectors) {
    LCRB_REQUIRE(v < session.graph().num_nodes(),
                 "protector id out of range");
  }
  bool setup_hit = false;
  std::string setup_key;
  std::shared_ptr<const ExperimentSetup> setup =
      setup_for(req, session, &setup_key, &setup_hit);
  meta.set("setup_cache_hit", setup_hit);
  result.rumor_community = setup->rumor_community;
  result.rumors = setup->rumors;
  result.num_bridge_ends = setup->bridges.bridge_ends.size();
  result.protectors = req.protectors;
  check_deadline(req, admitted);

  LCRB_REQUIRE(req.eval_runs >= 1, "eval_runs must be >= 1");
  MonteCarloConfig mc;
  mc.runs = req.eval_runs;
  mc.seed = req.eval_seed;
  mc.max_hops = req.options.max_hops;
  mc.model = req.options.model;
  mc.ic_edge_prob = req.options.ic_edge_prob;
  HopSeries series;
  if (!req.rumor_groups.empty()) {
    // K-way evaluation: one rumor cascade per group, protectors as cascade 0,
    // ordered by the request's cascade_priority.
    const std::vector<std::vector<NodeId>> protector_groups{req.protectors};
    series = evaluate_protector_groups(*setup, req.rumor_groups,
                                       protector_groups,
                                       req.options.cascade_priority, mc,
                                       &pool_);
  } else {
    series = evaluate_protectors(*setup, req.protectors, mc, &pool_);
  }
  if (!setup_hit) session.keep_setup(setup_key, setup);
  result.infected_by_hop = series.infected_mean;
  result.infected_ci95 = series.infected_ci95;
  result.protected_by_hop = series.protected_mean;
  result.final_infected_mean = series.final_infected_mean;
  result.final_protected_mean = series.final_protected_mean;
  result.saved_fraction = series.saved_fraction_mean;
  return result;
}

QueryResult QueryService::execute_info(const QueryRequest& req,
                                       GraphSession& session) {
  QueryResult result;
  result.version = req.version;
  result.id = req.id;
  result.op = req.op;
  result.dataset = req.dataset;
  result.num_nodes = session.graph().num_nodes();
  result.num_arcs = static_cast<std::size_t>(session.graph().num_edges());
  result.num_communities = session.partition().num_communities();
  result.resident_bytes = session.memory_bytes();
  return result;
}

}  // namespace lcrb::service
