#include "service/query_service.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "lcrb/pipeline.h"
#include "service/session.h"

namespace lcrb::service {
namespace {

/// One shared test graph; every test builds its own QueryService so warm
/// state never leaks between tests.
struct ServiceFixture : public ::testing::Test {
  void SetUp() override {
    CommunityGraphConfig cfg;
    cfg.community_sizes = {40, 40, 40};
    cfg.avg_intra_degree = 6.0;
    cfg.avg_inter_degree = 1.0;
    cfg.seed = 5;
    cg = make_community_graph(cfg);
    p = Partition(cg.membership);
  }

  std::unique_ptr<QueryService> make_service(std::size_t threads = 2) {
    ServiceConfig cfg;
    cfg.threads = threads;
    auto svc = std::make_unique<QueryService>(cfg);
    svc->registry().open("ds", cg.graph, p);
    return svc;
  }

  /// Greedy MC select with small, fast knobs.
  static QueryRequest select_request() {
    QueryRequest req;
    req.op = QueryOp::kSelect;
    req.dataset = "ds";
    req.rumor_community = 0;
    req.num_rumors = 3;
    req.rumor_seed = 17;
    req.options.alpha = 0.9;
    req.options.sigma_samples = 5;
    req.options.sigma_seed = 21;
    req.options.max_candidates = 40;
    return req;
  }

  CommunityGraph cg;
  Partition p;
};

TEST_F(ServiceFixture, SelectMatchesTheDirectPipelinePath) {
  auto svc = make_service();
  const QueryRequest req = select_request();
  const QueryResult r = svc->run(req);
  ASSERT_TRUE(r.ok) << r.error;

  const ExperimentSetup setup =
      prepare_experiment(cg.graph, p, 0, req.num_rumors, req.rumor_seed);
  const std::vector<NodeId> expected =
      select_protectors(setup, req.options, &svc->pool());
  EXPECT_EQ(r.protectors, expected);
  EXPECT_EQ(r.rumors, setup.rumors);
  EXPECT_EQ(r.rumor_community, setup.rumor_community);
  EXPECT_EQ(r.num_bridge_ends, setup.bridges.bridge_ends.size());
  EXPECT_GE(r.achieved_fraction, req.options.alpha);
  EXPECT_EQ(r.gain_history.size(), r.protectors.size());
  EXPECT_GT(r.sigma_evaluations, 0u);
}

TEST_F(ServiceFixture, WarmRepeatIsByteIdenticalAndHitsTheCaches) {
  auto svc = make_service();
  const QueryRequest req = select_request();
  const QueryResult cold = svc->run(req);
  const QueryResult warm = svc->run(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(warm.to_json(false).dump(), cold.to_json(false).dump());
  EXPECT_FALSE(cold.meta.get_bool("result_cache_hit", true));
  EXPECT_FALSE(cold.meta.get_bool("setup_cache_hit", true));
  EXPECT_FALSE(cold.meta.get_bool("estimator_cache_hit", true));
  // An identical request replays from the result cache.
  EXPECT_TRUE(warm.meta.get_bool("result_cache_hit", false));

  // A *different* request with the same experiment shape recomputes but
  // reuses the warm setup and sigma estimator.
  QueryRequest req2 = req;
  req2.options.budget = 2;
  const QueryResult sibling = svc->run(req2);
  ASSERT_TRUE(sibling.ok) << sibling.error;
  EXPECT_FALSE(sibling.meta.get_bool("result_cache_hit", true));
  EXPECT_TRUE(sibling.meta.get_bool("setup_cache_hit", false));
  EXPECT_TRUE(sibling.meta.get_bool("estimator_cache_hit", false));
  EXPECT_EQ(sibling.protectors.size(), 2u);
}

TEST_F(ServiceFixture, RisWarmRepeatIsByteIdentical) {
  auto svc = make_service();
  QueryRequest req = select_request();
  req.options.sigma_mode = SigmaMode::kRis;
  req.options.ris_initial_sets = 64;
  req.options.ris_max_sets = 4096;
  const QueryResult cold = svc->run(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_FALSE(cold.protectors.empty());
  // An identical repeat replays from the result cache.
  const QueryResult warm = svc->run(req);
  EXPECT_EQ(warm.to_json(false).dump(), cold.to_json(false).dump());
  EXPECT_TRUE(warm.meta.get_bool("result_cache_hit", false));

  // A different accuracy target recomputes against the SAME warm pools
  // (prefix evaluation, the PR-2 guarantee) — not a fresh draw.
  QueryRequest req2 = req;
  req2.options.ris_max_sets = 8192;
  const QueryResult sibling = svc->run(req2);
  ASSERT_TRUE(sibling.ok) << sibling.error;
  EXPECT_FALSE(sibling.meta.get_bool("result_cache_hit", true));
  EXPECT_TRUE(sibling.meta.get_bool("ris_cache_hit", false));
}

TEST_F(ServiceFixture, EvaluateMatchesTheDirectPipelinePath) {
  auto svc = make_service();
  QueryRequest req = select_request();
  req.op = QueryOp::kEvaluate;
  req.protectors = {1, 2, 3};
  req.eval_runs = 20;
  req.eval_seed = 5;
  const QueryResult r = svc->run(req);
  ASSERT_TRUE(r.ok) << r.error;

  const ExperimentSetup setup =
      prepare_experiment(cg.graph, p, 0, req.num_rumors, req.rumor_seed);
  MonteCarloConfig mc;
  mc.runs = req.eval_runs;
  mc.seed = req.eval_seed;
  mc.max_hops = req.options.max_hops;
  mc.model = req.options.model;
  mc.ic_edge_prob = req.options.ic_edge_prob;
  const HopSeries hs =
      evaluate_protectors(setup, req.protectors, mc, &svc->pool());
  EXPECT_EQ(r.infected_by_hop, hs.infected_mean);
  EXPECT_EQ(r.infected_ci95, hs.infected_ci95);
  EXPECT_EQ(r.protected_by_hop, hs.protected_mean);
  EXPECT_EQ(r.final_infected_mean, hs.final_infected_mean);
  EXPECT_EQ(r.final_protected_mean, hs.final_protected_mean);
  EXPECT_EQ(r.saved_fraction, hs.saved_fraction_mean);
}

TEST_F(ServiceFixture, InfoReportsTheSessionShape) {
  auto svc = make_service();
  QueryRequest req;
  req.op = QueryOp::kInfo;
  req.dataset = "ds";
  const QueryResult r = svc->run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.num_nodes, cg.graph.num_nodes());
  EXPECT_EQ(r.num_arcs, static_cast<std::size_t>(cg.graph.num_edges()));
  EXPECT_EQ(r.num_communities,
            static_cast<std::size_t>(p.num_communities()));
  EXPECT_GT(r.resident_bytes, 0u);
}

TEST_F(ServiceFixture, OverBoundSigmaCacheIsRefusedWithoutWarmingState) {
  // A Monte-Carlo select whose sigma cache would exceed kMaxSigmaCacheBytes
  // is a deterministic invalid_argument, leaves the session's warm state as
  // it was, and does not change the bytes of the next select.
  auto svc = make_service();
  QueryRequest info;
  info.op = QueryOp::kInfo;
  info.dataset = "ds";
  ASSERT_TRUE(svc->run(select_request()).ok);  // warms the shared setup
  const std::size_t before = svc->run(info).resident_bytes;

  QueryRequest over = select_request();
  over.version = 2;
  over.options.max_hops = 0xffffffff;  // OPOAO pick tables: far over 1 GiB
  const QueryResult refused = svc->run(over);
  ASSERT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, ErrorCode::kInvalidArgument);
  const JsonValue wire = refused.to_json(false);
  const JsonValue* err = wire.find("error");
  ASSERT_NE(err, nullptr);
  ASSERT_TRUE(err->is_object());
  EXPECT_EQ(err->get_string("code", ""), "invalid_argument");
  EXPECT_FALSE(err->get_bool("retryable", true));
  EXPECT_NE(err->get_string("message", "").find(
                "-byte bound; lower sigma_samples or max_hops"),
            std::string::npos)
      << wire.dump();
  EXPECT_EQ(svc->run(info).resident_bytes, before);

  QueryRequest next = select_request();
  next.options.sigma_seed = 22;
  const QueryResult warm = svc->run(next);
  ASSERT_TRUE(warm.ok) << warm.error;
  const QueryResult fresh = make_service()->run(next);
  EXPECT_EQ(warm.to_json(false).dump(), fresh.to_json(false).dump());

  // The same refusal for a rumor draw the session has never seen: the
  // select builds that draw's setup, but keeps it only once a query on it
  // succeeds.
  const std::size_t settled = svc->run(info).resident_bytes;
  QueryRequest unseen = over;
  unseen.rumor_seed = 99;
  const QueryResult refused_unseen = svc->run(unseen);
  ASSERT_FALSE(refused_unseen.ok);
  EXPECT_EQ(refused_unseen.error_code, ErrorCode::kInvalidArgument);
  EXPECT_FALSE(refused_unseen.meta.get_bool("setup_cache_hit", true));
  EXPECT_EQ(svc->run(info).resident_bytes, settled);
}

TEST_F(ServiceFixture, OverBoundGvsIsRefusedNamingGvsSamples) {
  // A GVS select replays a realization cache over every non-rumor node, so
  // it meets the greedy's kMaxSigmaCacheBytes bound; the refusal names the
  // option that sized that cache, gvs_samples.
  auto svc = make_service();
  QueryRequest over = select_request();
  over.version = 2;
  over.options.selector = SelectorKind::kGvs;
  over.options.budget = 2;
  over.options.max_hops = 0xffffffff;  // OPOAO pick tables: far over 1 GiB
  const QueryResult refused = svc->run(over);
  ASSERT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, ErrorCode::kInvalidArgument);
  const JsonValue wire = refused.to_json(false);
  const JsonValue* err = wire.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->get_string("code", ""), "invalid_argument");
  const std::string message = err->get_string("message", "");
  EXPECT_NE(message.find("-byte bound; lower gvs_samples or max_hops"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("sigma_samples"), std::string::npos) << message;
}

TEST_F(ServiceFixture, OverBoundEvaluateIsRefusedAndTheServiceKeepsAnswering) {
  // An evaluate whose runs x (max_hops + 1) series would exceed
  // kMaxHopSeriesBytes is a deterministic invalid_argument, answered on a
  // dispatcher thread like any other failure; the session keeps no state
  // for it and the next queries answer as on a fresh service.
  auto svc = make_service();
  QueryRequest info;
  info.op = QueryOp::kInfo;
  info.dataset = "ds";
  const std::size_t before = svc->run(info).resident_bytes;

  QueryRequest over = select_request();
  over.version = 2;
  over.op = QueryOp::kEvaluate;
  over.protectors = {1, 2, 3};
  over.eval_runs = 2;
  over.options.max_hops = 0xffffffff;
  const QueryResult refused = svc->submit(over).get();
  ASSERT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, ErrorCode::kInvalidArgument);
  EXPECT_NE(refused.error.find("-byte bound"), std::string::npos)
      << refused.error;
  EXPECT_EQ(svc->run(info).resident_bytes, before);

  QueryRequest evaluate = over;
  evaluate.eval_runs = 20;
  evaluate.options.max_hops = 31;
  for (const QueryRequest& req : {evaluate, select_request()}) {
    const QueryResult got = svc->submit(req).get();
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.to_json(false).dump(),
              make_service()->run(req).to_json(false).dump());
  }
}

TEST_F(ServiceFixture, CachedResultIsChargedItsRequestKey) {
  // A cached result is held under its canonical request text, whose size
  // the client picks. An evaluate never reads multi_mode or
  // protector_budgets, yet both are part of that text, so resident_bytes
  // must grow by at least the key's length: otherwise distinct eval seeds
  // could pin key memory that max_resident_bytes never sees.
  auto svc = make_service();
  QueryRequest info;
  info.op = QueryOp::kInfo;
  info.dataset = "ds";

  QueryRequest plain = select_request();
  plain.op = QueryOp::kEvaluate;
  plain.protectors = {1, 2, 3};
  plain.eval_runs = 4;
  plain.eval_seed = 5;
  ASSERT_TRUE(svc->run(plain).ok);  // warms the shared setup
  const std::size_t before = svc->run(info).resident_bytes;

  QueryRequest padded = plain;
  padded.eval_seed = 6;
  padded.options.multi_mode = MultiCascadeMode::kCoordinated;
  padded.options.protector_budgets.assign(4096, 1);
  const std::size_t key_bytes = make_result_key(padded).size();
  ASSERT_GT(key_bytes, 2 * 4096u);
  const QueryResult r = svc->run(padded);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.meta.get_bool("result_cache_hit", true));
  EXPECT_GE(svc->run(info).resident_bytes - before, key_bytes);
}

TEST_F(ServiceFixture, BatchIsByteIdenticalToSequential) {
  // The acceptance property: a mixed concurrent batch produces exactly the
  // payload bytes that one-at-a-time execution on a fresh service produces.
  std::vector<QueryRequest> reqs;
  {
    QueryRequest r = select_request();  // greedy MC
    r.id = "greedy";
    reqs.push_back(r);

    r = select_request();
    r.id = "scbg";
    r.options.selector = SelectorKind::kScbg;
    reqs.push_back(r);

    r = select_request();
    r.id = "maxdeg";
    r.options.selector = SelectorKind::kMaxDegree;
    r.options.budget = 4;
    reqs.push_back(r);

    r = select_request();
    r.id = "eval";
    r.op = QueryOp::kEvaluate;
    r.protectors = {1, 2, 3};
    r.eval_runs = 20;
    reqs.push_back(r);

    r = QueryRequest();
    r.id = "info";
    r.op = QueryOp::kInfo;
    r.dataset = "ds";
    reqs.push_back(r);

    r = select_request();
    r.id = "expired";
    r.deadline_ms = 0;
    reqs.push_back(r);

    r = select_request();  // repeat: exercises warm caches inside the batch
    r.id = "greedy-again";
    reqs.push_back(r);
  }

  auto batch_svc = make_service();
  const std::vector<QueryResult> batched = batch_svc->run_batch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());

  auto seq_svc = make_service();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const QueryResult sequential = seq_svc->run(reqs[i]);
    EXPECT_EQ(batched[i].to_json(false).dump(),
              sequential.to_json(false).dump())
        << "request id " << reqs[i].id;
    EXPECT_EQ(batched[i].id, reqs[i].id);
  }
}

TEST_F(ServiceFixture, ConcurrentSubmitsMatchSequentialRuns) {
  auto svc = make_service();
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    QueryRequest r = select_request();
    r.id = std::to_string(i);
    r.options.selector =
        (i % 2 == 0) ? SelectorKind::kGreedy : SelectorKind::kMaxDegree;
    reqs.push_back(r);
  }
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(reqs.size());
  for (const QueryRequest& r : reqs) {
    futures.push_back(std::async(std::launch::async,
                                 [&svc, r] { return svc->submit(r).get(); }));
  }
  auto seq_svc = make_service();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const QueryResult got = futures[i].get();
    const QueryResult want = seq_svc->run(reqs[i]);
    EXPECT_EQ(got.to_json(false).dump(), want.to_json(false).dump())
        << "request id " << reqs[i].id;
  }
}

TEST_F(ServiceFixture, ExpiredDeadlineFailsDeterministically) {
  auto svc = make_service();
  QueryRequest req = select_request();
  req.deadline_ms = 0;  // already expired on admission
  const QueryResult a = svc->run(req);
  const QueryResult b = svc->run(req);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "deadline exceeded");
  EXPECT_TRUE(a.protectors.empty());
  EXPECT_EQ(a.to_json(false).dump(), b.to_json(false).dump());
}

TEST_F(ServiceFixture, UnknownDatasetIsAnErrorResultNotAThrow) {
  auto svc = make_service();
  QueryRequest req = select_request();
  req.dataset = "nope";
  const QueryResult r = svc->run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown dataset"), std::string::npos);
  EXPECT_EQ(r.dataset, "nope");
}

TEST_F(ServiceFixture, InvalidRequestsBecomeErrorResults) {
  auto svc = make_service();
  QueryRequest bad_opts = select_request();
  bad_opts.options.alpha = 0.0;  // rejected by LcrbOptions::validate()
  EXPECT_FALSE(svc->run(bad_opts).ok);

  QueryRequest bad_protector = select_request();
  bad_protector.op = QueryOp::kEvaluate;
  bad_protector.protectors = {
      static_cast<NodeId>(cg.graph.num_nodes() + 10)};
  EXPECT_FALSE(svc->run(bad_protector).ok);

  QueryRequest no_dataset = select_request();
  no_dataset.dataset.clear();
  EXPECT_FALSE(svc->run(no_dataset).ok);
}

TEST_F(ServiceFixture, ExplicitRumorIdsWin) {
  auto svc = make_service();
  QueryRequest req = select_request();
  const std::vector<NodeId> ids = {p.members(0)[0], p.members(0)[1]};
  req.rumor_ids = ids;
  const QueryResult r = svc->run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rumors, ids);
  EXPECT_EQ(r.rumor_community, 0u);
}

TEST_F(ServiceFixture, RequestJsonRoundTrips) {
  QueryRequest req = select_request();
  req.id = "tag-7";
  req.rumor_ids = {4, 5};
  req.protectors = {9};
  req.deadline_ms = 1500;
  const QueryRequest back = QueryRequest::from_json(req.to_json());
  EXPECT_EQ(back.to_json().dump(), req.to_json().dump());

  JsonValue wrong_version = req.to_json();
  wrong_version.set("v", 99);
  EXPECT_THROW(QueryRequest::from_json(wrong_version), Error);
  JsonValue unknown_key = req.to_json();
  unknown_key.set("surprise", 1);
  EXPECT_THROW(QueryRequest::from_json(unknown_key), Error);
}

TEST_F(ServiceFixture, V2RequestRoundTripsAndTenantIsVersionGated) {
  QueryRequest req = select_request();
  req.version = 2;
  req.id = "tag-9";
  req.tenant = "team-a";
  const JsonValue wire = req.to_json();
  EXPECT_EQ(wire.get_int("v", 0), 2);
  EXPECT_EQ(wire.get_string("tenant", ""), "team-a");
  const QueryRequest back = QueryRequest::from_json(wire);
  EXPECT_EQ(back.version, 2);
  EXPECT_EQ(back.tenant, "team-a");
  EXPECT_EQ(back.to_json().dump(), wire.dump());

  // v1 never writes the tenant field, and rejects it on the way in — the v1
  // wire surface is exactly the PR-4 one.
  QueryRequest v1 = req;
  v1.version = 1;
  EXPECT_FALSE(v1.to_json().has("tenant"));
  JsonValue smuggled = v1.to_json();
  smuggled.set("tenant", "team-a");
  EXPECT_THROW(QueryRequest::from_json(smuggled), Error);
}

TEST_F(ServiceFixture, ErrorResultsRoundTripInBothWireVersions) {
  QueryRequest req = select_request();
  req.id = "boom";
  req.dataset = "nope";

  req.version = 1;
  auto svc = make_service();
  const QueryResult v1 = svc->run(req);
  ASSERT_FALSE(v1.ok);
  EXPECT_EQ(v1.error_code, ErrorCode::kUnknownDataset);
  const JsonValue v1_wire = v1.to_json(false);
  // v1: the bare message string, byte-for-byte the old shape.
  EXPECT_EQ(v1_wire.get_string("error", ""),
            "unknown dataset 'nope' (open it first)");

  req.version = 2;
  const QueryResult v2 = svc->run(req);
  ASSERT_FALSE(v2.ok);
  const JsonValue v2_wire = v2.to_json(false);
  const JsonValue* err = v2_wire.find("error");
  ASSERT_NE(err, nullptr);
  ASSERT_TRUE(err->is_object());
  EXPECT_EQ(err->get_string("code", ""), "unknown_dataset");
  EXPECT_EQ(err->get_string("category", ""), "session");
  EXPECT_FALSE(err->get_bool("retryable", true));
  EXPECT_EQ(err->get_string("message", ""),
            "unknown dataset 'nope' (open it first)");
}

TEST_F(ServiceFixture, DeadlineZeroIsRejectedIdenticallyOnEveryDoor) {
  // Satellite regression: the deadline_ms == 0 special case and the
  // admission-control path are one code path now — same code, same pinned
  // v1 message, whichever door the request uses.
  auto svc = make_service();
  QueryRequest req = select_request();
  req.deadline_ms = 0;
  const QueryResult via_run = svc->run(req);
  const QueryResult via_submit = svc->submit(req).get();
  for (const QueryResult* r : {&via_run, &via_submit}) {
    EXPECT_FALSE(r->ok);
    EXPECT_EQ(r->error_code, ErrorCode::kDeadlineRejected);
    EXPECT_EQ(r->error, "deadline exceeded");
  }
  EXPECT_EQ(via_run.to_json(false).dump(), via_submit.to_json(false).dump());
  // In v2 the same rejection is structured and marked non-retryable (a spent
  // budget can never succeed on retry).
  req.version = 2;
  const JsonValue wire = svc->run(req).to_json(false);
  EXPECT_EQ(wire.find("error")->get_string("code", ""), "deadline_rejected");
  EXPECT_FALSE(wire.find("error")->get_bool("retryable", true));
}

TEST_F(ServiceFixture, CachedReplayMirrorsTheRequestVersion) {
  // One payload, two wire versions: the second request replays the first
  // one's cached result but is answered in its own declared version.
  auto svc = make_service();
  QueryRequest req = select_request();
  req.version = 1;
  const QueryResult cold = svc->run(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.version, 1);

  QueryRequest v2 = req;
  v2.version = 2;
  const QueryResult warm = svc->run(v2);
  EXPECT_TRUE(warm.meta.get_bool("result_cache_hit", false));
  EXPECT_EQ(warm.version, 2);
  EXPECT_EQ(warm.to_json(false).get_int("v", 0), 2);
  // Same payload modulo the version stamp.
  JsonValue a = cold.to_json(false);
  JsonValue b = warm.to_json(false);
  a.set("v", 0);
  b.set("v", 0);
  EXPECT_EQ(a.dump(), b.dump());
}

TEST_F(ServiceFixture, TenantQuotaShedsExcessQueuedRequests) {
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.default_quota.max_queued = 1;
  auto svc = std::make_unique<QueryService>(cfg);
  svc->registry().open("ds", cg.graph, p);
  svc->pause();  // force queueing so the quota is the only variable
  auto first = svc->submit(select_request());
  auto second = svc->submit(select_request());
  const QueryResult shed = second.get();  // rejected synchronously
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error_code, ErrorCode::kQueueFull);
  svc->resume();
  EXPECT_TRUE(first.get().ok);
  EXPECT_EQ(svc->stats().dispatch.shed, 1u);
}

TEST_F(ServiceFixture, ResultJsonRoundTripsAndMetaStaysOptIn) {
  auto svc = make_service();
  const QueryResult r = svc->run(select_request());
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue payload = r.to_json(false);
  EXPECT_FALSE(payload.has("meta"));
  EXPECT_TRUE(r.to_json(true).has("meta"));
}

}  // namespace
}  // namespace lcrb::service
