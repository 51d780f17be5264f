// QueryService — the long-lived in-process LCRB query engine.
//
// One instance owns a shared ThreadPool (inner parallelism), a
// SessionRegistry, and a Dispatcher (see service/dispatcher.h) that executes
// admitted queries on `max_concurrent` executor threads. Queries enter as
// QueryRequest (see service/request.h) through one of four doors:
//
//   run(req)          synchronous on the calling thread; bypasses queues and
//                     quotas but not deadline admission (deadline_ms == 0 is
//                     deadline_rejected here too)
//   submit_async(...) admission control, then per-session FIFO dispatch; the
//                     completion callback fires exactly once (synchronously
//                     on rejection, on an executor thread otherwise)
//   submit(req)       submit_async wrapped in a future
//   run_batch(reqs)   submit them all, wait for every future; results in
//                     request order
//
// Ordering and identity guarantees: queries on the SAME session execute
// sequentially in admission order — a concurrent batch is byte-identical to
// running those requests one at a time (pinned by tests). Queries on
// DIFFERENT sessions run concurrently, which cannot change any payload:
// sessions are immutable, their caches are keyed deterministically, and all
// inner parallel reductions are fixed-order.
//
// Failures never throw across the API: every error becomes an ok=false
// QueryResult carrying a structured code (service/errors.h) plus the v1
// message. Deadlines (deadline_ms) are measured from admission; a spent
// budget (0) is deterministically rejected at admission, a positive budget
// is re-checked at dequeue and at stage boundaries.
#pragma once

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/dispatcher.h"
#include "service/request.h"
#include "service/session.h"
#include "util/threadpool.h"

namespace lcrb::service {

struct ServiceConfig {
  /// Shared worker pool size; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Session-registry byte budget (LRU eviction above it).
  std::size_t max_resident_bytes = SessionRegistry::kDefaultMaxBytes;
  /// Attach the nondeterministic `meta` object (timings, cache hits) to
  /// results. Payload fields are unaffected either way.
  bool collect_meta = true;
  /// Dispatcher executor threads: how many *different* sessions execute at
  /// once (same-session queries always serialize). 1 = the sequential PR-4
  /// behavior; 0 = auto (min(4, half the hardware threads)).
  std::size_t max_concurrent = 1;
  /// Quota applied to tenants without an explicit entry. Zeros = unlimited.
  TenantQuota default_quota;
  /// Per-tenant overrides (max queued / max in flight / WRR weight).
  std::map<std::string, TenantQuota> tenant_quotas;
};

/// One-lock-each snapshot of the dispatcher and the registry.
struct ServiceStats {
  DispatchStats dispatch;
  SessionRegistry::Stats registry;
};

class QueryService {
 public:
  using Ticket = Dispatcher::Ticket;

  explicit QueryService(ServiceConfig cfg = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  SessionRegistry& registry() { return registry_; }
  ThreadPool& pool() { return pool_; }
  const ServiceConfig& config() const { return cfg_; }

  /// Convenience loader: reads a SNAP-style edge list, detects communities
  /// (Louvain, seeded), converts to the requested storage backend, and
  /// registers the session. Re-opening an existing dataset id returns the
  /// existing session without touching the file (whatever its backend).
  std::shared_ptr<GraphSession> open_dataset(
      const std::string& dataset, const std::string& edge_list_path,
      bool undirected = false, std::uint64_t community_seed = 1,
      GraphBackend backend = GraphBackend::kCsr);

  /// Executes one request now, on the calling thread (inner parallelism on
  /// the shared pool). Never throws for request-level failures.
  QueryResult run(const QueryRequest& req);

  /// Admission-controlled enqueue; `done` fires exactly once. Returns the
  /// cancel ticket (0 when rejected at admission).
  Ticket submit_async(QueryRequest req,
                      std::function<void(QueryResult)> done);

  /// submit_async wrapped in a future.
  std::future<QueryResult> submit(QueryRequest req);

  /// submit() them all, then wait; results in request order.
  std::vector<QueryResult> run_batch(std::vector<QueryRequest> reqs);

  /// Best-effort cancel of a still-queued request (see Dispatcher::cancel).
  bool cancel(Ticket ticket);

  /// Deterministic queue-state control (tests, stats snapshots): pause stops
  /// dispatching new jobs, drain blocks until idle.
  void pause();
  void resume();
  void drain();

  ServiceStats stats() const;

 private:
  QueryResult execute(const QueryRequest& req,
                      std::chrono::steady_clock::time_point admitted);
  QueryResult execute_select(const QueryRequest& req, GraphSession& session,
                             std::chrono::steady_clock::time_point admitted,
                             JsonValue& meta);
  QueryResult execute_evaluate(const QueryRequest& req, GraphSession& session,
                               std::chrono::steady_clock::time_point admitted,
                               JsonValue& meta);
  QueryResult execute_info(const QueryRequest& req, GraphSession& session);

  /// The session's setup for the request's rumor choice, or a fresh build
  /// the caller keeps under *key_out once the query succeeds.
  std::shared_ptr<const ExperimentSetup> setup_for(const QueryRequest& req,
                                                   GraphSession& session,
                                                   std::string* key_out,
                                                   bool* cache_hit);

  ServiceConfig cfg_;
  ThreadPool pool_;
  SessionRegistry registry_;
  /// Last member: its destructor joins executors that call execute(), so
  /// everything execute() touches must still be alive.
  std::unique_ptr<Dispatcher> dispatcher_;
};

}  // namespace lcrb::service
