// GraphSession + SessionRegistry — the shared-graph layer of the query
// service.
//
// A GraphSession owns one immutable loaded dataset (CSR graph with both
// adjacency directions + community partition) and the warm per-experiment
// state queries accumulate against it: memoized ExperimentSetups (bridge
// ends), shared SigmaEstimators (PR-1 realization caches), and shared
// RisContexts (PR-2 RR pools, grown monotonically and evaluated by prefix).
// Sessions are handed out as shared_ptr and immutable after construction
// except for the internally-locked caches, so any number of queries can run
// against one concurrently.
//
// The SessionRegistry maps dataset id -> session with LRU eviction under a
// configurable byte budget. Accounting is capacity-based via
// GraphSession::memory_bytes(); sessions currently pinned by an in-flight
// query (shared_ptr use_count > 1) are never evicted, so the registry can
// transiently exceed its budget rather than fail queries.
//
// Determinism note (this file is on the determinism linter's sensitive
// list): all keyed lookups use std::map with string keys — iteration order
// is lexicographic, never hash-dependent.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "community/partition.h"
#include "graph/backend.h"
#include "graph/graph.h"
#include "lcrb/pipeline.h"
#include "lcrb/ris.h"
#include "lcrb/sigma.h"
#include "service/request.h"
#include "util/threadpool.h"

namespace lcrb::service {

class GraphSession {
 public:
  /// `graph` may be either backend (DiGraph converts implicitly, so legacy
  /// CSR call sites are unchanged).
  GraphSession(std::string dataset, GraphAny graph, Partition partition);

  const std::string& dataset() const { return dataset_; }
  GraphRef graph() const { return graph_.ref(); }
  GraphBackend backend() const { return graph_.backend(); }
  const Partition& partition() const { return partition_; }

  /// Memoized experiment setup for `key` (see make_setup_key); nullptr on a
  /// miss. keep_setup memoizes one (first write wins): the service keeps a
  /// setup only once a query on it succeeded, so a refused one leaves none.
  std::shared_ptr<const ExperimentSetup> find_setup(
      const std::string& key) const;
  void keep_setup(const std::string& key,
                  std::shared_ptr<const ExperimentSetup> setup);

  /// Shared warm sigma estimator for (setup, cfg). The estimator is
  /// thread-safe for concurrent sigma() calls, so one instance — and its
  /// realization cache — serves every concurrent query with matching knobs.
  std::shared_ptr<SigmaEstimator> estimator_for(
      const std::string& setup_key, const ExperimentSetup& setup,
      const SigmaConfig& cfg, ThreadPool* pool, bool* cache_hit);

  /// Shared warm RIS context, keyed by the draw-shaping knobs only
  /// (seed/max_hops/model/ic_edge_prob): queries whose accuracy knobs differ
  /// still share pools, evaluating by prefix.
  std::shared_ptr<RisContext> ris_context_for(const std::string& setup_key,
                                              const ExperimentSetup& setup,
                                              const RisConfig& cfg,
                                              bool* cache_hit);

  /// Memoized select/evaluate result for a canonical request key (the
  /// request's JSON with the caller-varying fields — id, deadline — blanked).
  /// Results are deterministic functions of the immutable session and the
  /// request, so replaying a cached payload is bit-identical to recomputing
  /// it. nullptr on miss; store_result() fills the slot (first write wins).
  std::shared_ptr<const QueryResult> cached_result(
      const std::string& key) const;
  void store_result(const std::string& key, const QueryResult& result);

  /// Capacity-based heap footprint: graph + partition + every warm cache.
  std::size_t memory_bytes() const;

 private:
  std::string dataset_;
  GraphAny graph_;
  Partition partition_;
  std::size_t base_bytes_ = 0;  ///< graph + partition, fixed at construction

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ExperimentSetup>> setups_;
  std::map<std::string, std::shared_ptr<SigmaEstimator>> estimators_;
  std::map<std::string, std::shared_ptr<RisContext>> ris_contexts_;
  struct CachedResult {
    std::shared_ptr<const QueryResult> result;
    std::size_t bytes = 0;  ///< key + serialized payload, for accounting
  };
  std::map<std::string, CachedResult> results_;
};

/// The canonical result-cache key for a request: its JSON with the
/// caller-varying fields (id, deadline_ms) blanked.
std::string make_result_key(const QueryRequest& req);

/// Deterministic cache key for a rumor choice: explicit ids win, otherwise
/// the (resolved community, count, seed) triple.
std::string make_setup_key(const std::vector<NodeId>& rumor_ids,
                           CommunityId resolved_community,
                           std::size_t num_rumors, std::uint64_t rumor_seed);

class SessionRegistry {
 public:
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{4} << 30;

  explicit SessionRegistry(std::size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// Registers a loaded dataset and returns its session. Re-opening an
  /// existing id returns the existing session untouched (the caller's graph
  /// is discarded) — sessions are immutable, so both callers see the same
  /// data. The graph may be either backend; the session's accounting then
  /// reflects the compressed footprint.
  std::shared_ptr<GraphSession> open(std::string dataset, GraphAny graph,
                                     Partition partition);

  /// Session for `dataset`, refreshing its LRU stamp; nullptr when absent
  /// (or evicted — callers re-open).
  std::shared_ptr<GraphSession> find(const std::string& dataset);

  /// Explicitly removes a session. True when something was removed.
  bool close(const std::string& dataset);

  /// Registered ids, lexicographic.
  std::vector<std::string> datasets() const;

  std::size_t resident_bytes() const;
  std::size_t max_bytes() const { return max_bytes_; }
  void set_max_bytes(std::size_t bytes);

  struct Stats {
    std::size_t sessions = 0;
    std::size_t resident_bytes = 0;
    std::size_t evictions = 0;   ///< lifetime
    std::size_t hits = 0;        ///< find() returning a session
    std::size_t misses = 0;      ///< find() returning nullptr
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<GraphSession> session;
    std::uint64_t last_used = 0;
  };

  /// Evicts least-recently-used unpinned sessions until under budget (or
  /// nothing evictable remains). Caller holds mu_.
  void evict_locked();

  mutable std::mutex mu_;
  std::size_t max_bytes_;
  std::uint64_t tick_ = 0;
  std::map<std::string, Entry> sessions_;
  std::size_t evictions_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace lcrb::service
