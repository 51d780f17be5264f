// Versioned request/result pair of the LCRB query service — the single entry
// point the pipeline examples, lcrb_cli, the bench binaries, and the lcrbd
// daemon all speak.
//
// A QueryRequest names a registered dataset (GraphSession), describes the
// experiment (rumor originators by id, by community, or by community-size
// target), and carries one LcrbOptions aggregate. Three operations:
//
//   select    run the configured protector selector (LCRB-P greedy, SCBG,
//             or any baseline) against the session's warm caches
//   evaluate  Monte-Carlo hop series for an explicit protector set
//   info      structural summary of the session (nodes, arcs, communities,
//             resident bytes)
//
// Two wire versions are spoken side by side. A request declares its version
// with "v", and its result is rendered in the same version:
//
//   v1   the PR-4 shape, byte-for-byte: errors are a bare message string,
//        no tenant field. Every existing client and golden file keeps
//        working unchanged.
//   v2   adds `tenant` (admission-control identity; defaults to the dataset)
//        and renders errors structurally as
//        {"code","category","retryable","message"} (see service/errors.h).
//
// Results split deterministic payload fields (bit-identical for a fixed
// request against equal session state, independent of thread count,
// concurrency, or batching) from the `meta` object (timings, cache hits,
// visit counters), which to_json() omits unless asked. Golden tests and the
// batch-vs-sequential identity check compare to_json(false) lines only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lcrb/options.h"
#include "service/errors.h"
#include "util/json.h"
#include "util/types.h"

namespace lcrb::service {

/// Oldest wire version this build still speaks (and the default for
/// programmatically-built requests, so in-process callers and cache keys are
/// unchanged from PR 4).
inline constexpr int kProtocolVersion = 1;
/// Newest wire version this build speaks. Requests outside
/// [kProtocolVersion, kProtocolVersionMax] are rejected rather than misread.
inline constexpr int kProtocolVersionMax = 2;

enum class QueryOp : std::uint8_t {
  kSelect,
  kEvaluate,
  kInfo,
};

std::string to_string(QueryOp op);
QueryOp query_op_from_string(const std::string& name);

struct QueryRequest {
  int version = kProtocolVersion;
  std::string id;       ///< caller's correlation tag, echoed verbatim
  QueryOp op = QueryOp::kSelect;
  std::string dataset;  ///< GraphSession key in the registry
  /// Admission-control identity (v2 wire field; always usable in-process).
  /// Empty means "the dataset is the tenant" — per-dataset fairness out of
  /// the box. Quotas and weighted round-robin dispatch key on this; the
  /// deterministic payload never depends on it.
  std::string tenant;

  // --- experiment shape (select / evaluate) --------------------------------
  /// Explicit rumor originators; when non-empty they win and must share one
  /// community. Otherwise `num_rumors` originators are sampled (seeded by
  /// `rumor_seed`) from `rumor_community`, or — when that is
  /// kInvalidCommunity — from the community closest to `community_size`
  /// nodes (the CLI's historical default behavior).
  std::vector<NodeId> rumor_ids;
  CommunityId rumor_community = kInvalidCommunity;
  std::size_t community_size = 100;
  std::size_t num_rumors = 5;
  std::uint64_t rumor_seed = 1;
  /// Multi-rumor experiments: one rumor campaign per group (cascade 1 plus
  /// rumor-role extras; see make_seed_sets). When non-empty this wins over
  /// rumor_ids / rumor_community — the flattened union (which must share one
  /// community) is the rumor set the selectors contain, and K-way evaluate
  /// runs one cascade per group under options.cascade_priority.
  std::vector<std::vector<NodeId>> rumor_groups;

  /// Selector knobs (select op). Validated on admission.
  LcrbOptions options;

  // --- evaluate ------------------------------------------------------------
  std::vector<NodeId> protectors;  ///< set to evaluate
  std::size_t eval_runs = 200;
  std::uint64_t eval_seed = 1;

  /// Time budget in milliseconds from admission; -1 = none. 0 means the
  /// budget is already spent — admission control deterministically rejects
  /// with code deadline_rejected (v1 message "deadline exceeded", which is
  /// what the deadline tests pin). Positive budgets are re-checked when the
  /// dispatcher dequeues the request and at stage boundaries (after session
  /// acquisition, after experiment setup, after selection), never
  /// mid-algorithm; a lapse there is code deadline_expired.
  std::int64_t deadline_ms = -1;

  JsonValue to_json() const;
  /// Throws lcrb::Error on unknown keys, type mismatches, or an unsupported
  /// version. Absent keys keep their defaults.
  static QueryRequest from_json(const JsonValue& v);
};

struct QueryResult {
  int version = kProtocolVersion;  ///< mirrors the request's version
  std::string id;  ///< echoed from the request
  QueryOp op = QueryOp::kSelect;
  std::string dataset;
  bool ok = true;
  std::string error;  ///< error message when !ok (the whole v1 error surface)
  /// Structured taxonomy entry when !ok (category and retryability derive
  /// from it; see service/errors.h). v1 rendering drops it; v2 renders the
  /// full {code, category, retryable, message} object.
  ErrorCode error_code = ErrorCode::kNone;

  // --- select / evaluate ---------------------------------------------------
  CommunityId rumor_community = kInvalidCommunity;
  std::vector<NodeId> rumors;
  std::size_t num_bridge_ends = 0;

  // --- select --------------------------------------------------------------
  std::vector<NodeId> protectors;    ///< in pick order
  /// Per-campaign protector groups (multi_mode selects only); empty
  /// otherwise, and then absent from the JSON so single-campaign payloads
  /// are unchanged.
  std::vector<std::vector<NodeId>> protector_groups;
  double achieved_fraction = 0.0;
  std::vector<double> gain_history;
  std::size_t candidate_count = 0;
  std::size_t sigma_evaluations = 0;

  // --- evaluate ------------------------------------------------------------
  std::vector<double> infected_by_hop;   ///< cumulative mean per hop
  std::vector<double> infected_ci95;     ///< 95% half-width per hop
  std::vector<double> protected_by_hop;  ///< cumulative mean per hop
  double final_infected_mean = 0.0;
  double final_protected_mean = 0.0;
  double saved_fraction = 0.0;           ///< bridge ends saved

  // --- info ----------------------------------------------------------------
  std::size_t num_nodes = 0;
  std::size_t num_arcs = 0;
  std::size_t num_communities = 0;
  std::size_t resident_bytes = 0;  ///< session graph + warm caches

  /// Nondeterministic extras: wall_ms, warm-cache hit flags, nodes_visited,
  /// sigma path. Never part of the deterministic payload.
  JsonValue meta;

  /// Deterministic single-line JSON; `include_meta` appends the meta object
  /// (for humans and dashboards, never for golden comparisons).
  JsonValue to_json(bool include_meta = false) const;

  /// Uniform error result (used by the service for every failure path so
  /// error payloads are as deterministic as success payloads). The overload
  /// without a code classifies as invalid_argument — the class of every
  /// bare lcrb::Error thrown on request-derived values.
  static QueryResult make_error(const QueryRequest& req, std::string message);
  static QueryResult make_error(const QueryRequest& req, ErrorCode code,
                                std::string message);
};

}  // namespace lcrb::service
