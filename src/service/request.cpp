#include "service/request.h"

#include "util/error.h"

namespace lcrb::service {

namespace {

JsonValue ids_to_json(const std::vector<NodeId>& ids) {
  JsonValue arr = JsonValue::array();
  for (NodeId v : ids) arr.push_back(JsonValue(static_cast<std::uint64_t>(v)));
  return arr;
}

// Every unsigned field goes through here: a negative JSON int would
// otherwise wrap to a huge value (e.g. -1 -> 2^32-1 as a NodeId) and
// sail through downstream validation as a plausible count.
std::uint64_t non_negative(const JsonValue& v, const char* what) {
  const std::int64_t x = v.as_int();
  if (x < 0) {
    throw Error(std::string("request: ") + what + " must be non-negative, " +
                "got " + std::to_string(x));
  }
  return static_cast<std::uint64_t>(x);
}

std::vector<NodeId> ids_from_json(const JsonValue& v, const char* what) {
  if (!v.is_array()) throw Error(std::string("request: ") + what +
                                 " must be an array of node ids");
  std::vector<NodeId> out;
  const std::span<const JsonValue> items = v.items();
  out.reserve(items.size());
  for (const JsonValue& x : items) {
    const std::uint64_t id = non_negative(x, what);
    if (id >= kInvalidNode) {
      throw Error(std::string("request: ") + what + " id " +
                  std::to_string(id) + " exceeds the node-id range");
    }
    out.push_back(static_cast<NodeId>(id));
  }
  return out;
}

JsonValue groups_to_json(const std::vector<std::vector<NodeId>>& groups) {
  JsonValue arr = JsonValue::array();
  for (const auto& g : groups) arr.push_back(ids_to_json(g));
  return arr;
}

std::vector<std::vector<NodeId>> groups_from_json(const JsonValue& v,
                                                  const char* what) {
  if (!v.is_array()) throw Error(std::string("request: ") + what +
                                 " must be an array of node-id arrays");
  std::vector<std::vector<NodeId>> out;
  for (const JsonValue& g : v.items()) out.push_back(ids_from_json(g, what));
  return out;
}

JsonValue doubles_to_json(const std::vector<double>& xs) {
  JsonValue arr = JsonValue::array();
  for (double x : xs) arr.push_back(JsonValue(x));
  return arr;
}

}  // namespace

std::string to_string(QueryOp op) {
  switch (op) {
    case QueryOp::kSelect: return "select";
    case QueryOp::kEvaluate: return "evaluate";
    case QueryOp::kInfo: return "info";
  }
  return "unknown";
}

QueryOp query_op_from_string(const std::string& name) {
  for (const QueryOp op :
       {QueryOp::kSelect, QueryOp::kEvaluate, QueryOp::kInfo}) {
    if (to_string(op) == name) return op;
  }
  throw Error("request: unknown op '" + name + "' (select|evaluate|info)");
}

JsonValue QueryRequest::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("v", static_cast<std::int64_t>(version));
  if (!id.empty()) v.set("id", id);
  v.set("op", to_string(op));
  v.set("dataset", dataset);
  // tenant is a v2 field; a v1 request never writes it so v1 serializations
  // stay byte-for-byte what PR 4 shipped.
  if (version >= 2 && !tenant.empty()) v.set("tenant", tenant);
  if (!rumor_groups.empty()) {
    v.set("rumor_groups", groups_to_json(rumor_groups));
  } else if (!rumor_ids.empty()) {
    v.set("rumor_ids", ids_to_json(rumor_ids));
  } else if (rumor_community != kInvalidCommunity) {
    v.set("rumor_community", static_cast<std::uint64_t>(rumor_community));
  } else {
    v.set("community_size", static_cast<std::uint64_t>(community_size));
  }
  v.set("num_rumors", static_cast<std::uint64_t>(num_rumors));
  v.set("rumor_seed", rumor_seed);
  v.set("options", options.to_json());
  if (op == QueryOp::kEvaluate) {
    v.set("protectors", ids_to_json(protectors));
    v.set("eval_runs", static_cast<std::uint64_t>(eval_runs));
    v.set("eval_seed", eval_seed);
  }
  if (deadline_ms >= 0) v.set("deadline_ms", deadline_ms);
  return v;
}

QueryRequest QueryRequest::from_json(const JsonValue& v) {
  if (!v.is_object()) throw Error("request: expected a JSON object");
  QueryRequest req;
  // v2-only keys are collected first and re-checked against the declared
  // version afterwards, so key order in the document cannot change whether a
  // v1 request smuggles a v2 field through.
  bool saw_tenant = false;
  for (const auto& [key, val] : v.members()) {
    if (key == "v") {
      req.version = static_cast<int>(val.as_int());
    } else if (key == "id") {
      req.id = val.as_string();
    } else if (key == "op") {
      req.op = query_op_from_string(val.as_string());
    } else if (key == "dataset") {
      req.dataset = val.as_string();
    } else if (key == "tenant") {
      req.tenant = val.as_string();
      saw_tenant = true;
    } else if (key == "rumor_ids") {
      req.rumor_ids = ids_from_json(val, "rumor_ids");
    } else if (key == "rumor_groups") {
      req.rumor_groups = groups_from_json(val, "rumor_groups");
    } else if (key == "rumor_community") {
      req.rumor_community = static_cast<CommunityId>(non_negative(val, "rumor_community"));
    } else if (key == "community_size") {
      req.community_size = static_cast<std::size_t>(non_negative(val, "community_size"));
    } else if (key == "num_rumors") {
      req.num_rumors = static_cast<std::size_t>(non_negative(val, "num_rumors"));
    } else if (key == "rumor_seed") {
      req.rumor_seed = non_negative(val, "rumor_seed");
    } else if (key == "options") {
      req.options = LcrbOptions::from_json(val);
    } else if (key == "protectors") {
      req.protectors = ids_from_json(val, "protectors");
    } else if (key == "eval_runs") {
      req.eval_runs = static_cast<std::size_t>(non_negative(val, "eval_runs"));
    } else if (key == "eval_seed") {
      req.eval_seed = non_negative(val, "eval_seed");
    } else if (key == "deadline_ms") {
      req.deadline_ms = val.as_int();
    } else {
      throw Error("request: unknown key '" + key + "'");
    }
  }
  if (req.version < kProtocolVersion || req.version > kProtocolVersionMax) {
    throw ServiceError(
        ErrorCode::kUnsupportedVersion,
        "request: unsupported version " + std::to_string(req.version) +
            " (this build speaks " + std::to_string(kProtocolVersion) + ".." +
            std::to_string(kProtocolVersionMax) + ")");
  }
  if (saw_tenant && req.version < 2) {
    throw Error("request: unknown key 'tenant'");
  }
  return req;
}

JsonValue QueryResult::to_json(bool include_meta) const {
  JsonValue v = JsonValue::object();
  v.set("v", static_cast<std::int64_t>(version));
  if (!id.empty()) v.set("id", id);
  v.set("op", to_string(op));
  v.set("dataset", dataset);
  v.set("ok", ok);
  if (!ok) {
    if (version >= 2) {
      // v2: the structured taxonomy object. category/retryable are derived
      // from the code so the three can never disagree on the wire.
      const ErrorCode code =
          error_code == ErrorCode::kNone ? ErrorCode::kInternal : error_code;
      JsonValue err = JsonValue::object();
      err.set("code", to_string(code));
      err.set("category", error_category(code));
      err.set("retryable", error_retryable(code));
      err.set("message", error);
      v.set("error", err);
    } else {
      // v1: the bare message string, byte-for-byte the PR-4 shape.
      v.set("error", error);
    }
    if (include_meta && !meta.is_null()) v.set("meta", meta);
    return v;
  }
  switch (op) {
    case QueryOp::kSelect:
      v.set("rumor_community", static_cast<std::uint64_t>(rumor_community));
      v.set("rumors", ids_to_json(rumors));
      v.set("num_bridge_ends", static_cast<std::uint64_t>(num_bridge_ends));
      v.set("protectors", ids_to_json(protectors));
      if (!protector_groups.empty()) {
        v.set("protector_groups", groups_to_json(protector_groups));
      }
      v.set("achieved_fraction", achieved_fraction);
      v.set("gain_history", doubles_to_json(gain_history));
      v.set("candidate_count", static_cast<std::uint64_t>(candidate_count));
      v.set("sigma_evaluations",
            static_cast<std::uint64_t>(sigma_evaluations));
      break;
    case QueryOp::kEvaluate:
      v.set("rumor_community", static_cast<std::uint64_t>(rumor_community));
      v.set("rumors", ids_to_json(rumors));
      v.set("num_bridge_ends", static_cast<std::uint64_t>(num_bridge_ends));
      v.set("protectors", ids_to_json(protectors));
      v.set("infected_by_hop", doubles_to_json(infected_by_hop));
      v.set("infected_ci95", doubles_to_json(infected_ci95));
      v.set("protected_by_hop", doubles_to_json(protected_by_hop));
      v.set("final_infected_mean", final_infected_mean);
      v.set("final_protected_mean", final_protected_mean);
      v.set("saved_fraction", saved_fraction);
      break;
    case QueryOp::kInfo:
      v.set("num_nodes", static_cast<std::uint64_t>(num_nodes));
      v.set("num_arcs", static_cast<std::uint64_t>(num_arcs));
      v.set("num_communities", static_cast<std::uint64_t>(num_communities));
      v.set("resident_bytes", static_cast<std::uint64_t>(resident_bytes));
      break;
  }
  if (include_meta && !meta.is_null()) v.set("meta", meta);
  return v;
}

QueryResult QueryResult::make_error(const QueryRequest& req,
                                    std::string message) {
  return make_error(req, ErrorCode::kInvalidArgument, std::move(message));
}

QueryResult QueryResult::make_error(const QueryRequest& req, ErrorCode code,
                                    std::string message) {
  QueryResult r;
  r.version = req.version;
  r.id = req.id;
  r.op = req.op;
  r.dataset = req.dataset;
  r.ok = false;
  r.error = std::move(message);
  r.error_code = code;
  return r;
}

}  // namespace lcrb::service
