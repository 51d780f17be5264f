#include "lcrb/options.h"

#include "util/args.h"
#include "util/error.h"
#include "util/strings.h"

namespace lcrb {

namespace {

// Overrides `out` when --`flag` is present.
template <class T>
void read_count(const Args& args, const std::string& flag, T& out) {
  out = args.get_count<T>(flag, out);
}

template <class T>
void read_count(const JsonValue& v, const std::string& key, T& out) {
  out = checked_count<T>(v.as_int(), key);
}

}  // namespace

std::string to_string(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kGreedy: return "Greedy";
    case SelectorKind::kScbg: return "SCBG";
    case SelectorKind::kMaxDegree: return "MaxDegree";
    case SelectorKind::kProximity: return "Proximity";
    case SelectorKind::kRandom: return "Random";
    case SelectorKind::kPageRank: return "PageRank";
    case SelectorKind::kGvs: return "GVS";
    case SelectorKind::kBetweenness: return "Betweenness";
    case SelectorKind::kDegreeDiscount: return "DegreeDiscount";
    case SelectorKind::kNoBlocking: return "NoBlocking";
    case SelectorKind::kCldag: return "CLDAG";
  }
  return "unknown";
}

SelectorKind selector_kind_from_string(const std::string& name) {
  for (const SelectorKind k :
       {SelectorKind::kGreedy, SelectorKind::kScbg, SelectorKind::kMaxDegree,
        SelectorKind::kProximity, SelectorKind::kRandom, SelectorKind::kPageRank,
        SelectorKind::kGvs, SelectorKind::kBetweenness,
        SelectorKind::kDegreeDiscount, SelectorKind::kNoBlocking,
        SelectorKind::kCldag}) {
    if (iequals_ascii(to_string(k), name)) return k;
  }
  throw Error("unknown selector '" + name + "'");
}

DiffusionModel diffusion_model_from_string(const std::string& name) {
  for (const DiffusionModel m : {DiffusionModel::kOpoao, DiffusionModel::kDoam,
                                 DiffusionModel::kIc, DiffusionModel::kLt,
                                 DiffusionModel::kWc}) {
    if (iequals_ascii(to_string(m), name)) return m;
  }
  throw Error("unknown diffusion model '" + name + "' (opoao|doam|ic|lt|wc)");
}

SigmaMode sigma_mode_from_string(const std::string& name) {
  for (const SigmaMode m : {SigmaMode::kMonteCarlo, SigmaMode::kRis}) {
    if (iequals_ascii(to_string(m), name)) return m;
  }
  throw Error("unknown sigma mode '" + name + "' (mc|ris)");
}

MultiCascadeMode multi_cascade_mode_from_string(const std::string& name) {
  for (const MultiCascadeMode m :
       {MultiCascadeMode::kOff, MultiCascadeMode::kCoordinated,
        MultiCascadeMode::kUncoordinated}) {
    if (iequals_ascii(to_string(m), name)) return m;
  }
  throw Error("unknown multi-cascade mode '" + name +
              "' (off|coordinated|uncoordinated)");
}

CandidateStrategy candidate_strategy_from_string(const std::string& name) {
  for (const CandidateStrategy s :
       {CandidateStrategy::kBbstUnion, CandidateStrategy::kAllNodes,
        CandidateStrategy::kBridgeEnds}) {
    if (iequals_ascii(to_string(s), name)) return s;
  }
  throw Error("unknown candidate strategy '" + name +
              "' (bbst_union|all_nodes|bridge_ends)");
}

void LcrbOptions::validate() const {
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw Error("options: alpha must be in (0, 1]");
  }
  if (sigma_samples == 0) {
    throw Error("options: sigma_samples must be >= 1");
  }
  if (!(ic_edge_prob >= 0.0 && ic_edge_prob <= 1.0)) {
    throw Error("options: ic_edge_prob must be in [0, 1]");
  }
  if (!(ris_epsilon > 0.0)) {
    throw Error("options: ris_epsilon must be positive");
  }
  if (!(ris_delta > 0.0 && ris_delta < 1.0)) {
    throw Error("options: ris_delta must be in (0, 1)");
  }
  if (ris_initial_sets == 0 || ris_max_sets < ris_initial_sets) {
    throw Error("options: need 1 <= ris_initial_sets <= ris_max_sets");
  }
  if (gvs_samples == 0) {
    throw Error("options: gvs_samples must be >= 1");
  }
  // The budget rule: self-sizing selectors reject an explicit budget.
  if (budget != 0 && (selector == SelectorKind::kScbg ||
                      selector == SelectorKind::kNoBlocking)) {
    throw Error("options: selector " + to_string(selector) +
                " sizes itself; a nonzero budget is meaningless");
  }
  if (sigma_mode == SigmaMode::kRis && selector != SelectorKind::kGreedy) {
    throw Error("options: sigma_mode ris only applies to the Greedy selector");
  }
  if (!(cldag_theta > 0.0 && cldag_theta <= 1.0)) {
    throw Error("options: cldag_theta must be in (0, 1]");
  }
  if (multi_mode != MultiCascadeMode::kOff) {
    if (selector != SelectorKind::kGreedy) {
      throw Error("options: multi_mode requires the Greedy selector");
    }
    if (sigma_mode != SigmaMode::kMonteCarlo) {
      throw Error("options: multi_mode requires sigma_mode mc");
    }
    if (protector_budgets.empty()) {
      throw Error("options: multi_mode requires non-empty protector_budgets");
    }
    for (std::size_t b : protector_budgets) {
      if (b == 0) {
        throw Error("options: every protector budget must be > 0");
      }
    }
    if (budget != 0) {
      throw Error(
          "options: multi_mode uses protector_budgets; the scalar budget "
          "must stay 0");
    }
    if (cascade_priority == CascadePriority::kRoundRobin) {
      // The selection engines serve K-way queries through the role-separable
      // collapse, which round-robin breaks (see SeedSets::role_separable).
      throw Error("options: multi_mode requires a role-separable priority "
                  "(fixed or lowest)");
    }
  } else if (!protector_budgets.empty()) {
    throw Error("options: protector_budgets requires multi_mode");
  }
}

GreedyConfig LcrbOptions::greedy_config() const {
  GreedyConfig gc;
  gc.alpha = alpha;
  gc.max_protectors = budget;  // callers resolve 0 via resolved_budget()
  gc.candidates = candidates;
  gc.max_candidates = max_candidates;
  gc.use_celf = use_celf;
  gc.sigma = sigma_config();
  return gc;
}

SigmaConfig LcrbOptions::sigma_config() const {
  SigmaConfig sc;
  sc.samples = sigma_samples;
  sc.seed = sigma_seed;
  sc.max_hops = max_hops;
  sc.model = model;
  sc.ic_edge_prob = ic_edge_prob;
  return sc;
}

RisConfig LcrbOptions::ris_config() const {
  RisConfig rc;
  rc.epsilon = ris_epsilon;
  rc.delta = ris_delta;
  rc.initial_sets = ris_initial_sets;
  rc.max_sets = ris_max_sets;
  rc.seed = sigma_seed;
  rc.max_hops = max_hops;
  rc.model = model;
  rc.ic_edge_prob = ic_edge_prob;
  return rc;
}

GvsConfig LcrbOptions::gvs_config() const {
  GvsConfig gc;
  gc.budget = budget;  // callers resolve 0 via resolved_budget()
  gc.sigma = sigma_config();
  gc.sigma.samples = gvs_samples;
  gc.max_candidates = gvs_max_candidates;
  return gc;
}

LcrbOptions LcrbOptions::from_args(const Args& args) {
  LcrbOptions o;
  if (args.has("selector")) {
    o.selector = selector_kind_from_string(args.get_string("selector", ""));
  }
  read_count(args, "budget", o.budget);
  read_count(args, "selector-seed", o.selector_seed);
  o.alpha = args.get_double("alpha", o.alpha);
  if (args.has("candidate-strategy")) {
    o.candidates = candidate_strategy_from_string(
        args.get_string("candidate-strategy", ""));
  }
  read_count(args, "candidates", o.max_candidates);
  if (args.get_bool("no-celf")) o.use_celf = false;
  if (args.has("sigma-mode")) {
    o.sigma_mode = sigma_mode_from_string(args.get_string("sigma-mode", ""));
  }
  if (args.has("model")) {
    o.model = diffusion_model_from_string(args.get_string("model", ""));
  }
  read_count(args, "samples", o.sigma_samples);
  read_count(args, "sigma-seed", o.sigma_seed);
  read_count(args, "hops", o.max_hops);
  o.ic_edge_prob = args.get_double("ic-prob", o.ic_edge_prob);
  o.ris_epsilon = args.get_double("ris-eps", o.ris_epsilon);
  o.ris_delta = args.get_double("ris-delta", o.ris_delta);
  read_count(args, "ris-initial-sets", o.ris_initial_sets);
  read_count(args, "ris-max-sets", o.ris_max_sets);
  read_count(args, "gvs-samples", o.gvs_samples);
  read_count(args, "gvs-candidates", o.gvs_max_candidates);
  if (args.has("cascade-priority")) {
    o.cascade_priority =
        cascade_priority_from_string(args.get_string("cascade-priority", ""));
  }
  if (args.has("multi-mode")) {
    o.multi_mode =
        multi_cascade_mode_from_string(args.get_string("multi-mode", ""));
  }
  if (args.has("protector-budgets")) {
    o.protector_budgets = parse_count_list<std::size_t>(
        args.get_string("protector-budgets", ""), "--protector-budgets");
  }
  o.cldag_theta = args.get_double("cldag-theta", o.cldag_theta);
  if (args.has("graph-backend")) {
    o.graph_backend =
        parse_graph_backend(args.get_string("graph-backend", ""));
  }
  o.validate();
  return o;
}

JsonValue LcrbOptions::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("selector", to_string(selector));
  v.set("budget", static_cast<std::uint64_t>(budget));
  v.set("selector_seed", selector_seed);
  v.set("alpha", alpha);
  v.set("candidates", to_string(candidates));
  v.set("max_candidates", static_cast<std::uint64_t>(max_candidates));
  v.set("use_celf", use_celf);
  v.set("sigma_mode", to_string(sigma_mode));
  v.set("model", to_string(model));
  v.set("sigma_samples", static_cast<std::uint64_t>(sigma_samples));
  v.set("sigma_seed", sigma_seed);
  v.set("max_hops", static_cast<std::uint64_t>(max_hops));
  v.set("ic_edge_prob", ic_edge_prob);
  v.set("ris_epsilon", ris_epsilon);
  v.set("ris_delta", ris_delta);
  v.set("ris_initial_sets", static_cast<std::uint64_t>(ris_initial_sets));
  v.set("ris_max_sets", static_cast<std::uint64_t>(ris_max_sets));
  v.set("gvs_samples", static_cast<std::uint64_t>(gvs_samples));
  v.set("gvs_max_candidates", static_cast<std::uint64_t>(gvs_max_candidates));
  v.set("cascade_priority", to_string(cascade_priority));
  v.set("multi_mode", to_string(multi_mode));
  JsonValue budgets = JsonValue::array();
  for (std::size_t b : protector_budgets) {
    budgets.push_back(JsonValue(static_cast<std::uint64_t>(b)));
  }
  v.set("protector_budgets", std::move(budgets));
  v.set("cldag_theta", cldag_theta);
  v.set("graph_backend", to_string(graph_backend));
  return v;
}

LcrbOptions LcrbOptions::from_json(const JsonValue& v) {
  if (!v.is_object()) throw Error("options: expected a JSON object");
  LcrbOptions o;
  for (const auto& [key, val] : v.members()) {
    if (key == "selector") {
      o.selector = selector_kind_from_string(val.as_string());
    } else if (key == "budget") {
      read_count(val, key, o.budget);
    } else if (key == "selector_seed") {
      read_count(val, key, o.selector_seed);
    } else if (key == "alpha") {
      o.alpha = val.as_double();
    } else if (key == "candidates") {
      o.candidates = candidate_strategy_from_string(val.as_string());
    } else if (key == "max_candidates") {
      read_count(val, key, o.max_candidates);
    } else if (key == "use_celf") {
      o.use_celf = val.as_bool();
    } else if (key == "sigma_mode") {
      o.sigma_mode = sigma_mode_from_string(val.as_string());
    } else if (key == "model") {
      o.model = diffusion_model_from_string(val.as_string());
    } else if (key == "sigma_samples") {
      read_count(val, key, o.sigma_samples);
    } else if (key == "sigma_seed") {
      read_count(val, key, o.sigma_seed);
    } else if (key == "max_hops") {
      read_count(val, key, o.max_hops);
    } else if (key == "ic_edge_prob") {
      o.ic_edge_prob = val.as_double();
    } else if (key == "ris_epsilon") {
      o.ris_epsilon = val.as_double();
    } else if (key == "ris_delta") {
      o.ris_delta = val.as_double();
    } else if (key == "ris_initial_sets") {
      read_count(val, key, o.ris_initial_sets);
    } else if (key == "ris_max_sets") {
      read_count(val, key, o.ris_max_sets);
    } else if (key == "gvs_samples") {
      read_count(val, key, o.gvs_samples);
    } else if (key == "gvs_max_candidates") {
      read_count(val, key, o.gvs_max_candidates);
    } else if (key == "cascade_priority") {
      o.cascade_priority = cascade_priority_from_string(val.as_string());
    } else if (key == "multi_mode") {
      o.multi_mode = multi_cascade_mode_from_string(val.as_string());
    } else if (key == "protector_budgets") {
      if (!val.is_array()) {
        throw Error("options: protector_budgets must be an array");
      }
      o.protector_budgets.clear();
      for (const JsonValue& b : val.items()) {
        o.protector_budgets.push_back(
            checked_count<std::size_t>(b.as_int(), key));
      }
    } else if (key == "cldag_theta") {
      o.cldag_theta = val.as_double();
    } else if (key == "graph_backend") {
      o.graph_backend = parse_graph_backend(val.as_string());
    } else {
      throw Error("options: unknown key '" + key + "'");
    }
  }
  o.validate();
  return o;
}

}  // namespace lcrb
