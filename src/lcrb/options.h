// LcrbOptions — the single documented knob aggregate of the library's
// protector-selection API.
//
// One flat, validated aggregate with a canonical JSON round-trip. The
// engine-level configs (GreedyConfig wrapping SigmaConfig, RisConfig and
// GvsConfig on the side) are produced from it by the *_config() accessors;
// select() in lcrb/pipeline.h maps it to the selector that serves it.
//
// The budget rule (previously enforced inconsistently — kGvs silently
// overrode its own budget, kScbg silently ignored one):
//
//   * budget == 0 means "match the rumor count" (the paper's |P| = |R|
//     convention) for every budgeted selector: greedy, maxdegree, proximity,
//     random, pagerank, betweenness, degreediscount, gvs.
//   * kScbg and kNoBlocking size themselves (SCBG picks the cheapest full
//     cover; NoBlocking is empty by definition); combining them with a
//     nonzero budget is meaningless and validate() rejects it.
#pragma once

#include <cstdint>
#include <string>

#include "graph/backend.h"
#include "lcrb/greedy.h"
#include "lcrb/gvs.h"
#include "lcrb/ris.h"
#include "util/json.h"

namespace lcrb {

class Args;

/// Protector-selection strategies compared in the paper's evaluation.
enum class SelectorKind : std::uint8_t {
  kGreedy,      ///< LCRB-P Monte-Carlo greedy (Algorithm 1)
  kScbg,        ///< LCRB-D set-cover greedy (Algorithm 3)
  kMaxDegree,
  kProximity,
  kRandom,
  kPageRank,
  kGvs,         ///< Greedy Viral Stopper (related work [26]): minimize total infections
  kBetweenness, ///< top betweenness-centrality nodes (extension baseline)
  kDegreeDiscount, ///< DegreeDiscount (Chen et al. KDD'09) IM heuristic
  kNoBlocking,  ///< empty protector set (the paper's reference line)
  kCldag,       ///< He et al.'s CLDAG (arXiv:1110.4723): competitive-LT local DAGs
};

std::string to_string(SelectorKind kind);
/// Inverse of to_string (case-insensitive, so "scbg" and "SCBG" both work);
/// throws lcrb::Error on unknown names.
SelectorKind selector_kind_from_string(const std::string& name);

DiffusionModel diffusion_model_from_string(const std::string& name);
SigmaMode sigma_mode_from_string(const std::string& name);
CandidateStrategy candidate_strategy_from_string(const std::string& name);
MultiCascadeMode multi_cascade_mode_from_string(const std::string& name);

/// Every knob of protector selection, flat. Field groups mirror the
/// engine-level configs; the *_config() accessors produce those structs for
/// the engine entry points.
struct LcrbOptions {
  // --- selection -----------------------------------------------------------
  SelectorKind selector = SelectorKind::kGreedy;
  /// Protector budget |S_P|; 0 = |rumors| (see the budget rule above).
  std::size_t budget = 0;
  /// Seed of the randomized selectors (Proximity / Random).
  std::uint64_t selector_seed = 99;

  // --- greedy (LCRB-P) -----------------------------------------------------
  double alpha = 0.8;              ///< fraction of bridge ends to protect
  /// "bbst_union" (default): nodes of any bridge end's DOAM RR set.
  CandidateStrategy candidates = CandidateStrategy::kBbstUnion;
  std::size_t max_candidates = 0;  ///< candidate-pool cap (0 = unlimited)
  bool use_celf = true;            ///< false = paper's plain re-evaluation

  // --- sigma estimation (shared by the mc and ris machineries) -------------
  SigmaMode sigma_mode = SigmaMode::kMonteCarlo;
  DiffusionModel model = DiffusionModel::kOpoao;
  std::size_t sigma_samples = 50;
  std::uint64_t sigma_seed = 7;
  std::uint32_t max_hops = 31;
  double ic_edge_prob = 0.1;

  // --- ris accuracy knobs --------------------------------------------------
  double ris_epsilon = 0.1;
  double ris_delta = 0.01;
  std::size_t ris_initial_sets = 512;
  std::size_t ris_max_sets = std::size_t{1} << 18;

  // --- gvs baseline --------------------------------------------------------
  std::size_t gvs_samples = 20;
  std::size_t gvs_max_candidates = 300;

  // --- K-cascade workloads -------------------------------------------------
  /// Simultaneous-arrival policy threaded into every K-way evaluation.
  CascadePriority cascade_priority = CascadePriority::kFixedOrder;
  /// Multi-campaign protector selection (kGreedy + Monte-Carlo only; see
  /// MultiCascadeMode). kOff = the paper's single-campaign problem.
  MultiCascadeMode multi_mode = MultiCascadeMode::kOff;
  /// Per-campaign protector budgets; required non-empty iff multi_mode is
  /// on (the scalar `budget` must then stay 0).
  std::vector<std::size_t> protector_budgets;
  /// LDAG influence cutoff for the kCldag selector (He et al.'s 1/320).
  double cldag_theta = 1.0 / 320.0;

  // --- graph storage -------------------------------------------------------
  /// Storage backend used when this aggregate drives a graph load (lcrb_cli,
  /// the daemon's open verb). Purely a space/speed trade: selection outputs
  /// are byte-identical across backends, so the field never shapes results.
  GraphBackend graph_backend = GraphBackend::kCsr;

  /// Throws lcrb::Error (plain message, no file/line) on out-of-range
  /// fields or meaningless combinations — notably a nonzero budget with
  /// kScbg or kNoBlocking.
  void validate() const;

  /// Budget resolved per the rule above: 0 -> num_rumors.
  std::size_t resolved_budget(std::size_t num_rumors) const {
    return budget == 0 ? num_rumors : budget;
  }

  // Engine-level views, populated from these fields.
  GreedyConfig greedy_config() const;
  SigmaConfig sigma_config() const;
  RisConfig ris_config() const;
  GvsConfig gvs_config() const;

  /// Parses the shared CLI flag set (see docs/service.md for the list);
  /// starts from defaults, overrides only flags that are present, and
  /// validates the result. Integer flags go through the same range check
  /// as from_json: negative or out-of-range counts throw.
  static LcrbOptions from_args(const Args& args);

  /// Canonical JSON object holding every field (stable key order).
  JsonValue to_json() const;
  /// Inverse of to_json. Absent keys keep their defaults; unknown keys are
  /// rejected so a typo cannot silently fall back to a default. Validates.
  static LcrbOptions from_json(const JsonValue& v);

  friend bool operator==(const LcrbOptions& a, const LcrbOptions& b) = default;
};

}  // namespace lcrb
