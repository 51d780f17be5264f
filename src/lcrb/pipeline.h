// End-to-end experiment pipeline: graph -> communities -> rumor seeds ->
// bridge ends -> protector selection -> diffusion evaluation. Shared by the
// examples, every bench binary, and the src/service/ query engine.
//
// select(setup, LcrbOptions) is the one map from the knob aggregate to the
// selector that serves it; select_protectors is its protector set alone.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/backend.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/gvs.h"
#include "lcrb/options.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "lcrb/sigma.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

/// Everything fixed before protector selection. `graph` references either
/// backend (empty until prepared); the referenced graph must outlive the
/// setup.
struct ExperimentSetup {
  GraphRef graph;
  const Partition* partition = nullptr;
  CommunityId rumor_community = kInvalidCommunity;
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
};

/// Samples `num_rumors` rumor originators uniformly from the community and
/// computes the bridge ends. Deterministic in `seed`. Either backend binds
/// `g` (GraphRef converts from both).
ExperimentSetup prepare_experiment(GraphRef g, const Partition& p,
                                   CommunityId rumor_community,
                                   std::size_t num_rumors, std::uint64_t seed);

/// Variant with explicit rumor originators (they must share one community);
/// used by the CLI's --rumor-ids and the query service's rumor_ids field.
ExperimentSetup prepare_experiment_with_rumors(GraphRef g, const Partition& p,
                                               std::vector<NodeId> rumors);

/// Warm sigma state a caller keeps between queries and lends to select().
/// Only the member the query's sigma_mode reads is used; it must match the
/// setup and the query's sigma_config() or ris_config() draw knobs. With
/// nothing lent, select() builds a private one.
struct WarmSigma {
  const SigmaEstimator* estimator = nullptr;  ///< Monte-Carlo greedy
  RisContext* ris = nullptr;                  ///< RIS greedy
};

/// Stopping state of the RIS sampling loop (see RisGreedyResult).
struct RisStopping {
  std::size_t rounds = 0;  ///< stopping checkpoints evaluated
  double sigma_lower = 0.0;
  double sigma_upper = 0.0;
  bool guarantee_met = false;
  RisStopReason stop_reason = RisStopReason::kNone;
};

/// What select() chose and what it cost, in GreedyResult's fields.
/// `protectors` is the deployed set: pick order, or the ascending union of
/// `groups` under multi_mode. The baselines set only `protectors`; SCBG
/// also sets achieved_fraction 1 (it covers every bridge end). Under RIS,
/// sigma_evaluations counts RR sets per pool and candidate_count the nodes
/// in any RR set.
struct Selection : GreedyResult {
  Selection() = default;
  explicit Selection(GreedyResult r) : GreedyResult(std::move(r)) {}

  std::vector<std::vector<NodeId>> groups;  ///< per campaign (multi_mode)
  std::optional<RisStopping> ris;           ///< set when RIS served it
};

/// Runs the selector `opts` names, per the budget rule documented in
/// lcrb/options.h. Validates `opts` (throws lcrb::Error on meaningless
/// combinations). Only nodes_visited depends on what `warm` lends: lent
/// state reports this call's own work alone (see greedy.h and ris.h).
Selection select(const ExperimentSetup& setup, const LcrbOptions& opts,
                 ThreadPool* pool = nullptr, WarmSigma warm = {});

/// select(setup, opts, pool).protectors.
std::vector<NodeId> select_protectors(const ExperimentSetup& setup,
                                      const LcrbOptions& opts,
                                      ThreadPool* pool = nullptr);

/// Evaluates a protector set: Monte-Carlo hop series of infected counts plus
/// the saved fraction of bridge ends (the paper's Figs. 4-9 measurement).
HopSeries evaluate_protectors(const ExperimentSetup& setup,
                              std::span<const NodeId> protectors,
                              const MonteCarloConfig& mc,
                              ThreadPool* pool = nullptr);

/// K-way evaluation: per-campaign rumor and protector groups become one
/// cascade each (make_seed_sets semantics — same-role collisions keep the
/// first group; `priority` is the simultaneous-arrival policy). The rumor
/// groups must union to setup.rumors.
HopSeries evaluate_protector_groups(
    const ExperimentSetup& setup,
    std::span<const std::vector<NodeId>> rumor_groups,
    std::span<const std::vector<NodeId>> protector_groups,
    CascadePriority priority, const MonteCarloConfig& mc,
    ThreadPool* pool = nullptr);

}  // namespace lcrb
