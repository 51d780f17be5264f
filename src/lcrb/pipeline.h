// End-to-end experiment pipeline: graph -> communities -> rumor seeds ->
// bridge ends -> protector selection -> diffusion evaluation. Shared by the
// examples, every bench binary, and the src/service/ query engine.
//
// The selection entry point is select_protectors(setup, LcrbOptions) — one
// validated aggregate of every selection knob.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/backend.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "lcrb/gvs.h"
#include "lcrb/options.h"
#include "lcrb/scbg.h"
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
/// computes the bridge ends. Deterministic in `seed`.
template <GraphView G>
ExperimentSetup prepare_experiment(const G& g, const Partition& p,
                                   CommunityId rumor_community,
                                   std::size_t num_rumors, std::uint64_t seed);

/// Variant with explicit rumor originators (they must share one community);
/// used by the CLI's --rumor-ids and the query service's rumor_ids field.
template <GraphView G>
ExperimentSetup prepare_experiment_with_rumors(const G& g,
                                               const Partition& p,
                                               std::vector<NodeId> rumors);

/// Runtime-dispatch overloads for GraphRef holders (the service layer).
/// GraphRef does not satisfy GraphView, so these never collide with the
/// templates above; concrete graphs still bind the template directly.
ExperimentSetup prepare_experiment(GraphRef g, const Partition& p,
                                   CommunityId rumor_community,
                                   std::size_t num_rumors, std::uint64_t seed);
ExperimentSetup prepare_experiment_with_rumors(GraphRef g, const Partition& p,
                                               std::vector<NodeId> rumors);

/// Runs one selector per the budget rule documented in lcrb/options.h.
/// Validates `opts` (throws lcrb::Error on meaningless combinations). When
/// opts.multi_mode is on, returns the deployed union of the per-campaign
/// groups (use select_protector_groups for the groups themselves).
std::vector<NodeId> select_protectors(const ExperimentSetup& setup,
                                      const LcrbOptions& opts,
                                      ThreadPool* pool = nullptr);

/// Multi-campaign selection (opts.multi_mode must not be kOff): one
/// protector group per entry of opts.protector_budgets, selected against
/// the rumor-role union per MultiCascadeMode.
MultiGreedyResult select_protector_groups(const ExperimentSetup& setup,
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
