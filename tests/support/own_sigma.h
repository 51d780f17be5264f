// The greedy engines run against sigma state built for the one call — the
// SigmaEstimator or RisContext select() builds when none is lent — for tests
// that drive an engine on a bare graph, rumor set and bridge ends rather
// than through an ExperimentSetup. nodes_visited is the engine's own report
// (0 for the Monte-Carlo engines, greedy ops under RIS); select()'s private
// figure is pinned in tests/lcrb/pipeline_test.cpp.
#pragma once

#include <cstddef>
#include <span>

#include "lcrb/greedy.h"
#include "lcrb/ris.h"
#include "lcrb/sigma.h"

namespace lcrb::testutil {

template <class G>
GreedyResult greedy_own(const G& g, std::span<const NodeId> rumors,
                        const BridgeEndResult& bridges,
                        const GreedyConfig& cfg, ThreadPool* pool = nullptr) {
  const SigmaEstimator est(g, {rumors.begin(), rumors.end()},
                           bridges.bridge_ends, cfg.sigma, pool);
  return greedy_lcrbp_with_estimator(g, rumors, bridges, cfg, est, pool);
}

template <class G>
MultiGreedyResult greedy_multi_own(const G& g, std::span<const NodeId> rumors,
                                   const BridgeEndResult& bridges,
                                   const GreedyConfig& cfg,
                                   std::span<const std::size_t> budgets,
                                   MultiCascadeMode mode,
                                   ThreadPool* pool = nullptr) {
  const SigmaEstimator est(g, {rumors.begin(), rumors.end()},
                           bridges.bridge_ends, cfg.sigma, pool);
  return greedy_multi_with_estimator(g, rumors, bridges, cfg, budgets, mode,
                                     est, pool);
}

inline RisGreedyResult ris_greedy_own(GraphRef g,
                                      std::span<const NodeId> rumors,
                                      const BridgeEndResult& bridges,
                                      double alpha, std::size_t max_protectors,
                                      const RisConfig& cfg,
                                      ThreadPool* pool = nullptr) {
  RisContext ctx(g, {rumors.begin(), rumors.end()}, bridges.bridge_ends, cfg);
  return ris_greedy_with_context(alpha, max_protectors, cfg, ctx, pool);
}

}  // namespace lcrb::testutil
