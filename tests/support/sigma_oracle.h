// Reference sigma for the realization-cache cross-checks: the forward
// kernel, sample by sample. For every sample seed the estimator draws, it
// runs simulate() without and with the protectors and counts the saved and
// the uninfected bridge ends, reducing in sample order exactly as
// SigmaEstimator does. Counts are integers, so a cache replay of the same
// seeds must agree with it bit for bit, not approximately.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/montecarlo.h"
#include "lcrb/sigma.h"
#include "util/rng.h"

namespace lcrb::statcheck {

/// The estimator's per-sample seeds for `cfg`.
inline std::vector<std::uint64_t> sample_seeds(const SigmaConfig& cfg) {
  Rng master(cfg.seed);
  std::vector<std::uint64_t> seeds(cfg.samples);
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    seeds[i] = master.fork(i).next();
  }
  return seeds;
}

struct OracleSigma {
  double sigma = 0.0;               ///< mean saved bridge ends
  double protected_fraction = 1.0;  ///< mean uninfected share of the ends
  double baseline_infected = 0.0;   ///< mean infected ends, no protectors
};

/// SigmaEstimator::sigma, protected_fraction and baseline_infected of
/// `protectors`, recomputed with two simulate() runs per sample.
template <class G>
OracleSigma oracle_sigma(const G& g, std::span<const NodeId> rumors,
                         std::span<const NodeId> bridge_ends,
                         std::span<const NodeId> protectors,
                         const SigmaConfig& cfg) {
  const RealizationParams params{cfg.max_hops, cfg.ic_edge_prob};
  SeedSets alone;
  alone.rumors.assign(rumors.begin(), rumors.end());
  SeedSets with = alone;
  with.protectors.assign(protectors.begin(), protectors.end());
  double saved = 0.0;
  double uninfected = 0.0;
  std::uint64_t baseline = 0;
  for (const std::uint64_t seed : sample_seeds(cfg)) {
    const DiffusionResult base = simulate(g, alone, seed, cfg.model, params);
    const DiffusionResult run = simulate(g, with, seed, cfg.model, params);
    for (const NodeId b : bridge_ends) {
      const bool was_infected = base.state[b] == NodeState::kInfected;
      if (was_infected) ++baseline;
      if (run.state[b] != NodeState::kInfected) {
        uninfected += 1.0;
        if (was_infected) saved += 1.0;
      }
    }
  }
  const auto samples = static_cast<double>(cfg.samples);
  OracleSigma out;
  out.sigma = saved / samples;
  if (!bridge_ends.empty()) {
    out.protected_fraction =
        uninfected / samples / static_cast<double>(bridge_ends.size());
  }
  out.baseline_infected = static_cast<double>(baseline) / samples;
  return out;
}

}  // namespace lcrb::statcheck
