// Monte-Carlo estimator of the protector influence function sigma(A)
// (paper §V-A): the expected number of bridge ends saved by seeding
// protectors at A, i.e. E|PB(A)|.
//
// Sampling uses common random numbers: sample i fixes every node's pick
// stream (OPOAO) or the live-edge/threshold draw (IC/LT), so evaluating
// different protector sets on sample i realizes the paper's coupled random
// graphs G_R/G_P. That keeps greedy marginal gains low-variance and
// per-sample monotone/submodular (Lemma 4).
//
// Evaluations are served by SigmaEngine: the per-sample randomness of every
// sample is materialized once at construction, so a sigma(A) call replays
// the samples — outcome for outcome what simulate() gives for the same
// sample seed. An estimator whose estimated footprint exceeds
// kMaxSigmaCacheBytes is refused before anything is allocated. Per-sample
// outcomes are integer counts and cross-sample reductions run in fixed
// sample order, so results are bit-identical across thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/backend.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

class SigmaEngine;

/// Protector sets scored per replay pass by SigmaEstimator::sigma_batch:
/// one per bit of a machine word.
inline constexpr std::size_t kSigmaLanes = 64;

/// Largest estimated footprint (SigmaEngine::estimated_bytes plus the
/// per-sample seeds and baselines) a SigmaEstimator may be built with.
inline constexpr std::size_t kMaxSigmaCacheBytes = std::size_t{1} << 30;

struct SigmaConfig {
  std::size_t samples = 50;
  std::uint64_t seed = 7;
  std::uint32_t max_hops = 31;
  DiffusionModel model = DiffusionModel::kOpoao;
  double ic_edge_prob = 0.1;
};

/// Estimates sigma(A) and the protected fraction of the bridge ends for a
/// fixed rumor seed set. Thread-safe for concurrent evaluations.
class SigmaEstimator {
 public:
  /// `g` may reference either backend; the referenced graph must outlive
  /// the estimator (same contract as the old const DiGraph&). Throws
  /// lcrb::Error, before allocating, when the estimated footprint exceeds
  /// kMaxSigmaCacheBytes (dominant term: OPOAO pick tables at 4 B x nodes x
  /// max_hops per sample).
  SigmaEstimator(GraphRef g, std::vector<NodeId> rumors,
                 std::vector<NodeId> bridge_ends, const SigmaConfig& cfg,
                 ThreadPool* pool = nullptr);
  ~SigmaEstimator();

  /// sigma-hat(A): mean over samples of |{v in B : infected without
  /// protectors, uninfected with A}|.
  double sigma(std::span<const NodeId> protectors) const;

  /// Mean fraction of bridge ends ending uninfected when A seeds cascade P.
  /// (The greedy's stopping rule: protect alpha |B| in expectation.)
  double protected_fraction(std::span<const NodeId> protectors) const;

  /// sigma-hat and protected fraction of one protector set.
  struct Score {
    double sigma = 0.0;
    double protected_fraction = 0.0;
  };

  /// Scores base + {c} for every candidate c: element j is
  /// {sigma(with), protected_fraction(with)} for with = base followed by
  /// candidates[j], bit for bit. Runs one task per (sample, block of
  /// lanes_per_pass() candidates), in parallel when a pool is attached, and
  /// reduces each candidate in sample order. Counts one evaluation per
  /// (sample, candidate).
  std::vector<Score> sigma_batch(std::span<const NodeId> base,
                                 std::span<const NodeId> candidates) const;

  /// Candidates one sigma_batch block scores for about the cost of one:
  /// kSigmaLanes when the model replays 64 lanes per pass (OPOAO),
  /// otherwise 1.
  std::size_t lanes_per_pass() const;

  /// protected_fraction({}), read off the per-sample baselines: no replay,
  /// no evaluation counted.
  double baseline_protected_fraction() const;

  /// Mean number of bridge ends infected with no protectors at all.
  double baseline_infected() const { return baseline_infected_mean_; }

  const std::vector<NodeId>& bridge_ends() const { return bridge_ends_; }
  std::size_t samples() const { return cfg_.samples; }

  /// Number of single-sample evaluations performed so far (for the CELF
  /// ablation bench). Approximate under concurrency.
  std::size_t evaluations() const { return evals_; }

  /// Cumulative elementary node-touch operations spent on evaluations
  /// (replay ops) — the common cost currency of the MC-vs-RIS ablation.
  /// Exact once concurrent evaluations have finished.
  std::uint64_t nodes_visited() const;

  /// Bytes held by the realization cache; never more than
  /// kMaxSigmaCacheBytes.
  std::size_t realization_bytes() const;

  /// Heap footprint of the warm state, for the session registry's byte
  /// accounting.
  std::size_t memory_bytes() const;

 private:
  struct Totals {
    double saved = 0.0;       ///< sum over samples of |PB(A)|
    double uninfected = 0.0;  ///< sum over samples of |B| - infected(A)
  };
  /// Evaluates every sample (in parallel when a pool is attached) and
  /// reduces the per-sample outcomes in fixed sample order, so the result
  /// does not depend on thread scheduling.
  Totals evaluate_all(std::span<const NodeId> protectors) const;
  Score score(const Totals& t) const;

  std::vector<NodeId> bridge_ends_;
  SigmaConfig cfg_;
  ThreadPool* pool_;

  std::unique_ptr<SigmaEngine> engine_;
  double baseline_infected_mean_ = 0.0;
  mutable std::atomic<std::size_t> evals_{0};
};

}  // namespace lcrb
