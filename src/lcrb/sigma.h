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
// The per-sample randomness of every sample is materialized once at
// construction (the realization cache), so a sigma(A) call replays the
// samples — outcome for outcome what simulate() gives for the same sample
// seed. Everything model-specific (what a cached sample is, how a replay
// runs, how a target's verdict is read) comes from the model's traits
// (diffusion/model_traits.h); the estimator resolves model x backend once
// per construction and supplies the shared machinery: baselines, protector
// validation, scratch leasing and the target counting loop. A
// deterministic model (DOAM) materializes one realization, replayed once
// per protector set and weighted by the sample count. OPOAO's pick table does not depend on colors, so
// sigma_batch scores up to kSigmaLanes (64) sets that share a base in one
// replay pass. An estimator whose estimated footprint exceeds
// kMaxSigmaCacheBytes is refused before anything is allocated. Per-sample
// outcomes are integer counts and cross-sample reductions run in fixed
// sample order, so results are bit-identical across thread counts.
//
// The "bridge ends" are the estimator's targets: GVS passes every non-rumor
// node to count total infections.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/backend.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

/// Protector sets scored per replay pass by SigmaEstimator::sigma_batch:
/// one per bit of a machine word.
inline constexpr std::size_t kSigmaLanes = 64;

/// Largest estimated footprint (realization caches plus the per-sample
/// seeds and baselines) a SigmaEstimator may be built with.
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

  /// Estimated footprint of an estimator for `cfg` over `targets` bridge
  /// ends (saturating at SIZE_MAX). Throws lcrb::Error when it exceeds
  /// kMaxSigmaCacheBytes, telling the caller to lower `samples_option` (the
  /// option that set cfg.samples) or max_hops; the constructor runs this
  /// check naming sigma_samples.
  static std::size_t check_footprint(GraphRef g, std::size_t targets,
                                     const SigmaConfig& cfg,
                                     std::string_view samples_option);

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
    /// Sum over samples of the bridge ends ending uninfected: an exact
    /// integer, for callers that need counts rather than a fraction.
    double uninfected = 0.0;
  };

  /// The Score of one protector set; sigma() and protected_fraction() read
  /// their field of it.
  Score score(std::span<const NodeId> protectors) const;

  /// Scores base + {c} for every candidate c: element j is score(with)
  /// for with = base followed by candidates[j], bit for bit. Runs one task
  /// per (realization, block of lanes_per_pass() candidates), in parallel
  /// when a pool is attached, and reduces each candidate in sample order.
  /// Counts one evaluation per (sample, candidate).
  std::vector<Score> sigma_batch(std::span<const NodeId> base,
                                 std::span<const NodeId> candidates) const;

  /// Per-sample evaluation result, in bridge-end counts. Counts are exact
  /// integers, so any summation order over samples is bit-identical.
  struct Outcome {
    std::uint32_t saved = 0;       ///< infected in baseline, uninfected now
    std::uint32_t uninfected = 0;  ///< bridge ends ending uninfected
  };

  /// Replays sample i with cascade P seeded at `protectors`. Thread-safe:
  /// concurrent replays lease independent scratch buffers. Throws
  /// lcrb::Error if a protector seed is out of range, duplicated, or
  /// collides with a rumor seed (matching simulate()'s validation). Counts
  /// one evaluation.
  Outcome evaluate(std::size_t sample,
                   std::span<const NodeId> protectors) const;

  /// Replays sample i once per lane: out[l] = evaluate(sample, base
  /// followed by extras[l]), bit for bit, and any lane evaluate() would
  /// reject throws the same lcrb::Error. 1 <= extras.size() <= kSigmaLanes
  /// and out.size() == extras.size(). A model with a lane kernel (OPOAO)
  /// settles two or more lanes in one replay pass; a single lane and other
  /// models run lane by lane. Counts one evaluation per lane.
  void evaluate_lanes(std::size_t sample, std::span<const NodeId> base,
                      std::span<const NodeId> extras,
                      std::span<Outcome> out) const;

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
  /// (table lookups / arcs scanned / weight updates; an OPOAO lane-word
  /// pick, which settles up to 64 sets at once, counts one) — the common
  /// cost currency of the MC-vs-RIS ablation. Exact once concurrent
  /// evaluations have finished.
  std::uint64_t nodes_visited() const;

  /// Bytes held by the realization cache; never more than
  /// kMaxSigmaCacheBytes.
  std::size_t realization_bytes() const;

  /// Heap footprint of the warm state, for the session registry's byte
  /// accounting.
  std::size_t memory_bytes() const;

 private:
  /// The model-generic replay interface, and its one implementation per
  /// (model traits x graph backend); both live in sigma.cpp.
  class Impl;
  template <class Traits, class G>
  class EngineImpl;

  struct Totals {
    double saved = 0.0;       ///< sum over samples of |PB(A)|
    double uninfected = 0.0;  ///< sum over samples of |B| - infected(A)
  };
  /// Evaluates every distinct realization (in parallel when a pool is
  /// attached) and reduces the outcomes in fixed sample order, so the
  /// result does not depend on thread scheduling. Counts one evaluation
  /// per sample.
  Totals evaluate_all(std::span<const NodeId> protectors) const;
  Score to_score(const Totals& t) const;

  std::vector<NodeId> bridge_ends_;
  SigmaConfig cfg_;
  ThreadPool* pool_;

  std::unique_ptr<Impl> impl_;
  double baseline_infected_mean_ = 0.0;
  mutable std::atomic<std::size_t> evals_{0};
};

}  // namespace lcrb
