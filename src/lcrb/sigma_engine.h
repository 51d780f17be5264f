// Sample evaluation engine behind SigmaEstimator — the only code that
// produces a per-sample sigma outcome.
//
// The estimator's common-random-number coupling (paper §V-A, Lemma 4) fixes
// ALL randomness of sample i the moment the sample seed is drawn: OPOAO's
// pick stream, the IC family's live-edge coins, LT's node thresholds. The
// engine materializes every sample's realization once at construction and
// turns every sigma evaluation into a cheap deterministic replay, which
// gives the outcome simulate() (the forward kernel, run_cascade<Traits>)
// gives for the same sample seed, bit for bit. The engine does not bound
// its own size: SigmaEstimator refuses a config whose estimated_bytes (plus
// its per-sample bookkeeping) exceeds kMaxSigmaCacheBytes.
//
// OPOAO's pick table does not depend on colors, so the engine evaluates up
// to kSigmaLanes (64) protector sets that share a base in one pass over it
// (evaluate_lanes over OpoaoTraits::replay_lanes, which keeps one lane word
// per cascade per node). A single set keeps the model's one-set replay.
// Models without a lane kernel evaluate a batch lane by lane.
//
// The engine itself is model-generic: everything model-specific — what a
// cached sample IS (pick tables, live subgraphs, thresholds), how a replay
// runs, and how a bridge end's verdict is read — comes from the model's
// traits (src/diffusion/model_traits.h, the cache members). The
// engine contributes the shared machinery: per-sample baselines via
// run_cascade, protector-seed validation and color stamping, epoch-stamped
// scratch leasing (no per-evaluation allocation, no O(n) clearing), the
// bridge-end counting loop, and byte accounting. A model compiled against
// the cache contract is cross-checked against its forward simulator in
// tests/diffusion/model_conformance_test.cpp — same outcomes, bit for bit.
//
// Every model has a cache. A deterministic model (DOAM, kDeterministic)
// realizes the same cascade in every sample, so the engine materializes
// one realization, every sample index replays it, and the byte estimate
// counts that one realization.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lcrb/sigma.h"

namespace lcrb {

class SigmaEngine {
 public:
  /// Per-sample evaluation result, in bridge-end counts. Counts are exact
  /// integers, so any summation order over samples is bit-identical.
  struct Outcome {
    std::uint32_t saved = 0;       ///< infected in baseline, uninfected now
    std::uint32_t uninfected = 0;  ///< bridge ends ending uninfected
  };

  /// Upper-bound estimate of the bytes needed to materialize all
  /// cfg.samples samples (one realization for a deterministic model);
  /// saturates at SIZE_MAX rather than wrapping.
  static std::size_t estimated_bytes(GraphRef g, const SigmaConfig& cfg);

  /// Runs every sample's rumor-only baseline and materializes its
  /// realization; `sample_seeds` must be the estimator's per-sample seeds.
  /// Construction parallelizes over samples when `pool` is given; the data
  /// built is identical regardless.
  SigmaEngine(GraphRef g, std::span<const NodeId> rumors,
              std::span<const NodeId> bridge_ends,
              std::span<const std::uint64_t> sample_seeds,
              const SigmaConfig& cfg, ThreadPool* pool);
  ~SigmaEngine();

  SigmaEngine(const SigmaEngine&) = delete;
  SigmaEngine& operator=(const SigmaEngine&) = delete;

  /// Evaluates sample i with cascade P seeded at `protectors`. Thread-safe:
  /// concurrent replays lease independent scratch buffers. Throws
  /// lcrb::Error if a protector seed is out of range, duplicated, or
  /// collides with a rumor seed (matching simulate()'s validation).
  Outcome evaluate(std::size_t sample,
                   std::span<const NodeId> protectors) const;

  /// Evaluates sample i once per lane: out[l] = evaluate(sample, base
  /// followed by extras[l]), bit for bit, and any lane evaluate() would
  /// reject throws the same lcrb::Error. 1 <= extras.size() <= kSigmaLanes
  /// and out.size() == extras.size(). A model with a lane kernel (OPOAO)
  /// settles two or more lanes in one replay pass; a single lane and other
  /// models run lane by lane.
  void evaluate_lanes(std::size_t sample, std::span<const NodeId> base,
                      std::span<const NodeId> extras,
                      std::span<Outcome> out) const;

  /// Sets one evaluate_lanes call on every sample scores for about the
  /// cost of one set: kSigmaLanes when the model has a lane kernel,
  /// otherwise 1 (lanes then run one by one, so extra lanes cost in full).
  std::size_t lanes_per_pass() const;

  /// Bridge ends infected in sample i with no protectors at all.
  std::uint32_t baseline_infected(std::size_t sample) const;

  /// Actual bytes held by the realization caches; never more than
  /// estimated_bytes.
  std::size_t realization_bytes() const;

  /// Cumulative elementary node-touch operations across all evaluations
  /// (table lookups / arcs scanned / weight updates; an OPOAO lane-word
  /// pick, which settles up to 64 sets at once, counts one) — the common cost currency the MC-vs-RIS
  /// ablation compares. Relaxed counter: exact once concurrent evaluations
  /// have finished.
  std::uint64_t nodes_visited() const;

  /// Model-generic interface the per-traits implementation fulfills
  /// (defined in sigma_engine.cpp; public so the templated implementation
  /// can derive from it).
  class Base;

 private:
  std::unique_ptr<Base> impl_;
};

}  // namespace lcrb
