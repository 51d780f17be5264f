#include "lcrb/sigma.h"

#include "lcrb/sigma_engine.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcrb {

SigmaEstimator::SigmaEstimator(GraphRef g, std::vector<NodeId> rumors,
                               std::vector<NodeId> bridge_ends,
                               const SigmaConfig& cfg, ThreadPool* pool)
    : bridge_ends_(std::move(bridge_ends)), cfg_(cfg), pool_(pool) {
  LCRB_REQUIRE(cfg_.samples >= 1, "need at least one sample");
  LCRB_REQUIRE(!rumors.empty(), "need rumor originators");

  Rng master(cfg_.seed);
  std::vector<std::uint64_t> sample_seeds(cfg_.samples);
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    sample_seeds[i] = master.fork(i).next();
  }
  // The engine runs the rumor-only baselines itself while materializing
  // each sample's realization.
  engine_ = std::make_unique<SigmaEngine>(g, rumors, bridge_ends_,
                                          sample_seeds, cfg_, pool_);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    total += engine_->baseline_infected(i);
  }
  baseline_infected_mean_ =
      static_cast<double>(total) / static_cast<double>(cfg_.samples);
}

SigmaEstimator::~SigmaEstimator() = default;

SigmaEstimator::Totals SigmaEstimator::evaluate_all(
    std::span<const NodeId> protectors) const {
  // Per-sample outcomes land in preassigned slots; the reduction below runs
  // serially in sample order. Outcomes are integer-valued bridge-end counts
  // (exact in double), so parallel and serial runs agree bit for bit.
  std::vector<SigmaEngine::Outcome> outcomes(cfg_.samples);
  auto eval_one = [&](std::size_t i) {
    evals_.fetch_add(1, std::memory_order_relaxed);
    outcomes[i] = engine_->evaluate(i, protectors);
  };
  if (pool_ != nullptr && cfg_.samples > 1) {
    pool_->parallel_for(cfg_.samples, eval_one);
  } else {
    for (std::size_t i = 0; i < cfg_.samples; ++i) eval_one(i);
  }
  Totals t;
  for (const SigmaEngine::Outcome& o : outcomes) {
    t.saved += static_cast<double>(o.saved);
    t.uninfected += static_cast<double>(o.uninfected);
  }
  return t;
}

std::uint64_t SigmaEstimator::nodes_visited() const {
  return engine_->nodes_visited();
}

std::size_t SigmaEstimator::realization_bytes() const {
  return engine_->realization_bytes();
}

std::size_t SigmaEstimator::memory_bytes() const {
  return sizeof(*this) + cfg_.samples * sizeof(std::uint64_t) +
         engine_->realization_bytes();
}

double SigmaEstimator::sigma(std::span<const NodeId> protectors) const {
  return evaluate_all(protectors).saved / static_cast<double>(cfg_.samples);
}

double SigmaEstimator::protected_fraction(
    std::span<const NodeId> protectors) const {
  if (bridge_ends_.empty()) return 1.0;
  return evaluate_all(protectors).uninfected /
         static_cast<double>(cfg_.samples) /
         static_cast<double>(bridge_ends_.size());
}

}  // namespace lcrb
