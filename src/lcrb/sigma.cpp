#include "lcrb/sigma.h"

#include <algorithm>
#include <string>

#include "lcrb/sigma_engine.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcrb {

namespace {

/// What an estimator for `cfg` would hold, saturating: the engine's
/// realization caches plus, per sample, its seed and a baseline (bitset
/// over the bridge ends and infected count). A deterministic model keeps
/// one baseline, but every evaluation still buffers one outcome per sample,
/// so the per-sample term is counted for every sample.
std::size_t estimated_footprint(GraphRef g, std::size_t bridge_ends,
                                const SigmaConfig& cfg) {
  const std::size_t per_sample =
      sizeof(std::uint64_t) + sizeof(DynamicBitset) +
      (bridge_ends + 63) / 64 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
  return sat_add(SigmaEngine::estimated_bytes(g, cfg),
                 sat_mul(cfg.samples, per_sample));
}

}  // namespace

SigmaEstimator::SigmaEstimator(GraphRef g, std::vector<NodeId> rumors,
                               std::vector<NodeId> bridge_ends,
                               const SigmaConfig& cfg, ThreadPool* pool)
    : bridge_ends_(std::move(bridge_ends)), cfg_(cfg), pool_(pool) {
  LCRB_REQUIRE(cfg_.samples >= 1, "need at least one sample");
  LCRB_REQUIRE(!rumors.empty(), "need rumor originators");
  // The estimate depends only on the graph, the bridge ends and the config,
  // so it is checked before the first per-sample allocation.
  const std::size_t bytes = estimated_footprint(g, bridge_ends_.size(), cfg_);
  if (bytes > kMaxSigmaCacheBytes) {
    throw Error("sigma: the estimator would hold an estimated " +
                std::to_string(bytes) + " bytes, over the " +
                std::to_string(kMaxSigmaCacheBytes) +
                "-byte bound; lower sigma_samples or max_hops");
  }

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

std::vector<SigmaEstimator::Score> SigmaEstimator::sigma_batch(
    std::span<const NodeId> base, std::span<const NodeId> candidates) const {
  const std::size_t n = candidates.size();
  const std::size_t width = engine_->lanes_per_pass();
  const std::size_t blocks = (n + width - 1) / width;
  // outcomes[i * n + j]: sample i, candidate j.
  std::vector<SigmaEngine::Outcome> outcomes(cfg_.samples * n);
  // Task t scores one block of `width` candidates on one sample. Lane
  // passes run sample-major, keeping a sample's pick table hot across its
  // blocks. One-set passes run block-major, so a candidate's samples run
  // back to back as sigma() runs them, which keeps its replay hot in cache
  // (DOAM: about 35% faster than sample-major).
  auto task = [&](std::size_t t) {
    const std::size_t i = width > 1 ? t / blocks : t % cfg_.samples;
    const std::size_t first =
        (width > 1 ? t % blocks : t / cfg_.samples) * width;
    const std::size_t lanes = std::min(width, n - first);
    evals_.fetch_add(lanes, std::memory_order_relaxed);
    engine_->evaluate_lanes(i, base, candidates.subspan(first, lanes),
                            {outcomes.data() + i * n + first, lanes});
  };
  const std::size_t tasks = cfg_.samples * blocks;
  if (pool_ != nullptr && tasks > 1) {
    pool_->parallel_for(tasks, task);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) task(t);
  }
  // Per candidate, the same sample-order reduction as evaluate_all.
  std::vector<Score> out(n);
  for (std::size_t j = 0; j < n; ++j) {
    Totals t;
    for (std::size_t i = 0; i < cfg_.samples; ++i) {
      t.saved += static_cast<double>(outcomes[i * n + j].saved);
      t.uninfected += static_cast<double>(outcomes[i * n + j].uninfected);
    }
    out[j] = score(t);
  }
  return out;
}

std::size_t SigmaEstimator::lanes_per_pass() const {
  return engine_->lanes_per_pass();
}

double SigmaEstimator::baseline_protected_fraction() const {
  // With no protectors every sample ends at its baseline; reduced in sample
  // order, as evaluate_all would.
  Totals t;
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    t.uninfected += static_cast<double>(bridge_ends_.size() -
                                        engine_->baseline_infected(i));
  }
  return score(t).protected_fraction;
}

SigmaEstimator::Score SigmaEstimator::score(const Totals& t) const {
  const auto samples = static_cast<double>(cfg_.samples);
  Score s;
  s.sigma = t.saved / samples;
  s.protected_fraction =
      bridge_ends_.empty()
          ? 1.0
          : t.uninfected / samples / static_cast<double>(bridge_ends_.size());
  return s;
}

std::uint64_t SigmaEstimator::nodes_visited() const {
  return engine_->nodes_visited();
}

std::size_t SigmaEstimator::realization_bytes() const {
  return engine_->realization_bytes();
}

std::size_t SigmaEstimator::memory_bytes() const {
  // One word per sample stands for the engine's per-sample baselines.
  return sizeof(*this) + cfg_.samples * sizeof(std::uint64_t) +
         engine_->realization_bytes();
}

double SigmaEstimator::sigma(std::span<const NodeId> protectors) const {
  return score(evaluate_all(protectors)).sigma;
}

double SigmaEstimator::protected_fraction(
    std::span<const NodeId> protectors) const {
  if (bridge_ends_.empty()) return 1.0;
  return score(evaluate_all(protectors)).protected_fraction;
}

}  // namespace lcrb
