#include "lcrb/sigma.h"

#include <algorithm>
#include <bit>
#include <concepts>
#include <string>
#include <type_traits>
#include <utility>

#include "diffusion/kernel.h"
#include "diffusion/model_traits.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/scratch_pool.h"

namespace lcrb {

// The model-generic replay interface. One virtual hop per call; everything
// inside an evaluation — the replay, the bridge-end verdicts — is resolved
// against the traits at compile time.
class SigmaEstimator::Impl {
 public:
  virtual ~Impl() = default;
  virtual Outcome evaluate(std::size_t sample,
                           std::span<const NodeId> protectors) const = 0;
  virtual void evaluate_lanes(std::size_t sample,
                              std::span<const NodeId> base,
                              std::span<const NodeId> extras,
                              std::span<Outcome> out) const = 0;
  virtual std::size_t lanes_per_pass() const = 0;
  virtual std::size_t distinct_samples() const = 0;
  virtual std::uint32_t baseline_infected(std::size_t sample) const = 0;
  virtual std::size_t realization_bytes() const = 0;
  virtual std::uint64_t nodes_visited() const = 0;
};

namespace {

/// A model whose cache also replays up to kSigmaLanes protector sets per
/// pass (OPOAO). Every model replays one set per pass (`replay`).
template <class Traits, class G>
concept LaneReplay = requires(const G& g,
                              const typename Traits::CacheShared& shared,
                              const typename Traits::CacheSample& sp,
                              std::span<const NodeId> ids,
                              std::span<std::uint64_t> words,
                              const RealizationParams& p) {
  {
    Traits::replay_lanes(g, shared, sp, ids, ids, ids, ids, words, p)
  } -> std::same_as<std::uint64_t>;
};

/// Distinct realizations behind `samples` samples: every sample of a
/// deterministic model (DOAM) realizes the same cascade, so it has one.
template <class Traits>
std::size_t realizations(std::size_t samples) {
  return Traits::kDeterministic ? std::min<std::size_t>(samples, 1) : samples;
}

/// Upper-bound estimate of the bytes needed to materialize all cfg.samples
/// samples (one realization for a deterministic model); saturates at
/// SIZE_MAX rather than wrapping.
std::size_t estimated_cache_bytes(GraphRef g, const SigmaConfig& cfg) {
  return dispatch_model(cfg.model, [&](auto t) -> std::size_t {
    using T = decltype(t);
    return g.visit([&](const auto& gr) {
      return T::estimated_cache_bytes(gr, realizations<T>(cfg.samples),
                                      cfg.max_hops);
    });
  });
}

/// What an estimator for `cfg` would hold, saturating: the realization
/// caches plus, per sample, its seed and a baseline (bitset over the bridge
/// ends and infected count). A deterministic model keeps one baseline, but
/// every evaluation still buffers one outcome per sample, so the per-sample
/// term is counted for every sample.
std::size_t estimated_footprint(GraphRef g, std::size_t bridge_ends,
                                const SigmaConfig& cfg) {
  const std::size_t per_sample =
      sizeof(std::uint64_t) + sizeof(DynamicBitset) +
      (bridge_ends + 63) / 64 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
  return sat_add(estimated_cache_bytes(g, cfg),
                 sat_mul(cfg.samples, per_sample));
}

}  // namespace

// The realization cache of one model on one backend: each sample's
// rumor-only baseline and materialized randomness, replayed per evaluation.
template <class Traits, class G>
class SigmaEstimator::EngineImpl final : public SigmaEstimator::Impl {
 public:
  EngineImpl(const G& g, std::span<const NodeId> rumors,
             std::span<const NodeId> bridge_ends,
             std::span<const std::uint64_t> sample_seeds,
             const SigmaConfig& cfg, ThreadPool* pool)
      : g_(g),
        num_samples_(cfg.samples),
        params_{cfg.max_hops, cfg.ic_edge_prob},
        rumors_(rumors.begin(), rumors.end()),
        bridge_ends_(bridge_ends.begin(), bridge_ends.end()),
        is_rumor_(g.num_nodes()) {
    for (NodeId r : rumors_) {
      LCRB_REQUIRE(r < g_.num_nodes(), "rumor id out of range");
      is_rumor_.set(r);
    }

    const std::size_t n = realizations<Traits>(num_samples_);
    baseline_bits_.assign(n, DynamicBitset(bridge_ends_.size()));
    baseline_count_.assign(n, 0);
    samples_.resize(n);
    shared_ = Traits::build_cache_shared(g_);

    // Every realization writes only its own slots, so parallel construction
    // yields identical data to serial.
    auto build = [&](std::size_t r) { build_sample(r, sample_seeds[r]); };
    if (pool != nullptr && n > 1) {
      pool->parallel_for(n, build);
    } else {
      for (std::size_t r = 0; r < n; ++r) build(r);
    }
  }

  Outcome evaluate(std::size_t sample,
                   std::span<const NodeId> protectors) const override {
    LCRB_REQUIRE(sample < num_samples_, "sample index out of range");
    return replay(slot(sample), protectors);
  }

  void evaluate_lanes(std::size_t sample, std::span<const NodeId> base,
                      std::span<const NodeId> extras,
                      std::span<Outcome> out) const override {
    LCRB_REQUIRE(sample < num_samples_, "sample index out of range");
    LCRB_REQUIRE(!extras.empty() && extras.size() <= kSigmaLanes,
                 "evaluate_lanes takes 1 to 64 extra seeds");
    LCRB_REQUIRE(out.size() == extras.size(), "one outcome slot per lane");
    const std::size_t r = slot(sample);
    if constexpr (kLanes) {
      // A lone set keeps the one-set replay, which beats a one-lane pass.
      if (extras.size() > 1) {
        replay_lanes(r, base, extras, out);
        return;
      }
    }
    // Lane by lane: the model's one-set replay.
    std::vector<NodeId> with(base.begin(), base.end());
    with.push_back(kInvalidNode);
    for (std::size_t l = 0; l < extras.size(); ++l) {
      with.back() = extras[l];
      out[l] = replay(r, with);
    }
  }

  std::size_t lanes_per_pass() const override {
    return kLanes ? kSigmaLanes : 1;
  }

  std::size_t distinct_samples() const override { return samples_.size(); }

  std::uint32_t baseline_infected(std::size_t sample) const override {
    return baseline_count_[slot(sample)];
  }

  std::size_t realization_bytes() const override {
    std::size_t total = Traits::cache_shared_bytes(shared_);
    for (const Sample& sp : samples_) total += Traits::cache_sample_bytes(sp);
    return total;
  }

  std::uint64_t nodes_visited() const override {
    return visits_.load(std::memory_order_relaxed);
  }

 private:
  using Shared = typename Traits::CacheShared;
  using Sample = typename Traits::CacheSample;
  static constexpr bool kLanes = LaneReplay<Traits, G>;

  /// The realization sample i evaluates on.
  static std::size_t slot(std::size_t i) {
    return Traits::kDeterministic ? 0 : i;
  }

  /// Epoch-stamped scratch for one in-flight replay: the shared color state
  /// plus the model's own working memory, advanced in lockstep.
  struct Scratch {
    explicit Scratch(NodeId n) : color(n), model(n) {}
    void bump() {
      if (color.bump()) model.on_epoch_wrap();
    }
    EpochColorScratch color;
    typename Traits::ReplayScratch model;
  };

  void build_sample(std::size_t i, std::uint64_t seed) {
    // Rumor-only baseline through the reference kernel: a replay must
    // reproduce exactly what simulate() realizes for this sample seed.
    SeedSets seeds;
    seeds.rumors = rumors_;
    DiffusionResult base = run_cascade<Traits>(g_, seeds, seed, params_);

    std::uint32_t count = 0;
    std::vector<NodeId> infected_targets;
    for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
      if (base.state[bridge_ends_[b]] == NodeState::kInfected) {
        baseline_bits_[i].set(b);
        ++count;
        infected_targets.push_back(bridge_ends_[b]);
      }
    }
    baseline_count_[i] = count;
    Traits::build_cache_sample(g_, shared_, seed, std::move(base),
                               infected_targets, params_, samples_[i]);
  }

  Outcome replay(std::size_t sample,
                 std::span<const NodeId> protectors) const {
    auto s = scratch_.lease(g_.num_nodes());
    s->bump();
    // Shared protector-seed validation + P stamping; the model replay then
    // derives its own seeding structures from `protectors` in this order.
    for (NodeId v : protectors) seed_protector(v, s->color);
    const Sample& sp = samples_[sample];
    const std::uint64_t ops = Traits::replay(g_, shared_, sp, rumors_,
                                             protectors, s->color, s->model,
                                             params_);
    visits_.fetch_add(ops, std::memory_order_relaxed);
    // Bridge-end verdicts against the realization's baseline.
    Outcome o;
    const DynamicBitset& base = baseline_bits_[sample];
    for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
      const bool base_infected = base.test(b);
      if (!Traits::replay_infected(sp, s->color, s->model, bridge_ends_[b],
                                   base_infected)) {
        ++o.uninfected;
        if (base_infected) ++o.saved;
      }
    }
    return o;
  }

  /// Lane replay: lane l seeds base plus extras[l]. Seeds are validated
  /// exactly as evaluate() validates base followed by the lane's extra.
  void replay_lanes(std::size_t sample, std::span<const NodeId> base,
                    std::span<const NodeId> extras,
                    std::span<Outcome> out) const
    requires kLanes
  {
    std::vector<std::uint64_t> infected(bridge_ends_.size());
    {
      // The leased color scratch only validates: the lane kernel keeps its
      // own per-pass working memory.
      auto s = scratch_.lease(g_.num_nodes());
      s->bump();
      for (NodeId v : base) seed_protector(v, s->color);
      for (NodeId v : extras) check_protector(v, s->color);
    }
    const std::uint64_t ops =
        Traits::replay_lanes(g_, shared_, samples_[sample], rumors_, base,
                             extras, bridge_ends_, infected, params_);
    visits_.fetch_add(ops, std::memory_order_relaxed);

    const std::uint64_t all = out.size() == 64
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << out.size()) - 1;
    std::fill(out.begin(), out.end(), Outcome{});
    const DynamicBitset& base_bits = baseline_bits_[sample];
    for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
      const std::uint32_t was_infected = base_bits.test(b) ? 1 : 0;
      for (std::uint64_t clean = ~infected[b] & all; clean != 0;
           clean &= clean - 1) {
        Outcome& o = out[static_cast<std::size_t>(std::countr_zero(clean))];
        ++o.uninfected;
        o.saved += was_infected;
      }
    }
  }

  /// Rejects a protector seed that is out of range, a rumor seed, or
  /// already seeded in `color`.
  void check_protector(NodeId v, const EpochColorScratch& color) const {
    LCRB_REQUIRE(v < g_.num_nodes(), "protector id out of range");
    LCRB_REQUIRE(!is_rumor_.test(v), "protector seed collides with a rumor");
    LCRB_REQUIRE(!color.colored(v), "duplicate protector seed");
  }

  void seed_protector(NodeId v, EpochColorScratch& color) const {
    check_protector(v, color);
    color.set(v, kColorP);
  }

  const G& g_;
  std::size_t num_samples_;
  RealizationParams params_;
  std::vector<NodeId> rumors_;
  std::vector<NodeId> bridge_ends_;
  DynamicBitset is_rumor_;

  Shared shared_;
  std::vector<Sample> samples_;  ///< one per realization

  std::vector<DynamicBitset> baseline_bits_;
  std::vector<std::uint32_t> baseline_count_;

  mutable ScratchPool<Scratch> scratch_;
  mutable std::atomic<std::uint64_t> visits_{0};
};

std::size_t SigmaEstimator::check_footprint(GraphRef g, std::size_t targets,
                                            const SigmaConfig& cfg,
                                            std::string_view samples_option) {
  const std::size_t bytes = estimated_footprint(g, targets, cfg);
  if (bytes > kMaxSigmaCacheBytes) {
    throw Error("sigma: the estimator would hold an estimated " +
                std::to_string(bytes) + " bytes, over the " +
                std::to_string(kMaxSigmaCacheBytes) + "-byte bound; lower " +
                std::string(samples_option) + " or max_hops");
  }
  return bytes;
}

SigmaEstimator::SigmaEstimator(GraphRef g, std::vector<NodeId> rumors,
                               std::vector<NodeId> bridge_ends,
                               const SigmaConfig& cfg, ThreadPool* pool)
    : bridge_ends_(std::move(bridge_ends)), cfg_(cfg), pool_(pool) {
  LCRB_REQUIRE(cfg_.samples >= 1, "need at least one sample");
  LCRB_REQUIRE(!rumors.empty(), "need rumor originators");
  // The estimate depends only on the graph, the bridge ends and the config,
  // so it is checked before the first per-sample allocation.
  check_footprint(g, bridge_ends_.size(), cfg_, "sigma_samples");

  Rng master(cfg_.seed);
  std::vector<std::uint64_t> sample_seeds(cfg_.samples);
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    sample_seeds[i] = master.fork(i).next();
  }
  // Two-level dispatch, resolved once per estimator: model x backend picks
  // the fully concrete EngineImpl, which runs the rumor-only baselines while
  // materializing each sample's realization.
  impl_ = dispatch_model(cfg_.model, [&](auto t) -> std::unique_ptr<Impl> {
    using T = decltype(t);
    return g.visit([&](const auto& gr) -> std::unique_ptr<Impl> {
      using Gr = std::decay_t<decltype(gr)>;
      return std::make_unique<EngineImpl<T, Gr>>(gr, rumors, bridge_ends_,
                                                 sample_seeds, cfg_, pool_);
    });
  });
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    total += impl_->baseline_infected(i);
  }
  baseline_infected_mean_ =
      static_cast<double>(total) / static_cast<double>(cfg_.samples);
}

SigmaEstimator::~SigmaEstimator() = default;

SigmaEstimator::Outcome SigmaEstimator::evaluate(
    std::size_t sample, std::span<const NodeId> protectors) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  return impl_->evaluate(sample, protectors);
}

void SigmaEstimator::evaluate_lanes(std::size_t sample,
                                    std::span<const NodeId> base,
                                    std::span<const NodeId> extras,
                                    std::span<Outcome> out) const {
  evals_.fetch_add(extras.size(), std::memory_order_relaxed);
  impl_->evaluate_lanes(sample, base, extras, out);
}

SigmaEstimator::Totals SigmaEstimator::evaluate_all(
    std::span<const NodeId> protectors) const {
  // Per-realization outcomes land in preassigned slots; the reduction below
  // runs serially in sample order. A deterministic model (DOAM) has one
  // realization that every sample replays identically, so it is replayed
  // once and weighs for all samples. Outcomes are integer-valued bridge-end
  // counts (exact in double), so weighting, parallel and serial runs agree
  // bit for bit with summing every sample.
  const std::size_t distinct = impl_->distinct_samples();
  evals_.fetch_add(cfg_.samples, std::memory_order_relaxed);
  std::vector<Outcome> outcomes(distinct);
  auto eval_one = [&](std::size_t i) {
    outcomes[i] = impl_->evaluate(i, protectors);
  };
  if (pool_ != nullptr && distinct > 1) {
    pool_->parallel_for(distinct, eval_one);
  } else {
    for (std::size_t i = 0; i < distinct; ++i) eval_one(i);
  }
  const auto weight = static_cast<double>(cfg_.samples / distinct);
  Totals t;
  for (const Outcome& o : outcomes) {
    t.saved += weight * static_cast<double>(o.saved);
    t.uninfected += weight * static_cast<double>(o.uninfected);
  }
  return t;
}

std::vector<SigmaEstimator::Score> SigmaEstimator::sigma_batch(
    std::span<const NodeId> base, std::span<const NodeId> candidates) const {
  const std::size_t n = candidates.size();
  const std::size_t width = impl_->lanes_per_pass();
  const std::size_t blocks = (n + width - 1) / width;
  // As in evaluate_all, each distinct realization is replayed once.
  const std::size_t distinct = impl_->distinct_samples();
  evals_.fetch_add(cfg_.samples * n, std::memory_order_relaxed);
  // outcomes[i * n + j]: realization i, candidate j.
  std::vector<Outcome> outcomes(distinct * n);
  // Task t scores one block of `width` candidates on one realization. Lane
  // passes run sample-major, keeping a sample's pick table hot across its
  // blocks. One-set passes run block-major, so a candidate's samples run
  // back to back as sigma() runs them, which keeps its replay hot in cache.
  auto task = [&](std::size_t t) {
    const std::size_t i = width > 1 ? t / blocks : t % distinct;
    const std::size_t first = (width > 1 ? t % blocks : t / distinct) * width;
    const std::size_t lanes = std::min(width, n - first);
    impl_->evaluate_lanes(i, base, candidates.subspan(first, lanes),
                          {outcomes.data() + i * n + first, lanes});
  };
  const std::size_t tasks = distinct * blocks;
  if (pool_ != nullptr && tasks > 1) {
    pool_->parallel_for(tasks, task);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) task(t);
  }
  // Per candidate, the same weighted sample-order reduction as evaluate_all.
  const auto weight = static_cast<double>(cfg_.samples / distinct);
  std::vector<Score> out(n);
  for (std::size_t j = 0; j < n; ++j) {
    Totals t;
    for (std::size_t i = 0; i < distinct; ++i) {
      t.saved += weight * static_cast<double>(outcomes[i * n + j].saved);
      t.uninfected +=
          weight * static_cast<double>(outcomes[i * n + j].uninfected);
    }
    out[j] = to_score(t);
  }
  return out;
}

std::size_t SigmaEstimator::lanes_per_pass() const {
  return impl_->lanes_per_pass();
}

double SigmaEstimator::baseline_protected_fraction() const {
  // With no protectors every sample ends at its baseline; reduced in sample
  // order, as evaluate_all would.
  Totals t;
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    t.uninfected += static_cast<double>(bridge_ends_.size() -
                                        impl_->baseline_infected(i));
  }
  return to_score(t).protected_fraction;
}

SigmaEstimator::Score SigmaEstimator::to_score(const Totals& t) const {
  const auto samples = static_cast<double>(cfg_.samples);
  Score s;
  s.sigma = t.saved / samples;
  s.protected_fraction =
      bridge_ends_.empty()
          ? 1.0
          : t.uninfected / samples / static_cast<double>(bridge_ends_.size());
  s.uninfected = t.uninfected;
  return s;
}

std::uint64_t SigmaEstimator::nodes_visited() const {
  return impl_->nodes_visited();
}

std::size_t SigmaEstimator::realization_bytes() const {
  return impl_->realization_bytes();
}

std::size_t SigmaEstimator::memory_bytes() const {
  // One word per sample stands for the per-sample baselines.
  return sizeof(*this) + cfg_.samples * sizeof(std::uint64_t) +
         impl_->realization_bytes();
}

SigmaEstimator::Score SigmaEstimator::score(
    std::span<const NodeId> protectors) const {
  return to_score(evaluate_all(protectors));
}

double SigmaEstimator::sigma(std::span<const NodeId> protectors) const {
  return score(protectors).sigma;
}

double SigmaEstimator::protected_fraction(
    std::span<const NodeId> protectors) const {
  if (bridge_ends_.empty()) return 1.0;
  return score(protectors).protected_fraction;
}

}  // namespace lcrb
