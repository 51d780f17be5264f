#include "lcrb/sigma_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <concepts>
#include <mutex>
#include <type_traits>
#include <utility>

#include "diffusion/kernel.h"
#include "diffusion/model_traits.h"
#include "util/bitset.h"
#include "util/error.h"

namespace lcrb {

// The model-generic implementation interface. One virtual hop per public
// call; everything inside an evaluation — the replay, the bridge-end
// verdicts — is resolved against the traits at compile time.
class SigmaEngine::Base {
 public:
  virtual ~Base() = default;
  virtual Outcome evaluate(std::size_t sample,
                           std::span<const NodeId> protectors) const = 0;
  virtual void evaluate_lanes(std::size_t sample,
                              std::span<const NodeId> base,
                              std::span<const NodeId> extras,
                              std::span<Outcome> out) const = 0;
  virtual std::size_t lanes_per_pass() const = 0;
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

template <class Traits, class G>
class EngineImpl final : public SigmaEngine::Base {
 public:
  using Outcome = SigmaEngine::Outcome;

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
    LCRB_REQUIRE(sample_seeds.size() == num_samples_,
                 "one sample seed per sample required");
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

  /// RAII lease of a scratch buffer from the engine's free list.
  struct ScratchLease {
    const EngineImpl& eng;
    std::unique_ptr<Scratch> scratch;

    explicit ScratchLease(const EngineImpl& e) : eng(e) {
      {
        std::lock_guard<std::mutex> lock(e.scratch_mu_);
        if (!e.scratch_free_.empty()) {
          scratch = std::move(e.scratch_free_.back());
          e.scratch_free_.pop_back();
        }
      }
      if (scratch == nullptr) {
        scratch = std::make_unique<Scratch>(e.g_.num_nodes());
      }
    }
    ~ScratchLease() {
      std::lock_guard<std::mutex> lock(eng.scratch_mu_);
      eng.scratch_free_.push_back(std::move(scratch));
    }
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
    ScratchLease lease(*this);
    Scratch& s = *lease.scratch;
    s.bump();
    // Shared protector-seed validation + P stamping; the model replay then
    // derives its own seeding structures from `protectors` in this order.
    for (NodeId v : protectors) seed_protector(v, s.color);
    const Sample& sp = samples_[sample];
    const std::uint64_t ops = Traits::replay(g_, shared_, sp, rumors_,
                                             protectors, s.color, s.model,
                                             params_);
    visits_.fetch_add(ops, std::memory_order_relaxed);
    // Bridge-end verdicts against the realization's baseline.
    Outcome o;
    const DynamicBitset& base = baseline_bits_[sample];
    for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
      const bool base_infected = base.test(b);
      if (!Traits::replay_infected(sp, s.color, s.model, bridge_ends_[b],
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
      ScratchLease lease(*this);
      lease.scratch->bump();
      EpochColorScratch& color = lease.scratch->color;
      for (NodeId v : base) seed_protector(v, color);
      for (NodeId v : extras) check_protector(v, color);
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

  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<Scratch>> scratch_free_;
  mutable std::atomic<std::uint64_t> visits_{0};
};

}  // namespace

std::size_t SigmaEngine::estimated_bytes(GraphRef g,
                                         const SigmaConfig& cfg) {
  return dispatch_model(cfg.model, [&](auto t) -> std::size_t {
    using T = decltype(t);
    return g.visit([&](const auto& gr) {
      return T::estimated_cache_bytes(gr, realizations<T>(cfg.samples),
                                      cfg.max_hops);
    });
  });
}

SigmaEngine::SigmaEngine(GraphRef g, std::span<const NodeId> rumors,
                         std::span<const NodeId> bridge_ends,
                         std::span<const std::uint64_t> sample_seeds,
                         const SigmaConfig& cfg, ThreadPool* pool) {
  // Two-level dispatch, resolved once per engine: model x backend picks the
  // fully concrete EngineImpl; replays then run template-specialized code.
  impl_ = dispatch_model(cfg.model, [&](auto t) -> std::unique_ptr<Base> {
    using T = decltype(t);
    return g.visit([&](const auto& gr) -> std::unique_ptr<Base> {
      using Gr = std::decay_t<decltype(gr)>;
      return std::make_unique<EngineImpl<T, Gr>>(gr, rumors, bridge_ends,
                                                 sample_seeds, cfg, pool);
    });
  });
}

SigmaEngine::~SigmaEngine() = default;

SigmaEngine::Outcome SigmaEngine::evaluate(
    std::size_t sample, std::span<const NodeId> protectors) const {
  return impl_->evaluate(sample, protectors);
}

void SigmaEngine::evaluate_lanes(std::size_t sample,
                                 std::span<const NodeId> base,
                                 std::span<const NodeId> extras,
                                 std::span<Outcome> out) const {
  impl_->evaluate_lanes(sample, base, extras, out);
}

std::size_t SigmaEngine::lanes_per_pass() const {
  return impl_->lanes_per_pass();
}

std::uint32_t SigmaEngine::baseline_infected(std::size_t sample) const {
  return impl_->baseline_infected(sample);
}

std::size_t SigmaEngine::realization_bytes() const {
  return impl_->realization_bytes();
}

std::uint64_t SigmaEngine::nodes_visited() const {
  return impl_->nodes_visited();
}

}  // namespace lcrb
