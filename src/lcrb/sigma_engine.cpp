#include "lcrb/sigma_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <concepts>
#include <mutex>
#include <type_traits>
#include <utility>

#include "diffusion/kernel.h"
#include "diffusion/montecarlo.h"
#include "diffusion/model_traits.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/log.h"

namespace lcrb {

// The model-generic implementation interface. One virtual hop per public
// call; everything inside an evaluation — the replay or forward run, the
// bridge-end verdicts — is resolved against the traits at compile time.
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

/// The sample budget k: the largest prefix of realizations whose traits
/// byte estimate fits cfg.max_cache_bytes (0 = no cap). Depends only on the
/// graph and the config, never on thread scheduling.
template <class Traits, class G>
std::size_t sample_budget(const G& g, const SigmaConfig& cfg) {
  const std::size_t n = realizations<Traits>(cfg.samples);
  if (cfg.max_cache_bytes == 0) return n;
  // The estimate grows with the prefix length: binary-search the largest
  // prefix that fits.
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (Traits::estimated_cache_bytes(g, mid, cfg.max_hops) <=
        cfg.max_cache_bytes) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// The byte cap left realizations to forward evaluation: a real perf cliff,
/// so say so (once per process; repeats at debug level).
void warn_partial(std::size_t k, std::size_t n, std::size_t estimated,
                  std::size_t cap) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    LCRB_LOG_WARN << "sigma: " << k << " of " << n
                  << " realizations materialised (all " << n
                  << " would take an estimated " << estimated
                  << " bytes; max_cache_bytes " << cap
                  << "); the rest re-run the forward kernel per evaluation";
  } else {
    LCRB_LOG_DEBUG << "sigma: " << k << " of " << n
                   << " realizations materialised (estimated " << estimated
                   << " > cap " << cap << ")";
  }
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
        cfg_(cfg),
        params_{cfg.max_hops, cfg.ic_edge_prob},
        rumors_(rumors.begin(), rumors.end()),
        bridge_ends_(bridge_ends.begin(), bridge_ends.end()),
        sample_seeds_(sample_seeds.begin(), sample_seeds.end()),
        is_rumor_(g.num_nodes()) {
    LCRB_REQUIRE(sample_seeds_.size() == cfg_.samples,
                 "one sample seed per sample required");
    for (NodeId r : rumors_) {
      LCRB_REQUIRE(r < g_.num_nodes(), "rumor id out of range");
      is_rumor_.set(r);
    }

    const std::size_t n = realizations<Traits>(cfg_.samples);
    baseline_bits_.assign(n, DynamicBitset(bridge_ends_.size()));
    baseline_count_.assign(n, 0);
    samples_.resize(sample_budget<Traits>(g_, cfg_));
    if (!samples_.empty()) shared_ = Traits::build_cache_shared(g_);
    if (samples_.size() < n) {
      warn_partial(samples_.size(), n,
                   Traits::estimated_cache_bytes(g_, n, cfg_.max_hops),
                   cfg_.max_cache_bytes);
    }

    // Every realization writes only its own slots, so parallel construction
    // yields identical data to serial.
    auto build = [this](std::size_t r) { build_sample(r); };
    if (pool != nullptr && n > 1) {
      pool->parallel_for(n, build);
    } else {
      for (std::size_t r = 0; r < n; ++r) build(r);
    }
  }

  Outcome evaluate(std::size_t sample,
                   std::span<const NodeId> protectors) const override {
    LCRB_REQUIRE(sample < cfg_.samples, "sample index out of range");
    const std::size_t r = slot(sample);
    return r < samples_.size() ? replay(r, protectors) : forward(r, protectors);
  }

  void evaluate_lanes(std::size_t sample, std::span<const NodeId> base,
                      std::span<const NodeId> extras,
                      std::span<Outcome> out) const override {
    LCRB_REQUIRE(sample < cfg_.samples, "sample index out of range");
    LCRB_REQUIRE(!extras.empty() && extras.size() <= kSigmaLanes,
                 "evaluate_lanes takes 1 to 64 extra seeds");
    LCRB_REQUIRE(out.size() == extras.size(), "one outcome slot per lane");
    const std::size_t r = slot(sample);
    if constexpr (kLanes) {
      // A lone set keeps the one-set replay, which beats a one-lane pass.
      if (r < samples_.size() && extras.size() > 1) {
        replay_lanes(r, base, extras, out);
        return;
      }
    }
    // Lane by lane: the model's one-set replay, or simulate() past the
    // budget.
    std::vector<NodeId> with(base.begin(), base.end());
    with.push_back(kInvalidNode);
    for (std::size_t l = 0; l < extras.size(); ++l) {
      with.back() = extras[l];
      out[l] = evaluate(sample, with);
    }
  }

  std::size_t lanes_per_pass() const override {
    return kLanes && samples_.size() == realizations<Traits>(cfg_.samples)
               ? kSigmaLanes
               : 1;
  }

  std::uint32_t baseline_infected(std::size_t sample) const override {
    return baseline_count_[slot(sample)];
  }

  std::size_t realization_bytes() const override {
    if (samples_.empty()) return 0;
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

  void build_sample(std::size_t i) {
    const std::uint64_t seed = sample_seeds_[i];

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

    if (i < samples_.size()) {
      Traits::build_cache_sample(g_, shared_, seed, std::move(base),
                                 infected_targets, params_, samples_[i]);
    }
  }

  /// Counts realization i's bridge-end verdicts against its baseline;
  /// `infected(b, base_infected)` says whether bridge end b ends infected.
  template <class Infected>
  Outcome tally(std::size_t sample, Infected infected) const {
    Outcome o;
    const DynamicBitset& base = baseline_bits_[sample];
    for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
      if (!infected(b, base.test(b))) {
        ++o.uninfected;
        if (base.test(b)) ++o.saved;
      }
    }
    return o;
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
    return tally(sample, [&](std::size_t b, bool base_infected) {
      return Traits::replay_infected(sp, s.color, s.model, bridge_ends_[b],
                                     base_infected);
    });
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

  /// A realization past the budget: one simulate() run (run_cascade<Traits>)
  /// with the protectors seeded. The out-of-line instantiation in
  /// montecarlo.cpp beats inlining run_cascade here by about 15% on
  /// BM_SigmaForward_Opoao (release build, 4-vCPU VM).
  Outcome forward(std::size_t sample,
                  std::span<const NodeId> protectors) const {
    SeedSets seeds;
    seeds.rumors = rumors_;
    seeds.protectors.assign(protectors.begin(), protectors.end());
    MonteCarloConfig mc;
    mc.max_hops = cfg_.max_hops;
    mc.model = cfg_.model;
    mc.ic_edge_prob = cfg_.ic_edge_prob;
    const DiffusionResult r = simulate(g_, seeds, sample_seeds_[sample], mc);
    // Visit proxy for a full simulation: every node the run activated.
    visits_.fetch_add(r.infected_count() + r.protected_count(),
                      std::memory_order_relaxed);
    return tally(sample, [&](std::size_t b, bool) {
      return r.state[bridge_ends_[b]] == NodeState::kInfected;
    });
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
  SigmaConfig cfg_;
  RealizationParams params_;
  std::vector<NodeId> rumors_;
  std::vector<NodeId> bridge_ends_;
  std::vector<std::uint64_t> sample_seeds_;
  DynamicBitset is_rumor_;

  Shared shared_;
  std::vector<Sample> samples_;  ///< the materialized prefix 0..k-1

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
