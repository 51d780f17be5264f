#include "lcrb/ris.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <utility>

#include "diffusion/model_traits.h"
#include "lcrb/lazy_cover.h"
#include "lcrb/ris_schedule.h"
#include "util/check.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace lcrb {

std::string to_string(SigmaMode m) {
  switch (m) {
    case SigmaMode::kMonteCarlo: return "mc";
    case SigmaMode::kRis: return "ris";
  }
  return "unknown";
}

std::string to_string(RisStopReason r) {
  switch (r) {
    case RisStopReason::kNone: return "none";
    case RisStopReason::kCertified: return "certified";
    case RisStopReason::kNegligible: return "negligible";
    case RisStopReason::kMaxSets: return "max_sets";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// RrPool

double RrPool::coverage_fraction(std::span<const NodeId> a, bool count_null,
                                 std::size_t limit) const {
  LCRB_REQUIRE(limit <= num_sets(), "coverage limit exceeds pool size");
  const std::size_t n = limit == 0 ? num_sets() : limit;
  if (n == 0) return count_null ? 1.0 : 0.0;
  std::vector<char> hit(n, 0);
  std::size_t covered = 0;
  for (NodeId v : a) {
    for (std::uint32_t s : sets_containing(v)) {
      if (s >= n) break;  // posting lists ascend
      if (!hit[s]) {
        hit[s] = 1;
        ++covered;
      }
    }
  }
  const std::size_t nulls =
      limit == 0 ? num_null_ : num_null_prefix(n);
  const std::size_t numer = covered + (count_null ? nulls : 0);
  return static_cast<double>(numer) / static_cast<double>(n);
}

std::size_t RrPool::num_null_prefix(std::size_t limit) const {
  LCRB_REQUIRE(limit <= num_sets(), "prefix limit exceeds pool size");
  if (limit == num_sets()) return num_null_;
  std::size_t nulls = 0;
  for (std::size_t i = 0; i < limit; ++i) {
    if (set_off_[i + 1] == set_off_[i]) ++nulls;
  }
  return nulls;
}

std::size_t RrPool::memory_bytes() const {
  return sizeof(*this) + set_off_.capacity() * sizeof(std::uint32_t) +
         nodes_.capacity() * sizeof(NodeId) +
         inv_off_.capacity() * sizeof(std::uint32_t) +
         inv_sets_.capacity() * sizeof(std::uint32_t);
}

void RrPool::rebuild_inverted_index(NodeId num_graph_nodes) {
  // Counting sort; iterating sets in id order keeps each node's posting
  // list ascending.
  inv_off_.assign(static_cast<std::size_t>(num_graph_nodes) + 1, 0);
  for (NodeId v : nodes_) ++inv_off_[static_cast<std::size_t>(v) + 1];
  for (std::size_t i = 1; i < inv_off_.size(); ++i) {
    inv_off_[i] += inv_off_[i - 1];
  }
  inv_sets_.assign(nodes_.size(), 0);
  std::vector<std::uint32_t> cursor(inv_off_.begin(), inv_off_.end() - 1);
  for (std::size_t s = 0; s + 1 < set_off_.size(); ++s) {
    for (std::uint32_t i = set_off_[s]; i < set_off_[s + 1]; ++i) {
      inv_sets_[cursor[nodes_[i]]++] = static_cast<std::uint32_t>(s);
    }
  }
  // Transpose back: appending v to every set that holds it, for v
  // ascending, rewrites each set in ascending order — one counting sort of
  // the whole pool instead of a comparison sort per set.
  cursor.assign(set_off_.begin(), set_off_.end() - 1);
  for (NodeId v = 0; v < num_graph_nodes; ++v) {
    for (std::uint32_t i = inv_off_[v]; i < inv_off_[v + 1]; ++i) {
      nodes_[cursor[inv_sets_[i]]++] = v;
    }
  }
}

void RrPool::append_shards(std::vector<RrShard>&& shards,
                           NodeId num_graph_nodes) {
  std::size_t add_sets = 0;
  std::size_t add_entries = 0;
  for (const RrShard& sh : shards) {
    add_sets += sh.sizes.size();
    add_entries += sh.nodes.size();
    nodes_visited_ += sh.visits;
  }
  nodes_.reserve(nodes_.size() + add_entries);
  set_off_.reserve(set_off_.size() + add_sets);
  for (RrShard& sh : shards) {
    for (std::uint32_t size : sh.sizes) {
      if (size == 0) ++num_null_;
      set_off_.push_back(set_off_.back() + size);
    }
    nodes_.insert(nodes_.end(), sh.nodes.begin(), sh.nodes.end());
    std::vector<NodeId>().swap(sh.nodes);  // merged: release it now
  }
  shards.clear();
  rebuild_inverted_index(num_graph_nodes);
  LCRB_INVARIANT(validate());
}

void RrPool::validate() const {
  LCRB_REQUIRE(!set_off_.empty() && set_off_.front() == 0,
               "set offsets must start at 0");
  LCRB_REQUIRE(set_off_.back() == nodes_.size(),
               "set offsets must end at the entry count");
  std::size_t nulls = 0;
  for (std::size_t s = 0; s + 1 < set_off_.size(); ++s) {
    LCRB_REQUIRE(set_off_[s] <= set_off_[s + 1], "set offsets must be monotone");
    if (set_off_[s] == set_off_[s + 1]) ++nulls;
    for (std::uint32_t i = set_off_[s] + 1; i < set_off_[s + 1]; ++i) {
      LCRB_REQUIRE(nodes_[i - 1] < nodes_[i],
                   "RR set nodes must be strictly ascending");
    }
  }
  LCRB_REQUIRE(nulls == num_null_, "null-set counter out of sync");
  if (inv_off_.empty()) {
    LCRB_REQUIRE(nodes_.empty() && inv_sets_.empty(),
                 "pool with entries must carry an inverted index");
    return;
  }
  const auto n = static_cast<NodeId>(inv_off_.size() - 1);
  for (NodeId v : nodes_) {
    LCRB_REQUIRE(v < n, "RR set node out of range");
  }
  LCRB_REQUIRE(inv_off_.front() == 0 && inv_off_.back() == inv_sets_.size(),
               "inverted-index offsets must span the posting array");
  LCRB_REQUIRE(inv_sets_.size() == nodes_.size(),
               "inverted index must hold exactly one posting per entry");
  for (NodeId v = 0; v < n; ++v) {
    LCRB_REQUIRE(inv_off_[v] <= inv_off_[v + 1],
                 "inverted-index offsets must be monotone");
    for (std::uint32_t i = inv_off_[v]; i < inv_off_[v + 1]; ++i) {
      LCRB_REQUIRE(i == inv_off_[v] || inv_sets_[i - 1] < inv_sets_[i],
                   "posting lists must be strictly ascending");
      const std::uint32_t s = inv_sets_[i];
      LCRB_REQUIRE(s + 1 < set_off_.size(), "posting names a nonexistent set");
      const auto row = set_nodes(s);
      LCRB_REQUIRE(std::binary_search(row.begin(), row.end(), v),
                   "posting names a set that does not contain the node");
    }
  }
}

// ---------------------------------------------------------------------------
// RrSampler

RrSampler::RrSampler(GraphRef g, std::vector<NodeId> rumors,
                     std::vector<NodeId> bridge_ends, const RisConfig& cfg)
    : g_(g),
      cfg_(cfg),
      rumors_(std::move(rumors)),
      bridge_ends_(std::move(bridge_ends)) {
  LCRB_REQUIRE(dispatch_model(cfg_.model,
                              [](auto t) {
                                return decltype(t)::kSupportsReverse;
                              }),
               "RIS does not support competitive LT: it is not per-sample "
               "monotone, so RR-set coverage has no save semantics");
  is_rumor_.assign(g_.num_nodes(), false);
  for (NodeId v : rumors_) {
    LCRB_REQUIRE(v < g_.num_nodes(), "rumor seed out of range");
    is_rumor_[v] = true;
  }
  for (NodeId v : bridge_ends_) {
    LCRB_REQUIRE(v < g_.num_nodes(), "bridge end out of range");
    // A rumor seed is infected at step 0: nothing can save it, so its RR
    // set would have to be null.
    LCRB_REQUIRE(!is_rumor_[v], "bridge end is a rumor seed");
  }
}

RrSampler::~RrSampler() = default;

RrSampler::Draw RrSampler::draw(std::uint64_t stream, std::size_t index) const {
  // One forked stream per (stream, index) pair; streams are interleaved so
  // the three pools never share a realization.
  Rng r = Rng(cfg_.seed).fork(static_cast<std::uint64_t>(index) * 3 + stream);
  Draw d;
  d.realization_seed = r.next();
  d.root_idx = bridge_ends_.empty()
                   ? 0
                   : static_cast<std::size_t>(r.next_below(bridge_ends_.size()));
  return d;
}

std::uint32_t RrSampler::rr_set_into(std::size_t root_idx,
                                     std::uint64_t realization_seed,
                                     ReverseScratch& sc,
                                     std::vector<NodeId>& nodes,
                                     std::uint64_t& visits) const {
  LCRB_REQUIRE(root_idx < bridge_ends_.size(), "RR root index out of range");
  const NodeId root = bridge_ends_[root_idx];
  const RealizationParams params{cfg_.max_hops, cfg_.ic_edge_prob};
  const std::size_t start = nodes.size();
  sc.bump_epoch();
  dispatch_model(cfg_.model, [&](auto t) {
    using T = decltype(t);
    if constexpr (T::kSupportsReverse) {
      g_.visit([&](const auto& gr) {
        T::reverse_set(gr, is_rumor_, rumors_, root, realization_seed, params,
                       sc, nodes, visits);
      });
    } else {
      throw Error("RIS does not support " + std::string(T::kName));
    }
  });
  return static_cast<std::uint32_t>(nodes.size() - start);
}

std::vector<NodeId> RrSampler::rr_set(std::size_t root_idx,
                                      std::uint64_t realization_seed,
                                      std::uint64_t* visits) const {
  std::uint64_t local = 0;
  std::vector<NodeId> out;
  {
    auto sc = scratch_.lease(g_.num_nodes(), cfg_.max_hops);
    rr_set_into(root_idx, realization_seed, *sc, out, local);
  }
  std::sort(out.begin(), out.end());
  if (visits != nullptr) *visits += local;
  return out;
}

void RrSampler::extend(RrPool& pool, std::uint64_t stream,
                       std::size_t target_sets, ThreadPool* tp) const {
  const std::size_t from = pool.num_sets();
  if (target_sets <= from) return;
  const std::size_t count = target_sets - from;
  // Contiguous index shards: shard s owns draws [from + s*chunk,
  // from + min((s+1)*chunk, count)). The shard count depends only on the
  // pool's thread count (a few shards per thread evens out skewed reverse
  // searches); merging in shard order makes the result independent of it.
  const std::size_t threads = tp != nullptr ? tp->thread_count() : 0;
  const std::size_t num_shards =
      (threads > 1 && count > 1) ? std::min(count, threads * 4) : 1;
  const std::size_t chunk = (count + num_shards - 1) / num_shards;

  std::vector<RrShard> shards(num_shards);
  auto fill_shard = [&](std::size_t s) {
    const std::size_t lo = s * chunk;
    const std::size_t hi = std::min(lo + chunk, count);
    if (lo >= hi) return;
    RrShard& sh = shards[s];
    sh.sizes.reserve(hi - lo);
    if (bridge_ends_.empty()) {  // no targets: every set is null
      sh.sizes.assign(hi - lo, 0);
      return;
    }
    auto sc = scratch_.lease(g_.num_nodes(), cfg_.max_hops);
    for (std::size_t i = lo; i < hi; ++i) {
      const Draw d = draw(stream, from + i);
      sh.sizes.push_back(rr_set_into(d.root_idx, d.realization_seed, *sc,
                                     sh.nodes, sh.visits));
    }
  };
  if (tp != nullptr && num_shards > 1) {
    tp->parallel_for(num_shards, fill_shard);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) fill_shard(s);
  }
  pool.append_shards(std::move(shards), g_.num_nodes());
}

// ---------------------------------------------------------------------------
// Max-coverage greedy + two-pool stopping rule

CoverageGreedyOutcome coverage_greedy(const RrPool& pool, NodeId num_nodes,
                                      double alpha, std::size_t max_protectors,
                                      std::size_t theta) {
  CoverageGreedyOutcome out;
  if (theta == 0) return out;
  std::vector<std::uint32_t> cnt(num_nodes, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::span<const std::uint32_t> postings = pool.sets_containing(v);
    const auto end = std::lower_bound(postings.begin(), postings.end(),
                                      static_cast<std::uint32_t>(theta));
    cnt[v] = static_cast<std::uint32_t>(end - postings.begin());
  }
  std::vector<char> covered(theta, 0);
  const std::size_t nulls = pool.num_null_prefix(theta);
  const double need = alpha * static_cast<double>(theta) - 1e-9;
  lazy_greedy_cover(
      cnt, max_protectors,
      [&] { return static_cast<double>(out.covered + nulls) < need; },
      [&](NodeId best) {
        for (std::uint32_t s : pool.sets_containing(best)) {
          if (s >= theta) break;  // posting lists ascend
          if (covered[s]) continue;
          covered[s] = 1;
          ++out.covered;
          for (NodeId w : pool.set_nodes(s)) {
            --cnt[w];
            ++out.ops;
          }
        }
      },
      out);
  return out;
}

namespace {

/// Sampling hit the max_sets cap without certifying the (eps, delta)
/// guarantee. Warn once per process; every affected result carries
/// guarantee_met = false.
void warn_guarantee_not_met(std::size_t theta, double epsilon, double delta) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  LCRB_LOG_WARN << "ris: sampling stopped at the max_sets cap (theta="
                << theta << ") before certifying the (eps=" << epsilon
                << ", delta=" << delta
                << ") guarantee; results are flagged guarantee_met=false "
                << "(further occurrences are not logged)";
}

}  // namespace

RisGreedyResult ris_greedy_with_context(double alpha,
                                        std::size_t max_protectors,
                                        const RisConfig& cfg, RisContext& ctx,
                                        ThreadPool* pool) {
  LCRB_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
  LCRB_REQUIRE(cfg.epsilon > 0.0 && cfg.delta > 0.0 && cfg.delta < 1.0,
               "epsilon must be positive and delta in (0, 1)");
  const RisConfig& base = ctx.sampler.config();
  LCRB_REQUIRE(cfg.seed == base.seed && cfg.max_hops == base.max_hops &&
                   cfg.model == base.model &&
                   cfg.ic_edge_prob == base.ic_edge_prob,
               "ris context was built with different draw-shaping knobs");

  RisGreedyResult out;
  const std::size_t nb = ctx.sampler.bridge_ends().size();
  if (nb == 0) {
    out.achieved_fraction = 1.0;
    out.guarantee_met = true;  // nothing to certify
    return out;
  }
  const GraphRef g = ctx.sampler.graph();
  const double b = static_cast<double>(nb);
  const double approx = 1.0 - std::exp(-1.0);  // the (1 - 1/e) factor

  // Checkpoint schedule and per-bound failure share: delta split uniformly
  // across checkpoints x 2 pools x 2 bound sides (union bound), the same
  // split the pure-doubling rule used, so the Hoeffding half-width formula
  // is unchanged at equal checkpoint counts.
  const std::vector<std::size_t> schedule =
      ris_stopping_schedule(cfg.initial_sets, cfg.max_sets);
  const double a = ris_bound_exponent(cfg.delta, schedule.size());

  std::uint64_t greedy_ops = 0;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const std::size_t theta = schedule[k];
    {
      std::unique_lock<std::shared_mutex> grow(ctx.mu);
      if (ctx.selection.num_sets() < theta) {
        ctx.sampler.extend(ctx.selection, 0, theta, pool);
      }
      if (ctx.validation.num_sets() < theta) {
        ctx.sampler.extend(ctx.validation, 1, theta, pool);
      }
    }
    std::shared_lock<std::shared_mutex> read(ctx.mu);
    // Evaluate over the first-theta prefix: identical to a cold pool of
    // theta sets because slots are preassigned, even when another query has
    // already grown the shared pools past theta.
    CoverageGreedyOutcome sel =
        coverage_greedy(ctx.selection, g.num_nodes(), alpha, max_protectors,
                        theta);
    greedy_ops += sel.ops;

    const double t = static_cast<double>(theta);
    const double cov1 = static_cast<double>(sel.covered) / t;
    const double cov2 =
        ctx.validation.coverage_fraction(sel.picks, false, theta);
    const double hw = std::sqrt(a / (2.0 * t));
    // Certified bounds: best of Hoeffding and martingale on each side (see
    // ris_schedule.h). The OPT upper bound keeps the historical
    // cov1/approx + hw form alongside the martingale OPT bound.
    const double lb = ris_mean_lower_bound(cov2 * t, theta, a);
    const double ub = std::min(
        {1.0, cov1 / approx + hw,
         ris_mean_upper_bound(cov1 * t, theta, a) / approx});
    const double ub_sel = ris_mean_upper_bound(cov1 * t, theta, a);
    // OPIM-style acceptance, adapted to the alpha-truncated objective: stop
    // when the validated coverage certifies the greedy ratio up to epsilon,
    // when both estimates are within epsilon/4 of their certified bounds
    // (nothing left to learn at this accuracy), or at a cap.
    const bool certified = ub > 0.0 && lb / ub >= approx - cfg.epsilon;
    const bool negligible =
        cov2 - lb <= cfg.epsilon / 4.0 && ub_sel - cov1 <= cfg.epsilon / 4.0;
    const bool capped = k + 1 == schedule.size();
    if (certified || negligible || capped) {
      out.protectors = std::move(sel.picks);
      out.gain_history.reserve(sel.gains.size());
      for (std::size_t gsets : sel.gains) {
        out.gain_history.push_back(static_cast<double>(gsets) * b / t);
      }
      out.achieved_fraction =
          ctx.validation.coverage_fraction(out.protectors, true, theta);
      out.rr_sets = theta;
      out.rounds = k + 1;
      out.sigma_lower = lb * b;
      out.sigma_upper = ub * b;
      out.distinct_candidates = sel.candidates;
      out.nodes_visited = greedy_ops;
      out.guarantee_met = certified || negligible;
      out.stop_reason = certified    ? RisStopReason::kCertified
                        : negligible ? RisStopReason::kNegligible
                                     : RisStopReason::kMaxSets;
      if (!out.guarantee_met) {
        warn_guarantee_not_met(theta, cfg.epsilon, cfg.delta);
      }
      return out;
    }
  }
  throw Error("ris: stopping schedule ended without a cap checkpoint");
}

}  // namespace lcrb
