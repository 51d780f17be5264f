// RIS's certified sigma bounds checked against exact answers: on seeded tiny
// instances, the stopping rule's sigma_lower must not exceed the exact
// sigma of the picks, and its sigma_upper must not fall below the exact
// sigma of the best same-size protector set (brute force over the non-rumor
// nodes). Each bound is sound with probability >= 1 - delta per run, so
// over independent instances its misses are at worst Binomial(n, delta); a
// miss count past that distribution's 1e-6 tail fails the test.
//
// IC (every live-edge pattern) and DOAM (deterministic) have exact RR
// semantics. OPOAO's RR coverage is only a lower bound on sigma, so its
// upper bound needs an exact OPOAO enumerator before it can be checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <set>
#include <span>
#include <vector>

#include "graph/builder.h"
#include "graph/traversal.h"
#include "lcrb/ris.h"
#include "support/own_sigma.h"
#include "support/statcheck.h"
#include "util/rng.h"

namespace lcrb {
namespace {

constexpr std::size_t kInstances = 200;
constexpr double kDelta = 0.01;  // RisConfig default failure budget
constexpr double kTail = 1e-6;  // false-alarm probability of the miss gate

struct TinyInstance {
  DiGraph g;
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
  std::size_t max_protectors = 0;
  double edge_prob = 0.0;  ///< IC only
};

// A random digraph on 5..(4 + max_extra) nodes with at most `max_arcs` arcs,
// one or two rumors, a random nonempty subset of the rumor-reachable nodes
// as bridge ends, and a protector budget in 1..max_budget.
TinyInstance draw_instance(Rng& rng, std::uint64_t max_extra,
                           std::size_t max_arcs, std::size_t max_budget) {
  for (;;) {
    const auto n = static_cast<NodeId>(5 + rng.next_below(max_extra));
    std::set<std::pair<NodeId, NodeId>> arcs;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u != v && rng.next_bool(0.25)) arcs.emplace(u, v);
      }
    }
    if (arcs.empty() || arcs.size() > max_arcs) continue;
    TinyInstance t;
    t.g = make_graph(n, {arcs.begin(), arcs.end()});
    const std::size_t k = 1 + rng.next_below(2);
    while (t.rumors.size() < k) {
      const auto r = static_cast<NodeId>(rng.next_below(n));
      if (std::find(t.rumors.begin(), t.rumors.end(), r) == t.rumors.end()) {
        t.rumors.push_back(r);
      }
    }
    t.bridges.rumor_dist = bfs_forward(t.g, t.rumors).dist;
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t d = t.bridges.rumor_dist[v];
      if (d != kUnreached && d > 0 && rng.next_bool(0.7)) {
        t.bridges.bridge_ends.push_back(v);
      }
    }
    t.max_protectors = 1 + rng.next_below(max_budget);
    if (!t.bridges.bridge_ends.empty()) return t;
  }
}

/// Largest sigma over every `k`-subset of the non-rumor nodes.
template <class Sigma>
double best_sigma(const TinyInstance& t, std::size_t k, Sigma sigma) {
  std::vector<NodeId> cands;
  for (NodeId v = 0; v < t.g.num_nodes(); ++v) {
    if (std::find(t.rumors.begin(), t.rumors.end(), v) == t.rumors.end()) {
      cands.push_back(v);
    }
  }
  k = std::min(k, cands.size());
  // Subsets as ascending index tuples idx[0] < ... < idx[k-1].
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  std::vector<NodeId> a(k);
  double best = 0.0;
  for (;;) {
    for (std::size_t i = 0; i < k; ++i) a[i] = cands[idx[i]];
    best = std::max(best, sigma(std::span<const NodeId>(a)));
    std::size_t i = k;
    while (i > 0 && idx[i - 1] == cands.size() - k + (i - 1)) --i;
    if (i == 0) return best;
    ++idx[i - 1];
    for (std::size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

/// Smallest m with P(Binomial(n, p) > m) <= tail: the most misses a sound
/// bound may show at false-alarm probability `tail`.
std::size_t binomial_miss_limit(std::size_t n, double p, double tail) {
  const double dn = static_cast<double>(n);
  double cdf = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    const double dm = static_cast<double>(m);
    cdf += std::exp(std::lgamma(dn + 1.0) - std::lgamma(dm + 1.0) -
                    std::lgamma(dn - dm + 1.0) + dm * std::log(p) +
                    (dn - dm) * std::log1p(-p));
    if (1.0 - cdf <= tail) return m;
  }
  return n;
}

/// Runs RIS on kInstances drawn instances and counts, per bound, the
/// instances where it misses the exact answer; prints the counts and gates
/// them at the binomial limit.
template <class Draw, class Exact>
void check_bounds(const char* name, DiffusionModel model, std::uint64_t seed,
                  Draw draw, Exact exact) {
  Rng rng(seed);
  std::size_t lower_misses = 0;
  std::size_t upper_misses = 0;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const TinyInstance t = draw(rng);
    RisConfig cfg;
    cfg.model = model;
    cfg.ic_edge_prob = t.edge_prob;
    cfg.delta = kDelta;
    cfg.initial_sets = 256;
    cfg.seed = seed * 1000 + i;
    const RisGreedyResult r = testutil::ris_greedy_own(
        t.g, t.rumors, t.bridges, 1.0, t.max_protectors, cfg);
    const auto sigma = [&](std::span<const NodeId> a) { return exact(t, a); };
    const double tol = 1e-9;
    if (r.sigma_lower > sigma(r.protectors) + tol) {
      ++lower_misses;
      std::cout << "[ris bounds] " << name << " instance " << i
                << ": sigma_lower " << r.sigma_lower << " > exact "
                << sigma(r.protectors) << "\n";
    }
    const double opt = best_sigma(t, r.protectors.size(), sigma);
    if (r.sigma_upper + tol < opt) {
      ++upper_misses;
      std::cout << "[ris bounds] " << name << " instance " << i
                << ": sigma_upper " << r.sigma_upper << " < exact OPT "
                << opt << "\n";
    }
  }
  const std::size_t limit = binomial_miss_limit(kInstances, kDelta, kTail);
  std::cout << "[ris bounds] " << name << ": sigma_lower missed "
            << lower_misses << ", sigma_upper missed " << upper_misses
            << " of " << kInstances << " instances (delta " << kDelta
            << ", binomial limit " << limit << ")\n";
  EXPECT_LE(lower_misses, limit);
  EXPECT_LE(upper_misses, limit);
}

TEST(RisBoundsStatTest, IcBoundsHoldAgainstEnumeratedSigma) {
  // <= 12 arcs keeps each exact sigma at <= 2^12 live-edge patterns.
  const double probs[] = {0.3, 0.5, 0.7};
  check_bounds(
      "IC", DiffusionModel::kIc, 11,
      [&](Rng& rng) {
        TinyInstance t = draw_instance(rng, 4, 12, 2);
        t.edge_prob = probs[rng.next_below(3)];
        return t;
      },
      [](const TinyInstance& t, std::span<const NodeId> a) {
        return statcheck::exact_sigma_ic(t.g, t.rumors, t.bridges.bridge_ends,
                                         a, t.edge_prob);
      });
}

TEST(RisBoundsStatTest, DoamBoundsHoldAgainstExactSigma) {
  // One protector leaves most covers partial, so the coverage estimates
  // really vary: reporting them as bounds would miss far past the limit.
  check_bounds(
      "DOAM", DiffusionModel::kDoam, 12,
      [](Rng& rng) { return draw_instance(rng, 8, 63, 1); },
      [](const TinyInstance& t, std::span<const NodeId> a) {
        return statcheck::exact_sigma_doam(t.g, t.rumors,
                                           t.bridges.bridge_ends, a);
      });
}

}  // namespace
}  // namespace lcrb
