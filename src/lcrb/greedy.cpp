#include "lcrb/greedy.h"

#include "graph/ef_graph.h"
#include "graph/graph.h"

#include <algorithm>
#include <limits>

#include "lcrb/bbst_matrix.h"
#include "util/error.h"
#include "util/log.h"

namespace lcrb {

std::string to_string(CandidateStrategy s) {
  switch (s) {
    case CandidateStrategy::kBbstUnion: return "bbst_union";
    case CandidateStrategy::kAllNodes: return "all_nodes";
    case CandidateStrategy::kBridgeEnds: return "bridge_ends";
  }
  return "unknown";
}

std::string to_string(MultiCascadeMode m) {
  switch (m) {
    case MultiCascadeMode::kOff: return "off";
    case MultiCascadeMode::kCoordinated: return "coordinated";
    case MultiCascadeMode::kUncoordinated: return "uncoordinated";
  }
  return "unknown";
}

namespace {

template <class G>
std::vector<NodeId> make_candidates(const G& g,
                                    std::span<const NodeId> rumors,
                                    const BridgeEndResult& bridges,
                                    CandidateStrategy strategy,
                                    std::size_t max_candidates,
                                    ThreadPool* pool) {
  std::vector<bool> excluded(g.num_nodes(), false);
  for (NodeId r : rumors) excluded[r] = true;

  std::vector<NodeId> out;
  // Truncation rank: BBST-membership count where available, out-degree
  // otherwise.
  std::vector<std::uint32_t> rank(g.num_nodes(), 0);
  bool have_rank = false;

  switch (strategy) {
    case CandidateStrategy::kBridgeEnds:
      for (NodeId v : bridges.bridge_ends) {
        if (!excluded[v]) out.push_back(v);
      }
      break;
    case CandidateStrategy::kAllNodes:
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!excluded[v]) out.push_back(v);
      }
      break;
    case CandidateStrategy::kBbstUnion: {
      rank = build_bbst_matrix(g, rumors, bridges, pool)
                 .row_counts(g.num_nodes());
      have_rank = true;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (rank[v] > 0) out.push_back(v);
      }
      break;
    }
  }

  if (max_candidates > 0 && out.size() > max_candidates) {
    if (!have_rank) {
      for (NodeId v : out) rank[v] = g.out_degree(v);
    }
    std::stable_sort(out.begin(), out.end(), [&rank](NodeId a, NodeId b) {
      return rank[a] > rank[b];
    });
    out.resize(max_candidates);
    std::sort(out.begin(), out.end());
  }
  return out;
}

}  // namespace

template <GraphView G>
GreedyResult greedy_lcrbp_with_estimator(const G& g,
                                         std::span<const NodeId> rumors,
                                         const BridgeEndResult& bridges,
                                         const GreedyConfig& cfg,
                                         const SigmaEstimator& estimator,
                                         ThreadPool* pool) {
  LCRB_REQUIRE(cfg.alpha > 0.0 && cfg.alpha <= 1.0, "alpha must be in (0,1]");

  GreedyResult out;
  if (bridges.bridge_ends.empty()) {
    out.achieved_fraction = 1.0;
    return out;
  }

  std::vector<NodeId> candidates = make_candidates(
      g, rumors, bridges, cfg.candidates, cfg.max_candidates, pool);
  out.candidate_count = candidates.size();

  // The estimator may be shared across concurrent queries, so its internal
  // counters mix work from other callers. Count the sigma-oracle calls the
  // greedy consumes at the (serial) call sites instead: one call =
  // cfg.sigma.samples single-run evaluations. The counts are those of the
  // paper's loop (one call per gain and per protected fraction), even where
  // a batch scores speculative lanes or a fraction is read off a score:
  // those show only in SigmaEstimator::evaluations() and nodes_visited.
  std::size_t sigma_calls = 0;

  std::vector<NodeId> current;  // S_P so far
  double current_sigma = 0.0;
  double current_fraction = estimator.baseline_protected_fraction();
  ++sigma_calls;

  // Scores of current + {candidates[i]}: scores[i] is valid while
  // scored_round[i] == current.size(). A pick's protected fraction is read
  // off the score that picked it, so accepting costs no replay.
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  std::vector<SigmaEstimator::Score> scores(candidates.size());
  std::vector<std::size_t> scored_round(candidates.size(), kNever);
  std::vector<NodeId> batch;
  auto score = [&](std::span<const std::uint32_t> idx) {
    batch.clear();
    for (std::uint32_t i : idx) batch.push_back(candidates[i]);
    const std::vector<SigmaEstimator::Score> s =
        estimator.sigma_batch(current, batch);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      scores[idx[j]] = s[j];
      scored_round[idx[j]] = current.size();
    }
  };
  std::vector<std::uint32_t> all(candidates.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<std::uint32_t>(i);
  }

  const std::size_t cap =
      cfg.max_protectors == 0 ? candidates.size() : cfg.max_protectors;

  if (cfg.use_celf) {
    // CELF: (stale gain, candidate index, round when evaluated). The heap is
    // a vector under std::push_heap/pop_heap — what std::priority_queue
    // runs — so ties break exactly as they always have.
    struct Entry {
      double gain;
      std::uint32_t idx;
      std::size_t round;
      bool operator<(const Entry& o) const { return gain < o.gain; }
    };
    std::vector<Entry> heap;
    auto push = [&heap](const Entry& e) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end());
    };

    score(all);
    sigma_calls += candidates.size();
    for (std::uint32_t i : all) push({scores[i].sigma - current_sigma, i, 0});

    // A lazy re-evaluation scores the popped entry together with the next
    // stale entries in gain order — the ones the loop is likeliest to pop
    // next — filling one replay pass (one entry where a pass scores a
    // single set). Only the popped entry is an oracle call the loop
    // consumes; the rest wait in `scores` until popped, so the heap makes
    // exactly the decisions of one-at-a-time re-evaluation.
    const std::size_t width = estimator.lanes_per_pass();
    std::vector<std::uint32_t> lanes;
    std::vector<std::size_t> frontier;  // heap positions, best-first
    auto by_gain = [&heap](std::size_t a, std::size_t b) {
      return heap[a].gain < heap[b].gain;
    };
    auto rescore = [&](std::uint32_t first) {
      const std::size_t round = current.size();
      lanes.assign(1, first);
      frontier.clear();
      if (!heap.empty()) frontier.push_back(0);
      while (!frontier.empty() && lanes.size() < width) {
        std::pop_heap(frontier.begin(), frontier.end(), by_gain);
        const std::size_t k = frontier.back();
        frontier.pop_back();
        const Entry& e = heap[k];
        if (e.round != round && scored_round[e.idx] != round) {
          lanes.push_back(e.idx);
        }
        for (std::size_t c = 2 * k + 1; c <= 2 * k + 2 && c < heap.size();
             ++c) {
          frontier.push_back(c);
          std::push_heap(frontier.begin(), frontier.end(), by_gain);
        }
      }
      score(lanes);
    };

    while (current_fraction < cfg.alpha && current.size() < cap &&
           !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      Entry top = heap.back();
      heap.pop_back();
      if (top.round != current.size()) {
        if (scored_round[top.idx] != current.size()) rescore(top.idx);
        top.gain = scores[top.idx].sigma - current_sigma;
        ++sigma_calls;
        top.round = current.size();
        if (!heap.empty() && top.gain < heap.front().gain) {
          push(top);
          continue;
        }
      }
      // Accept (even zero-gain picks: alpha may still be unreachable and the
      // caller's cap bounds the loop).
      current.push_back(candidates[top.idx]);
      current_sigma += top.gain;
      out.gain_history.push_back(top.gain);
      current_fraction = scores[top.idx].protected_fraction;
      ++sigma_calls;
      if (top.gain <= 0.0 && current_fraction < cfg.alpha) {
        LCRB_LOG_WARN << "greedy: zero marginal gain with fraction "
                      << current_fraction << " < alpha " << cfg.alpha
                      << "; stopping early";
        break;
      }
    }
  } else {
    // Paper's plain greedy: re-score every unused candidate each round, in
    // one batch. The argmax scans the gains in candidate order (ties go to
    // the lowest node id), so the pick cannot depend on thread scheduling.
    std::vector<bool> used(candidates.size(), false);
    std::vector<std::uint32_t> unused;
    while (current_fraction < cfg.alpha && current.size() < cap) {
      unused.clear();
      for (std::uint32_t i : all) {
        if (!used[i]) unused.push_back(i);
      }
      score(unused);
      sigma_calls += unused.size();
      double best_gain = -1.0;
      NodeId best_node = kInvalidNode;
      std::size_t best = kNever;
      for (std::uint32_t i : unused) {
        const double gain = scores[i].sigma - current_sigma;
        if (gain > best_gain ||
            (gain == best_gain && candidates[i] < best_node)) {
          best_gain = gain;
          best_node = candidates[i];
          best = i;
        }
      }
      if (best == kNever) break;
      used[best] = true;
      current.push_back(candidates[best]);
      current_sigma += best_gain;
      out.gain_history.push_back(best_gain);
      current_fraction = scores[best].protected_fraction;
      ++sigma_calls;
      if (best_gain <= 0.0 && current_fraction < cfg.alpha) break;
    }
  }

  out.protectors = std::move(current);
  out.achieved_fraction = current_fraction;
  out.sigma_evaluations = sigma_calls * cfg.sigma.samples;
  // nodes_visited stays 0 here: the shared estimator's visit counter mixes
  // concurrent queries. select() overwrites it for an estimator it built.
  return out;
}

template <GraphView G>
MultiGreedyResult greedy_multi_with_estimator(
    const G& g, std::span<const NodeId> rumors,
    const BridgeEndResult& bridges, const GreedyConfig& cfg,
    std::span<const std::size_t> budgets, MultiCascadeMode mode,
    const SigmaEstimator& estimator, ThreadPool* pool) {
  LCRB_REQUIRE(mode != MultiCascadeMode::kOff,
               "greedy_multi: mode must be coordinated or uncoordinated");
  LCRB_REQUIRE(!budgets.empty(), "greedy_multi: budgets must be non-empty");
  std::size_t total = 0;
  for (std::size_t b : budgets) {
    LCRB_REQUIRE(b > 0, "greedy_multi: every campaign budget must be > 0");
    total += b;
  }

  MultiGreedyResult out;
  out.groups.resize(budgets.size());

  if (mode == MultiCascadeMode::kCoordinated) {
    // One greedy over the summed budget; under the role-separable collapse
    // every pick helps every campaign, so the i-th pick goes to the next
    // campaign (round-robin) that still has budget left.
    GreedyConfig c = cfg;
    c.max_protectors = total;
    out.combined =
        greedy_lcrbp_with_estimator(g, rumors, bridges, c, estimator, pool);
    std::vector<std::size_t> left(budgets.begin(), budgets.end());
    std::size_t campaign = 0;
    for (NodeId v : out.combined.protectors) {
      while (left[campaign] == 0) campaign = (campaign + 1) % left.size();
      out.groups[campaign].push_back(v);
      --left[campaign];
      campaign = (campaign + 1) % left.size();
    }
    // The picks are distinct, so sorting them is the deployed union.
    out.deployed = out.combined.protectors;
    std::sort(out.deployed.begin(), out.deployed.end());
  } else {
    // Each campaign runs greedy with its own budget, blind to the others.
    // Equal-budget campaigns pick identical sets; the deployed union is
    // their dedup — Tong et al.'s uncoordinated setting.
    for (std::size_t ci = 0; ci < budgets.size(); ++ci) {
      GreedyConfig c = cfg;
      c.max_protectors = budgets[ci];
      GreedyResult r =
          greedy_lcrbp_with_estimator(g, rumors, bridges, c, estimator, pool);
      out.groups[ci] = r.protectors;
      out.combined.sigma_evaluations += r.sigma_evaluations;
      out.combined.gain_history.insert(out.combined.gain_history.end(),
                                       r.gain_history.begin(),
                                       r.gain_history.end());
      out.combined.candidate_count =
          std::max(out.combined.candidate_count, r.candidate_count);
      out.deployed.insert(out.deployed.end(), r.protectors.begin(),
                          r.protectors.end());
    }
    std::sort(out.deployed.begin(), out.deployed.end());
    out.deployed.erase(std::unique(out.deployed.begin(), out.deployed.end()),
                       out.deployed.end());
    out.combined.protectors = out.deployed;
    if (bridges.bridge_ends.empty()) {
      out.combined.achieved_fraction = 1.0;
    } else {
      out.combined.achieved_fraction =
          estimator.protected_fraction(out.deployed);
      out.combined.sigma_evaluations += cfg.sigma.samples;
    }
  }
  return out;
}

#define LCRB_INSTANTIATE_GREEDY(G)                                            \
  template GreedyResult greedy_lcrbp_with_estimator<G>(                       \
      const G&, std::span<const NodeId>, const BridgeEndResult&,              \
      const GreedyConfig&, const SigmaEstimator&, ThreadPool*);               \
  template MultiGreedyResult greedy_multi_with_estimator<G>(                  \
      const G&, std::span<const NodeId>, const BridgeEndResult&,              \
      const GreedyConfig&, std::span<const std::size_t>, MultiCascadeMode,    \
      const SigmaEstimator&, ThreadPool*);

LCRB_INSTANTIATE_GREEDY(DiGraph)
LCRB_INSTANTIATE_GREEDY(EfGraph)

#undef LCRB_INSTANTIATE_GREEDY

}  // namespace lcrb
