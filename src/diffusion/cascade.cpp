#include "diffusion/cascade.h"

#include <algorithm>

#include "graph/ef_graph.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/error.h"
#include "util/strings.h"

namespace lcrb {

std::string to_string(DiffusionModel m) {
  switch (m) {
    case DiffusionModel::kOpoao: return "OPOAO";
    case DiffusionModel::kDoam: return "DOAM";
    case DiffusionModel::kIc: return "IC";
    case DiffusionModel::kLt: return "LT";
    case DiffusionModel::kWc: return "WC";
  }
  return "unknown";
}

std::string to_string(CascadeRole r) {
  switch (r) {
    case CascadeRole::kProtector: return "protector";
    case CascadeRole::kRumor: return "rumor";
  }
  return "unknown";
}

std::string to_string(CascadePriority p) {
  switch (p) {
    case CascadePriority::kFixedOrder: return "fixed";
    case CascadePriority::kLowestId: return "lowest";
    case CascadePriority::kRoundRobin: return "roundrobin";
  }
  return "unknown";
}

CascadePriority cascade_priority_from_string(const std::string& name) {
  for (const CascadePriority p :
       {CascadePriority::kFixedOrder, CascadePriority::kLowestId,
        CascadePriority::kRoundRobin}) {
    if (iequals_ascii(to_string(p), name)) return p;
  }
  throw Error("unknown cascade priority '" + name +
              "' (fixed|lowest|roundrobin)");
}

namespace {

std::vector<NodeId> role_union(const SeedSets& s, CascadeRole role) {
  std::vector<NodeId> out;
  for (std::size_t k = 0; k < s.num_cascades(); ++k) {
    if (s.role_of(k) != role) continue;
    const std::vector<NodeId>& seeds = s.seeds_of(k);
    out.insert(out.end(), seeds.begin(), seeds.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<NodeId> SeedSets::rumor_role_union() const {
  return role_union(*this, CascadeRole::kRumor);
}

bool SeedSets::role_separable() const {
  const std::size_t kk = num_cascades();
  // Round-robin rotates the start position, so any rumor-role cascade
  // eventually moves ahead of a protector-role one (unless one role is
  // absent or K == 1 effectively).
  if (priority == CascadePriority::kRoundRobin) {
    bool has_p = false, has_r = false;
    for (std::size_t k = 0; k < kk; ++k) {
      if (seeds_of(k).empty()) continue;
      (role_of(k) == CascadeRole::kProtector ? has_p : has_r) = true;
    }
    return !(has_p && has_r);
  }
  // Fixed / lowest-id: check the one static order.
  bool seen_rumor = false;
  for (std::size_t i = 0; i < kk; ++i) {
    const std::size_t k =
        (priority == CascadePriority::kFixedOrder && !order.empty())
            ? order[i]
            : i;
    if (seeds_of(k).empty()) continue;  // an empty cascade never claims
    if (role_of(k) == CascadeRole::kRumor) {
      seen_rumor = true;
    } else if (seen_rumor) {
      return false;
    }
  }
  return true;
}

template <GraphView G>
void validate_seeds(const G& g, const SeedSets& seeds) {
  const std::size_t kk = seeds.num_cascades();
  LCRB_REQUIRE(kk <= kMaxCascades, "too many cascades");
  auto check = [&](const std::vector<NodeId>& s, const std::string& name) {
    for (NodeId v : s) {
      LCRB_REQUIRE(v < g.num_nodes(), name + " seed out of range");
    }
    std::vector<NodeId> sorted = s;
    std::sort(sorted.begin(), sorted.end());
    LCRB_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 name + " seeds contain duplicates");
    return sorted;
  };
  const auto r = check(seeds.rumors, "rumor");
  const auto p = check(seeds.protectors, "protector");
  std::vector<NodeId> both;
  std::set_intersection(r.begin(), r.end(), p.begin(), p.end(),
                        std::back_inserter(both));
  LCRB_REQUIRE(both.empty(), "rumor and protector seed sets must be disjoint");

  if (!seeds.extras.empty()) {
    // Pairwise disjointness across all K cascades: any node appearing twice
    // in the merged multiset belongs to two cascades (per-cascade dups are
    // already excluded above).
    std::vector<NodeId> all;
    all.insert(all.end(), r.begin(), r.end());
    all.insert(all.end(), p.begin(), p.end());
    for (std::size_t k = 2; k < kk; ++k) {
      const auto e =
          check(seeds.seeds_of(k), "cascade " + std::to_string(k));
      all.insert(all.end(), e.begin(), e.end());
    }
    std::sort(all.begin(), all.end());
    LCRB_REQUIRE(std::adjacent_find(all.begin(), all.end()) == all.end(),
                 "cascade seed sets must be pairwise disjoint");
  }

  if (!seeds.order.empty()) {
    LCRB_REQUIRE(seeds.order.size() == kk,
                 "cascade order must cover every cascade");
    std::vector<char> seen(kk, 0);
    for (std::uint8_t k : seeds.order) {
      LCRB_REQUIRE(k < kk && !seen[k],
                   "cascade order must be a permutation of the cascade ids");
      seen[k] = 1;
    }
  }
}

SeedSets make_seed_sets(std::span<const std::vector<NodeId>> rumor_groups,
                        std::span<const std::vector<NodeId>> protector_groups,
                        CascadePriority priority) {
  SeedSets s;
  s.priority = priority;

  // Same-role dedup: keep the first group that claims a node.
  std::vector<NodeId> seen_r, seen_p;
  auto dedup = [](std::vector<NodeId>& seen, const std::vector<NodeId>& group) {
    std::vector<NodeId> out;
    for (NodeId v : group) {
      if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
        seen.push_back(v);
        out.push_back(v);
      }
    }
    return out;
  };

  if (!protector_groups.empty()) {
    s.protectors = dedup(seen_p, protector_groups[0]);
  }
  if (!rumor_groups.empty()) {
    s.rumors = dedup(seen_r, rumor_groups[0]);
  }
  const std::size_t np = protector_groups.size() > 1
                             ? protector_groups.size() - 1
                             : 0;
  for (std::size_t i = 1; i < protector_groups.size(); ++i) {
    s.extras.push_back(
        {CascadeRole::kProtector, dedup(seen_p, protector_groups[i])});
  }
  for (std::size_t i = 1; i < rumor_groups.size(); ++i) {
    s.extras.push_back({CascadeRole::kRumor, dedup(seen_r, rumor_groups[i])});
  }

  if (priority == CascadePriority::kFixedOrder && !s.extras.empty()) {
    // Role-separable order: cascade 0, protector-role extras, cascade 1,
    // rumor-role extras.
    s.order.push_back(0);
    for (std::size_t i = 0; i < np; ++i) {
      s.order.push_back(static_cast<std::uint8_t>(2 + i));
    }
    s.order.push_back(1);
    for (std::size_t i = 2 + np; i < s.num_cascades(); ++i) {
      s.order.push_back(static_cast<std::uint8_t>(i));
    }
  }
  return s;
}

std::size_t DiffusionResult::infected_count() const {
  return static_cast<std::size_t>(
      std::count(state.begin(), state.end(), NodeState::kInfected));
}

std::size_t DiffusionResult::protected_count() const {
  return static_cast<std::size_t>(
      std::count(state.begin(), state.end(), NodeState::kProtected));
}

namespace {

std::size_t cumulative_at(const std::vector<std::uint32_t>& series,
                          std::uint32_t hop) {
  std::size_t total = 0;
  const std::uint32_t last = std::min<std::uint32_t>(
      hop, series.empty() ? 0 : static_cast<std::uint32_t>(series.size() - 1));
  for (std::uint32_t t = 0; t <= last && t < series.size(); ++t) {
    total += series[t];
  }
  return total;
}

}  // namespace

std::size_t DiffusionResult::cumulative_infected_at(std::uint32_t hop) const {
  return cumulative_at(newly_infected, hop);
}

std::size_t DiffusionResult::cumulative_protected_at(std::uint32_t hop) const {
  return cumulative_at(newly_protected, hop);
}

double DiffusionResult::saved_fraction(std::span<const NodeId> targets) const {
  if (targets.empty()) return 1.0;
  return static_cast<double>(saved_count(targets)) /
         static_cast<double>(targets.size());
}

std::size_t DiffusionResult::saved_count(std::span<const NodeId> targets) const {
  std::size_t saved = 0;
  for (NodeId v : targets) {
    if (state.at(v) != NodeState::kInfected) ++saved;
  }
  return saved;
}

template <GraphView G>
void DiffusionResult::validate(const G& g, const SeedSets& seeds) const {
  const std::size_t n = g.num_nodes();
  const std::size_t kk = seeds.num_cascades();
  LCRB_REQUIRE(state.size() == n, "state must cover every node");
  LCRB_REQUIRE(activation_step.size() == n,
               "activation_step must cover every node");
  LCRB_REQUIRE(newly_infected.size() == newly_protected.size(),
               "per-step series must have equal length");
  LCRB_REQUIRE(!newly_infected.empty(), "series must include the seed step");
  const bool with_cascades = !cascade.empty();
  if (with_cascades) {
    LCRB_REQUIRE(cascade.size() == n, "cascade must cover every node");
    LCRB_REQUIRE(newly_by_cascade.size() == kk,
                 "per-cascade series must cover every cascade");
    for (const auto& series : newly_by_cascade) {
      LCRB_REQUIRE(series.size() == newly_infected.size(),
                   "per-cascade series must match the role series length");
    }
  }

  // seed_cascade[v]: 1 + winning cascade id when v is a seed, 0 otherwise.
  std::vector<std::uint32_t> seed_cascade(n, 0);
  for (std::size_t k = 0; k < kk; ++k) {
    for (NodeId v : seeds.seeds_of(k)) {
      seed_cascade[v] = static_cast<std::uint32_t>(k) + 1;
    }
  }

  std::uint32_t last_step = 0;
  std::vector<std::uint32_t> infected_at(newly_infected.size(), 0);
  std::vector<std::uint32_t> protected_at(newly_protected.size(), 0);
  std::vector<std::vector<std::uint32_t>> cascade_at;
  if (with_cascades) {
    cascade_at.assign(kk,
                      std::vector<std::uint32_t>(newly_infected.size(), 0));
  }
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t t = activation_step[v];
    if (state[v] == NodeState::kInactive) {
      LCRB_REQUIRE(t == kUnreached, "inactive node with an activation step");
      LCRB_REQUIRE(seed_cascade[v] == 0, "seed node left inactive");
      if (with_cascades) {
        LCRB_REQUIRE(cascade[v] == kNoCascade,
                     "inactive node with a winning cascade");
      }
      continue;
    }
    LCRB_REQUIRE(t != kUnreached, "active node without an activation step");
    LCRB_REQUIRE(t < newly_infected.size(),
                 "activation step beyond the recorded series");
    if (with_cascades) {
      LCRB_REQUIRE(cascade[v] < kk, "winning cascade id out of range");
      const CascadeRole role = seeds.role_of(cascade[v]);
      LCRB_REQUIRE(state[v] == (role == CascadeRole::kProtector
                                    ? NodeState::kProtected
                                    : NodeState::kInfected),
                   "state disagrees with the winning cascade's role");
      cascade_at[cascade[v]][t] += 1;
    }
    if (t == 0) {
      LCRB_REQUIRE(seed_cascade[v] != 0, "non-seed node activated at step 0");
      const std::size_t k = seed_cascade[v] - 1;
      LCRB_REQUIRE(state[v] == (seeds.role_of(k) == CascadeRole::kProtector
                                    ? NodeState::kProtected
                                    : NodeState::kInfected),
                   "seed activated with the wrong color");
      if (with_cascades) {
        LCRB_REQUIRE(cascade[v] == k, "seed won by the wrong cascade");
      }
    } else {
      LCRB_REQUIRE(seed_cascade[v] == 0, "seed re-activated after step 0");
      // Progressive propagation: some same-cascade (or, without cascade
      // attribution, same-colored) in-neighbor was active strictly before
      // v's activation.
      bool has_source = false;
      for (NodeId u : g.in_neighbors(v)) {
        const bool same = with_cascades ? cascade[u] == cascade[v]
                                        : state[u] == state[v];
        if (same && activation_step[u] < t) {
          has_source = true;
          break;
        }
      }
      LCRB_REQUIRE(has_source,
                   "activation without an earlier same-cascade in-neighbor");
      last_step = std::max(last_step, t);
    }
    (state[v] == NodeState::kInfected ? infected_at : protected_at)[t] += 1;
  }
  LCRB_REQUIRE(steps == last_step, "steps must be the last activating step");
  for (std::size_t t = 0; t < newly_infected.size(); ++t) {
    LCRB_REQUIRE(newly_infected[t] == infected_at[t],
                 "newly_infected series disagrees with activation steps");
    LCRB_REQUIRE(newly_protected[t] == protected_at[t],
                 "newly_protected series disagrees with activation steps");
    if (with_cascades) {
      for (std::size_t k = 0; k < kk; ++k) {
        LCRB_REQUIRE(newly_by_cascade[k][t] == cascade_at[k][t],
                     "per-cascade series disagrees with activation steps");
      }
    }
  }
}

template void validate_seeds<DiGraph>(const DiGraph&, const SeedSets&);
template void validate_seeds<EfGraph>(const EfGraph&, const SeedSets&);
template void DiffusionResult::validate<DiGraph>(const DiGraph&,
                                                 const SeedSets&) const;
template void DiffusionResult::validate<EfGraph>(const EfGraph&,
                                                 const SeedSets&) const;

}  // namespace lcrb
