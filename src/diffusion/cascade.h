// Shared vocabulary for the competitive-cascade diffusion simulators.
//
// The paper's formulation (§III) has exactly two cascades — rumor R vs
// protector P — and three rules every model shares:
//   1. all cascades start at step 0,
//   2. on simultaneous arrival the higher-priority cascade wins the node
//      (for the paper's two cascades: P beats R),
//   3. states are progressive (no node ever changes color once activated).
//
// The kernel generalizes this to K cascades. Every cascade has a ROLE —
// protector (positive) or rumor (negative) — and an id. Cascade 0 is the
// paper's protector set, cascade 1 the paper's rumor set; `extras` appends
// cascades 2.. for the multi-rumor / multi-protector workloads (Tong et al.
// arXiv:1711.07412, He et al. arXiv:1110.4723). NodeState stays two-colored:
// a node won by any protector-role cascade is kProtected, by any rumor-role
// cascade kInfected; DiffusionResult::cascade records which cascade won.
// With no extras and the default priority the kernel is byte-identical to
// the historical two-cascade machine (pinned by the golden-hash suite).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "util/types.h"

namespace lcrb {

enum class NodeState : std::uint8_t { kInactive = 0, kProtected = 1, kInfected = 2 };

/// The diffusion models the traits layer implements (model_traits.h). Each
/// value names one traits file in src/diffusion/; dispatch_model() maps the
/// runtime value onto the compile-time traits.
enum class DiffusionModel : std::uint8_t { kOpoao, kDoam, kIc, kLt, kWc };

std::string to_string(DiffusionModel m);

/// Which side a cascade fights for. The role decides the NodeState a win
/// maps to, and every role-aggregated quantity (sigma, saved fractions,
/// newly_* series) downstream.
enum class CascadeRole : std::uint8_t { kProtector = 0, kRumor = 1 };

std::string to_string(CascadeRole r);

/// Tie-break policy when several cascades could claim a node in the same
/// step. Within one step cascades move in "priority order"; earlier wins.
///   kFixedOrder  — SeedSets::order when non-empty, else ascending cascade
///                  id. The default; with no extras this is exactly the
///                  paper's P-before-R rule.
///   kLowestId    — ascending cascade id, always (ignores SeedSets::order).
///   kRoundRobin  — the ascending-id order rotated by one position every
///                  step: step t starts from cascade (t mod K).
enum class CascadePriority : std::uint8_t { kFixedOrder, kLowestId, kRoundRobin };

std::string to_string(CascadePriority p);
/// Inverse of to_string (case-insensitive: "fixed"/"FixedOrder" etc. work);
/// throws lcrb::Error on unknown names.
CascadePriority cascade_priority_from_string(const std::string& name);

/// One additional cascade beyond the paper's two.
struct ExtraCascade {
  CascadeRole role = CascadeRole::kRumor;
  std::vector<NodeId> seeds;

  friend bool operator==(const ExtraCascade&, const ExtraCascade&) = default;
};

/// Sentinel in DiffusionResult::cascade for a node no cascade won.
inline constexpr std::uint8_t kNoCascade = 0xFF;

/// Hard cap on K (cascade ids fit a uint8_t and kNoCascade is reserved).
inline constexpr std::size_t kMaxCascades = 0xFE;

/// The seed sets of every cascade. The first two members keep their
/// historical meaning and aggregate-init shape — `SeedSets{{r...}, {p...}}`
/// still reads "rumors, protectors" everywhere — and map onto cascade ids as
///   cascade 0 = protectors (role kProtector)
///   cascade 1 = rumors     (role kRumor)
///   cascade 2+ = extras[i - 2], in declaration order.
struct SeedSets {
  std::vector<NodeId> rumors;
  std::vector<NodeId> protectors;

  /// Cascades 2.. for the K-way workloads; empty = the paper's two-cascade
  /// problem.
  std::vector<ExtraCascade> extras{};
  /// Simultaneous-arrival policy (see CascadePriority).
  CascadePriority priority = CascadePriority::kFixedOrder;
  /// Explicit priority order over cascade ids for kFixedOrder; empty =
  /// ascending id. Must be a permutation of 0..num_cascades()-1 when set.
  std::vector<std::uint8_t> order{};

  std::size_t num_cascades() const { return 2 + extras.size(); }

  CascadeRole role_of(std::size_t k) const {
    if (k == 0) return CascadeRole::kProtector;
    if (k == 1) return CascadeRole::kRumor;
    return extras[k - 2].role;
  }

  const std::vector<NodeId>& seeds_of(std::size_t k) const {
    if (k == 0) return protectors;
    if (k == 1) return rumors;
    return extras[k - 2].seeds;
  }

  /// All rumor-role seeds, ascending and deduplicated — what the sigma /
  /// RIS engines consume under the role-separable collapse (see
  /// docs/algorithms.md "K cascades").
  std::vector<NodeId> rumor_role_union() const;
  /// All protector-role seeds, ascending.
  std::vector<NodeId> protector_role_union() const;

  /// True when every protector-role cascade precedes every rumor-role
  /// cascade in the priority order of EVERY step. Exactly then the K-way
  /// outcome at role level equals the two-cascade run on the role unions,
  /// which is what lets the realization-cache and RIS engines serve K-way
  /// queries. Round-robin rotation breaks this whenever both roles have a
  /// cascade and K > 1.
  bool role_separable() const;

  friend bool operator==(const SeedSets&, const SeedSets&) = default;
};

/// Throws lcrb::Error unless every cascade's seeds are in range and
/// duplicate-free, the cascades are pairwise disjoint, K <= kMaxCascades,
/// and `order` (when non-empty) is a permutation of the cascade ids.
template <GraphView G>
void validate_seeds(const G& g, const SeedSets& seeds);

/// Assembles a K-way SeedSets from per-campaign seed groups:
/// protector_groups[0] -> cascade 0, rumor_groups[0] -> cascade 1, the
/// remaining groups -> extras with protector-role campaigns first. A node
/// claimed by several same-role groups stays with the lowest-numbered one
/// (uncoordinated campaigns may collide); cross-role overlap is NOT
/// resolved — validate_seeds rejects it. Under kFixedOrder with extras an
/// explicit role-separable order (every protector-role cascade before every
/// rumor-role one) is set, so the engines' role collapse stays exact.
SeedSets make_seed_sets(std::span<const std::vector<NodeId>> rumor_groups,
                        std::span<const std::vector<NodeId>> protector_groups,
                        CascadePriority priority = CascadePriority::kFixedOrder);

/// Outcome of one simulated diffusion.
struct DiffusionResult {
  std::vector<NodeState> state;            ///< final state per node
  std::vector<std::uint32_t> activation_step;  ///< kUnreached if inactive
  std::vector<std::uint32_t> newly_infected;   ///< per step (index 0 = seeds)
  std::vector<std::uint32_t> newly_protected;  ///< per step (index 0 = seeds)
  std::uint32_t steps = 0;                 ///< last step that activated a node
  /// Winning cascade id per node (kNoCascade if inactive). Filled by
  /// run_cascade; role(cascade[v]) always agrees with state[v].
  std::vector<std::uint8_t> cascade;
  /// Per-cascade activation series, same length as newly_infected:
  /// newly_by_cascade[k][t] nodes were won by cascade k at step t. The
  /// role-aggregated newly_* series are the per-role sums of these.
  std::vector<std::vector<std::uint32_t>> newly_by_cascade;

  std::size_t infected_count() const;
  std::size_t protected_count() const;
  /// Number of nodes cascade k won.
  std::size_t cascade_count(std::uint8_t k) const;

  /// Cumulative number of infected nodes at the end of `hop` (hops beyond
  /// the recorded series return the final count — the curve has flattened).
  std::size_t cumulative_infected_at(std::uint32_t hop) const;
  std::size_t cumulative_protected_at(std::uint32_t hop) const;
  std::size_t cumulative_cascade_at(std::uint8_t k, std::uint32_t hop) const;

  /// Fraction of `targets` that finished uninfected (protected or inactive).
  /// This is the paper's notion of a bridge end being "protected".
  double saved_fraction(std::span<const NodeId> targets) const;
  std::size_t saved_count(std::span<const NodeId> targets) const;

  /// Throws lcrb::Error unless this result is a well-formed outcome of the
  /// shared K-cascade state machine on (g, seeds): state/activation_step
  /// agree everywhere, step 0 activates exactly the seeds with their
  /// cascades, the newly_* and per-cascade series match the per-step
  /// activation counts, `steps` is the last activating step, and every
  /// non-seed activation has a same-cascade in-neighbor activated strictly
  /// earlier (progressive propagation — holds for OPOAO, DOAM, IC, WC and
  /// LT alike). The cascade-level checks are skipped when `cascade` is
  /// empty (results assembled outside run_cascade). O(n + m). Called
  /// automatically at the end of every run_cascade (so every simulate())
  /// under LCRB_ENABLE_INVARIANTS.
  template <GraphView G>
  void validate(const G& g, const SeedSets& seeds) const;
};

}  // namespace lcrb
