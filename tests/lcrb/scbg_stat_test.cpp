// SCBG's approximation guarantee checked against exact answers: on seeded
// tiny graphs, the number of protectors SCBG picks is at most
// H(max |SW|) times the minimum number of nodes whose SW sets cover every
// bridge end (brute force over the same DOAM bridge-end matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/builder.h"
#include "graph/traversal.h"
#include "lcrb/bbst_matrix.h"
#include "lcrb/scbg.h"
#include "support/bbst_sets.h"
#include "support/set_cover_oracle.h"
#include "util/rng.h"

namespace lcrb {
namespace {

constexpr int kInstancesPerSeed = 25;

struct TinyInstance {
  DiGraph g;
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
};

// A random digraph on 5..12 nodes with one or two rumors and a random
// nonempty subset of the rumor-reachable nodes as bridge ends.
TinyInstance draw_instance(Rng& rng) {
  for (;;) {
    const auto n = static_cast<NodeId>(5 + rng.next_below(8));
    std::set<std::pair<NodeId, NodeId>> arcs;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u != v && rng.next_bool(0.22)) arcs.emplace(u, v);
      }
    }
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
      if (d != kUnreached && d > 0 && rng.next_bool(0.6)) {
        t.bridges.bridge_ends.push_back(v);
      }
    }
    if (!t.bridges.bridge_ends.empty()) return t;
  }
}

class SetCoverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetCoverPropertyTest, GreedyWithinHnOfOptimal) {
  Rng rng(GetParam() * 7919 + 3);
  for (int i = 0; i < kInstancesPerSeed; ++i) {
    const TinyInstance t = draw_instance(rng);
    const ScbgResult r = scbg_from_bridges(t.g, t.rumors, t.bridges);
    const reference::BbstSets sets = reference::decode_bbsts(
        build_bbst_matrix(t.g, t.rumors, t.bridges), t.g.num_nodes());

    // The cover instance: one set per candidate node, its SW set.
    statcheck::CoverInstance inst;
    inst.universe_size = static_cast<std::uint32_t>(sets.sets.size());
    std::size_t max_sw = 0;
    for (const std::vector<std::uint32_t>& sw : sets.sw) {
      if (sw.empty()) continue;
      inst.sets.push_back(sw);
      max_sw = std::max(max_sw, sw.size());
    }
    const statcheck::CoverResult opt = statcheck::exact_set_cover(inst);
    ASSERT_TRUE(opt.complete) << "instance " << i;
    EXPECT_EQ(r.covered, t.bridges.bridge_ends.size());
    EXPECT_LE(static_cast<double>(r.protectors.size()),
              statcheck::harmonic(max_sw) *
                      static_cast<double>(opt.chosen.size()) +
                  1e-9)
        << "instance " << i << ": " << r.protectors.size() << " picks, OPT "
        << opt.chosen.size() << ", max |SW| " << max_sw;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCoverPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace lcrb
