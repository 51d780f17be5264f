// Differential test of the Louvain kernel against the list-of-lists
// reference (tests/support/louvain_reference.h): over a few hundred seeded
// graphs, on both backends and two Louvain seeds each, the partitions must
// be equal. Louvain's output hash is also pinned on the graphs the benchmark
// opens, so a change that moved both implementations alike still fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "community/louvain.h"
#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "support/louvain_reference.h"
#include "util/rng.h"

namespace lcrb {
namespace {

constexpr std::uint64_t kLouvainSeeds[] = {1, 7};

/// Kernel and reference agree on `g` for every Louvain seed, on DiGraph and
/// on its Elias-Fano copy.
void expect_matches_reference(const DiGraph& g, const std::string& what) {
  const EfGraph ef = EfGraph::from_csr(g);
  for (const std::uint64_t seed : kLouvainSeeds) {
    LouvainConfig cfg;
    cfg.seed = seed;
    const Partition want = reference::louvain_reference(g, cfg);
    EXPECT_EQ(louvain(g, cfg).membership(), want.membership())
        << what << " louvain seed " << seed << " (DiGraph)";
    EXPECT_EQ(louvain(ef, cfg).membership(), want.membership())
        << what << " louvain seed " << seed << " (EfGraph)";
  }
}

/// Arcs drawn inside `blocks` planted groups, a few across, with repeats
/// and self-loops; `isolated` trailing nodes get no arc at all.
DiGraph random_multigraph(std::uint64_t seed, bool dedup, bool self_loops,
                          NodeId isolated) {
  Rng rng(seed);
  const NodeId blocks = 2 + static_cast<NodeId>(rng.next_below(4));
  const NodeId block_size = 3 + static_cast<NodeId>(rng.next_below(10));
  const NodeId n = blocks * block_size;
  GraphBuilder b(GraphBuilder::Options{dedup, self_loops});
  b.reserve_nodes(n + isolated);
  const std::uint64_t arcs = n * (2 + rng.next_below(4));
  for (std::uint64_t a = 0; a < arcs; ++a) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    NodeId v;
    if (rng.next_below(8) == 0) {
      v = static_cast<NodeId>(rng.next_below(n));  // anywhere, incl. u
    } else {
      v = (u / block_size) * block_size +
          static_cast<NodeId>(rng.next_below(block_size));
    }
    b.add_edge(u, v);
    if (rng.next_below(4) == 0) b.add_edge(u, v);  // a parallel arc
  }
  return b.finalize();
}

TEST(LouvainReference, MatchesOnCommunityGenerator) {
  for (std::uint64_t seed = 1; seed <= 90; ++seed) {
    Rng rng(seed * 977);
    CommunityGraphConfig cfg;
    const std::size_t k = 2 + rng.next_below(5);
    for (std::size_t c = 0; c < k; ++c) {
      cfg.community_sizes.push_back(5 + static_cast<NodeId>(rng.next_below(60)));
    }
    cfg.avg_intra_degree = 2.0 + static_cast<double>(rng.next_below(8));
    cfg.avg_inter_degree = 0.2 * static_cast<double>(1 + rng.next_below(6));
    cfg.seed = seed;
    expect_matches_reference(make_community_graph(cfg).graph,
                             "community graph seed " + std::to_string(seed));
  }
}

TEST(LouvainReference, MatchesOnDatasetAnalogs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_reference(make_hep_like(seed, 0.05).net.graph,
                             "hep analog seed " + std::to_string(seed));
    expect_matches_reference(make_enron_like(seed, 0.01).net.graph,
                             "email analog seed " + std::to_string(seed));
  }
}

TEST(LouvainReference, MatchesOnMultiArcsAndSelfLoops) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string what = "multigraph seed " + std::to_string(seed);
    expect_matches_reference(random_multigraph(seed, false, true, 0),
                             what + " (multi-arcs, self-loops)");
    expect_matches_reference(random_multigraph(seed, false, false, 0),
                             what + " (multi-arcs)");
  }
}

TEST(LouvainReference, MatchesWithIsolatedNodes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_matches_reference(
        random_multigraph(seed + 1000, true, seed % 2 == 0,
                          1 + static_cast<NodeId>(seed % 7)),
        "isolated-node graph seed " + std::to_string(seed));
  }
}

TEST(LouvainReference, MatchesOnEmptyAndEdgelessGraphs) {
  expect_matches_reference(DiGraph{}, "empty graph");
  GraphBuilder b;
  b.reserve_nodes(6);
  expect_matches_reference(b.finalize(), "edgeless graph");
  GraphBuilder loops(GraphBuilder::Options{true, true});
  for (NodeId v = 0; v < 4; ++v) loops.add_edge(v, v);
  expect_matches_reference(loops.finalize(), "self-loops only");
}

// The undirected view skips (v, v): kept self-loops, and repeats of them,
// leave the partition as it is without them.
TEST(LouvainReference, SelfLoopsDoNotMoveThePartition) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const DiGraph with = random_multigraph(seed, false, true, 0);
    const DiGraph without = random_multigraph(seed, false, false, 0);
    for (const std::uint64_t louvain_seed : kLouvainSeeds) {
      LouvainConfig cfg;
      cfg.seed = louvain_seed;
      EXPECT_EQ(louvain(with, cfg).membership(),
                louvain(without, cfg).membership())
          << "seed " << seed << " louvain seed " << louvain_seed;
    }
  }
}

std::uint64_t membership_hash(const Partition& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over little-endian u32s
  for (const CommunityId c : p.membership()) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (c >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// The graph as the benchmark's sessions see it: the analog written as an
/// edge list and read back directed.
DiGraph as_loaded(const DiGraph& g) {
  std::stringstream edges;
  save_edge_list(g, edges);
  return load_edge_list(edges, false);
}

// Hashes taken from the list-of-lists implementation before the kernel moved
// to flat rows; Louvain seed 1 as the benchmark's sessions use.
TEST(LouvainReference, PinnedHashesOnBenchmarkGraphs) {
  struct Case {
    const char* name;
    DiGraph g;
    std::size_t communities;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"hep analog at 0.2", as_loaded(make_hep_like(1, 0.2).net.graph), 76,
       0xed180512a29103fdULL},
      {"email analog at 0.03", as_loaded(make_enron_like(1, 0.03).net.graph),
       46, 0x4d9b5f0c3f37b2adULL},
  };
  for (const Case& c : cases) {
    const Partition p = louvain(c.g);
    const Partition ef = louvain(EfGraph::from_csr(c.g));
    EXPECT_EQ(p.membership(), ef.membership()) << c.name;
    EXPECT_EQ(p.num_communities(), c.communities) << c.name;
    EXPECT_EQ(membership_hash(p), c.hash)
        << c.name << ": 0x" << std::hex << membership_hash(p);
  }
}

}  // namespace
}  // namespace lcrb
