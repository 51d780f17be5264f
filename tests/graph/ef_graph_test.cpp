// EfGraph backend: row equality against DiGraph, from_rows' rejection of
// malformed rows, compression ratio, concurrent decode of one shared graph,
// and the shared O(log d) has_edge probe bound (the row-range binary search
// both backends route through).
#include "graph/ef_graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/backend.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "util/rng.h"

namespace lcrb {
namespace {

static_assert(GraphView<DiGraph>, "DiGraph must satisfy GraphView");
static_assert(GraphView<EfGraph>, "EfGraph must satisfy GraphView");

std::vector<NodeId> row_vec(ef::Row row) {
  std::vector<NodeId> out;
  for (NodeId v : row) out.push_back(v);
  return out;
}

std::vector<NodeId> row_vec(std::span<const NodeId> row) {
  return {row.begin(), row.end()};
}

void expect_same_graph(const DiGraph& csr, const EfGraph& ef) {
  ASSERT_EQ(csr.num_nodes(), ef.num_nodes());
  ASSERT_EQ(csr.num_edges(), ef.num_edges());
  for (NodeId u = 0; u < csr.num_nodes(); ++u) {
    EXPECT_EQ(csr.out_degree(u), ef.out_degree(u)) << "node " << u;
    EXPECT_EQ(csr.in_degree(u), ef.in_degree(u)) << "node " << u;
    ASSERT_EQ(row_vec(csr.out_neighbors(u)), row_vec(ef.out_neighbors(u)))
        << "out row " << u;
    ASSERT_EQ(row_vec(csr.in_neighbors(u)), row_vec(ef.in_neighbors(u)))
        << "in row " << u;
    // Random access must agree with iteration.
    const auto row = ef.out_neighbors(u);
    const auto expect = row_vec(csr.out_neighbors(u));
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(row[i], expect[i]) << "out row " << u << " index " << i;
    }
  }
}

TEST(EfGraph, EmptyGraph) {
  EfGraph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.memory_bytes(), 0u);
  g.validate();
}

TEST(EfGraph, MatchesCsrOnDeterministicGraphs) {
  for (const DiGraph& csr :
       {path_graph(17), cycle_graph(9, /*undirected=*/true), star_graph(33),
        complete_graph(12), grid_graph(7, 5),
        make_graph(6, {{0, 5}, {0, 1}, {3, 2}, {5, 0}, {5, 4}, {2, 2}})}) {
    const EfGraph ef = EfGraph::from_csr(csr);
    ef.validate();
    expect_same_graph(csr, ef);
  }
}

TEST(EfGraph, MatchesCsrOnRandomGraphs) {
  Rng rng(20260809);
  for (int trial = 0; trial < 8; ++trial) {
    const DiGraph csr = erdos_renyi(200, 0.03, /*directed=*/true, rng);
    const EfGraph ef = EfGraph::from_csr(csr);
    ef.validate();
    expect_same_graph(csr, ef);
  }
}

// row[i] selects forward from the row's first possible high bit for
// i < kSelectSample and through the sample table beyond; both must land on
// the i-th iterated value. The graphs cover hub rows past kSelectSample,
// rows whose first high bit sits in the last bits of a word (and in the word
// after their start position), and a dense graph with no low bits.
TEST(EfGraph, RowIndexMatchesIteration) {
  Rng rng(11);
  GraphBuilder hubs;
  for (NodeId u = 0; u < 300; ++u) {
    const NodeId degree = u % 50 == 0 ? 150 : u % 7;
    for (NodeId k = 0; k < degree; ++k) {
      hubs.add_edge(u, static_cast<NodeId>(rng.next_below(300)));
    }
  }
  const DiGraph dense = erdos_renyi(40, 0.8, /*directed=*/true, rng);
  ASSERT_EQ(ef::SequenceView::pick_low_bits(dense.num_edges(), 40u * 40u), 0u);

  std::size_t long_rows = 0, late_starts = 0, next_word_starts = 0;
  for (const DiGraph& csr :
       {hubs.finalize(), dense, erdos_renyi(500, 0.01, true, rng),
        erdos_renyi(64, 0.3, true, rng), star_graph(200)}) {
    const EfGraph ef = EfGraph::from_csr(csr);
    const std::uint64_t n = csr.num_nodes();
    const std::uint32_t low_bits =
        ef::SequenceView::pick_low_bits(csr.num_edges(), n * n);
    std::uint64_t first = 0;  // the row's first index in the target sequence
    for (NodeId u = 0; u < n; ++u) {
      for (const ef::Row row : {ef.out_neighbors(u), ef.in_neighbors(u)}) {
        const std::vector<NodeId> iterated = row_vec(row);
        ASSERT_EQ(iterated.size(), row.size());
        for (std::size_t i = 0; i < row.size(); ++i) {
          ASSERT_EQ(row[i], iterated[i]) << "node " << u << " index " << i;
        }
        if (row.size() > ef::kSelectSample) ++long_rows;
      }
      const auto out = ef.out_neighbors(u);
      if (!out.empty()) {
        // Where the out-row's first high bit lands, from the EF layout.
        const std::uint64_t start = ((u * n) >> low_bits) + first;
        const std::uint64_t pos = ((u * n + out[0]) >> low_bits) + first;
        if (pos % 64 >= 60) ++late_starts;
        if (pos / 64 != start / 64) ++next_word_starts;
      }
      first += out.size();
    }
  }
  EXPECT_GT(long_rows, 0u);
  EXPECT_GT(late_starts, 0u);
  EXPECT_GT(next_word_starts, 0u);
}

TEST(EfGraph, HasEdgeAgreesWithCsr) {
  Rng rng(7);
  const DiGraph csr = erdos_renyi(120, 0.05, /*directed=*/true, rng);
  const EfGraph ef = EfGraph::from_csr(csr);
  for (NodeId u = 0; u < csr.num_nodes(); u += 3) {
    for (NodeId v = 0; v < csr.num_nodes(); v += 2) {
      EXPECT_EQ(csr.has_edge(u, v), ef.has_edge(u, v))
          << "(" << u << ", " << v << ")";
    }
  }
  EXPECT_THROW((void)ef.has_edge(0, 999), Error);
  EXPECT_THROW(ef.out_neighbors(999), Error);
}

// Satellite: both backends answer membership through the shared row-range
// binary search, so the probe count is logarithmic in the row length — not
// linear — on CSR spans and EF rows alike.
TEST(EfGraph, HasEdgeIsLogarithmicOnBothBackends) {
  const NodeId n = 4096;
  const DiGraph csr = star_graph(n);  // hub row has n-1 targets
  const EfGraph ef = EfGraph::from_csr(csr);

  std::size_t csr_probes = 0, ef_probes = 0;
  EXPECT_TRUE(graph_algo::row_binary_search(csr.out_neighbors(0), n - 1,
                                            &csr_probes));
  EXPECT_TRUE(
      graph_algo::row_binary_search(ef.out_neighbors(0), n - 1, &ef_probes));
  // ceil(log2(4095)) = 12; allow slack for the implementation's +/-1 probes.
  EXPECT_LE(csr_probes, 14u);
  EXPECT_LE(ef_probes, 14u);
  EXPECT_GE(csr_probes, 8u);  // and it really is a search, not a lookup table

  std::size_t miss_probes = 0;
  EXPECT_FALSE(
      graph_algo::row_binary_search(ef.out_neighbors(0), 0, &miss_probes));
  EXPECT_LE(miss_probes, 14u);
}

TEST(EfGraph, CompressesCommunityGraphBelowSixBytesPerArc) {
  CommunityGraphConfig cfg;
  cfg.community_sizes.assign(8, 500);
  cfg.avg_intra_degree = 10.0;
  cfg.avg_inter_degree = 2.0;
  cfg.seed = 42;
  const DiGraph csr = make_community_graph(cfg).graph;
  const EfGraph ef = EfGraph::from_csr(csr);
  ASSERT_GT(ef.num_edges(), 10000u);
  // Acceptance bar: <= 6 bytes/arc for BOTH directions, and at least 2.5x
  // smaller than the CSR footprint.
  EXPECT_LE(ef.bits_per_arc(), 48.0) << ef.bits_per_arc() << " bits/arc";
  EXPECT_LE(static_cast<double>(ef.memory_bytes()) * 2.5,
            static_cast<double>(csr.memory_bytes()));
}

TEST(EfGraph, ConcurrentReadersShareOneMapping) {
  // The registry serves one immutable EfGraph to many query threads; all
  // views alias the same word buffer. Decoding must be a pure read — this
  // is the race-stress shape the TSan job runs.
  Rng rng(29);
  const DiGraph csr = erdos_renyi(300, 0.03, /*directed=*/true, rng);
  const EfGraph ef = EfGraph::from_csr(csr);

  std::vector<std::uint64_t> sums(4, 0);
  {
    std::vector<std::jthread> readers;
    for (std::size_t t = 0; t < sums.size(); ++t) {
      readers.emplace_back([&, t] {
        std::uint64_t sum = 0;
        for (NodeId u = 0; u < ef.num_nodes(); ++u) {
          for (const NodeId v : ef.out_neighbors(u)) sum += v;
          for (const NodeId w : ef.in_neighbors(u)) sum += w + 1;
        }
        sums[t] = sum;
      });
    }
  }
  for (std::size_t t = 1; t < sums.size(); ++t) EXPECT_EQ(sums[t], sums[0]);

  std::uint64_t expect = 0;
  for (NodeId u = 0; u < csr.num_nodes(); ++u) {
    for (const NodeId v : csr.out_neighbors(u)) expect += v;
    for (const NodeId w : csr.in_neighbors(u)) expect += w + 1;
  }
  EXPECT_EQ(sums[0], expect);
}

TEST(EfGraph, FromRowsStreamingBuild) {
  // Ring of n nodes: u -> (u+1) % n; transpose is u -> (u-1+n) % n.
  const NodeId n = 64;
  const EfGraph ef = EfGraph::from_rows(
      n, n,
      [&](NodeId u, auto&& sink) { sink((u + 1) % n); },
      [&](NodeId u, auto&& sink) { sink((u + n - 1) % n); });
  ef.validate();
  const DiGraph csr = cycle_graph(n);
  expect_same_graph(csr, ef);
}

/// The lcrb::Error message `f` throws, or "no error".
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(EfGraph, FromRowsRejectsMalformedRows) {
  // from_rows builds every EfGraph, so its input checks are the backend's
  // only guard against a malformed row source.
  const NodeId n = 4;
  const auto ring_in = [&](NodeId u, auto&& sink) { sink((u + n - 1) % n); };
  const auto out_of_range = [&](NodeId u, auto&& sink) {
    sink(u == 2 ? n : (u + 1) % n);
  };
  const auto short_direction = [&](NodeId u, auto&& sink) {
    if (u != 0) sink((u + 1) % n);
  };
  const auto unsorted = [&](NodeId u, auto&& sink) {
    if (u == 0) {
      sink(3);
      sink(1);
    }
  };
  const auto unsorted_in = [&](NodeId u, auto&& sink) {
    if (u == 1 || u == 3) sink(0);
  };

  const auto throws = [](const std::string& message, const char* expected) {
    return message.find(expected) != std::string::npos;
  };
  EXPECT_PRED2(throws, error_of([&] {
                 EfGraph::from_rows(n, n, out_of_range, ring_in);
               }),
               "arc endpoint out of range");
  EXPECT_PRED2(throws, error_of([&] {
                 EfGraph::from_rows(n, n, short_direction, ring_in);
               }),
               "direction did not emit exactly m arcs");
  EXPECT_PRED2(throws, error_of([&] {
                 EfGraph::from_rows(n, 2, unsorted, unsorted_in);
               }),
               "Elias-Fano sequence must be monotone");
}

TEST(GraphBackend, ParseAndToString) {
  EXPECT_EQ(parse_graph_backend("csr"), GraphBackend::kCsr);
  EXPECT_EQ(parse_graph_backend("EF"), GraphBackend::kEf);
  EXPECT_EQ(parse_graph_backend("elias-fano"), GraphBackend::kEf);
  EXPECT_THROW(parse_graph_backend("quantum"), Error);
  EXPECT_EQ(to_string(GraphBackend::kCsr), "csr");
  EXPECT_EQ(to_string(GraphBackend::kEf), "ef");
}

TEST(GraphBackend, GraphRefDispatch) {
  const DiGraph csr = path_graph(12);
  const EfGraph ef = EfGraph::from_csr(csr);
  const GraphRef rcsr = csr;
  const GraphRef ref = ef;
  EXPECT_EQ(rcsr.backend(), GraphBackend::kCsr);
  EXPECT_EQ(ref.backend(), GraphBackend::kEf);
  EXPECT_EQ(rcsr.num_nodes(), ref.num_nodes());
  EXPECT_EQ(rcsr.num_edges(), ref.num_edges());
  EXPECT_TRUE(ref.has_edge(0, 1));
  EXPECT_FALSE(ref.has_edge(1, 0));
  EXPECT_EQ(rcsr.csr_or_null(), &csr);
  EXPECT_EQ(ref.csr_or_null(), nullptr);
  EXPECT_LT(ref.memory_bytes(), rcsr.memory_bytes());
  EXPECT_THROW((void)GraphRef().num_nodes(), Error);
}

TEST(GraphBackend, GraphAnyOwnsEitherBackend) {
  GraphAny csr = to_backend(path_graph(12), GraphBackend::kCsr);
  GraphAny ef = to_backend(path_graph(12), GraphBackend::kEf);
  EXPECT_EQ(csr.backend(), GraphBackend::kCsr);
  EXPECT_EQ(ef.backend(), GraphBackend::kEf);
  EXPECT_EQ(csr.num_nodes(), ef.num_nodes());
  EXPECT_EQ(csr.num_edges(), ef.num_edges());
  EXPECT_LT(ef.memory_bytes(), csr.memory_bytes());
  const NodeId n = ef.visit([](const auto& g) { return g.num_nodes(); });
  EXPECT_EQ(n, 12u);
}

}  // namespace
}  // namespace lcrb
