#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "support/reference_edge_list.h"
#include "util/rng.h"

namespace lcrb {
namespace {

TEST(EdgeListIo, ParsesBasicFile) {
  std::istringstream in(
      "# comment\n"
      "% another comment\n"
      "\n"
      "0 1\n"
      "  1 2\n"
      "2\t0\n");
  const DiGraph g = load_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(EdgeListIo, UndirectedFlagSymmetrizes) {
  std::istringstream in("0 1\n1 2\n");
  const DiGraph g = load_edge_list(in, /*undirected=*/true);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(EdgeListIo, MalformedLineThrows) {
  std::istringstream bad1("0 x\n");
  EXPECT_THROW(load_edge_list(bad1), Error);
  std::istringstream bad2("0\n");
  EXPECT_THROW(load_edge_list(bad2), Error);
  std::istringstream bad3("-1 2\n");
  EXPECT_THROW(load_edge_list(bad3), Error);
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/graph.txt"), Error);
}

// What a parser made of `text`: every arc, or the error it threw.
template <class Load>
std::string parse_outcome(Load load, const std::string& text,
                          bool undirected) {
  std::istringstream in(text);
  try {
    const DiGraph g = load(in, undirected);
    std::string out = "n=" + std::to_string(g.num_nodes()) + ":";
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.out_neighbors(u)) {
        out += ' ' + std::to_string(u) + '>' + std::to_string(v);
      }
    }
    return out;
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

void expect_matches_reference(const std::string& text,
                              const std::string& what) {
  for (const bool undirected : {false, true}) {
    const std::string got = parse_outcome(
        [](std::istream& in, bool u) { return load_edge_list(in, u); }, text,
        undirected);
    const std::string want = parse_outcome(
        [](std::istream& in, bool u) {
          return reference::load_edge_list(in, u);
        },
        text, undirected);
    EXPECT_EQ(got, want) << what << " (undirected=" << undirected << ")";
  }
}

TEST(EdgeListIo, MatchesReferenceParserOnEdgeCases) {
  const std::vector<std::string> cases = {
      "", "\n", "0 1", "0 1\n", "0 1\n1 2", "  0 1\n", "\t0\t1\n",
      "0 1\r\n1 2\r\n", "0 1\r", "\r\n", "# c\n% c\n0 1\n",
      "  # indented\n\t% indented\n", "\v0 1\n", "\f\n", " \v \n",
      "0 1 2 3\n", "0 1 extra words\n", "+3 +4\n", "+ 3 4\n", "+-3 4\n",
      "++3 4\n", "+\n", "-\n", "-3 4\n", "3 -4\n", "-0 0\n", "--1 2\n",
      "4294967295 0\n", "0 4294967295\n", "4294967296 0\n",
      "99999999999999999999 1\n", "-99999999999999999999 1\n",
      "9223372036854775807 1\n", "9223372036854775808 1\n",
      "1 2abc\n", "1abc 2\n", "1,2\n", "1-2\n", "1+2\n", "0x10 1\n",
      "1 0x10\n", "007 010\n", "1\n", "x y\n", "1 2 #trailing comment\n",
      "0 1\n\n\n2 3\nbad\n", "1 2\n3", "1 2\n3 4\n# last comment, no newline",
      std::string("1\0 2\n", 5), std::string("1 2\0\n", 5), "\xff 1\n",
      "1\xa0" "2\n"};
  for (const std::string& text : cases) {
    expect_matches_reference(text, testing::PrintToString(text));
  }
}

TEST(EdgeListIo, MatchesReferenceParserAcrossReadBoundaries) {
  // Lines longer than one read, and many lines, so that every kind of line
  // straddles a read boundary somewhere; the last line is malformed, so
  // the line number is checked after all of them.
  std::string text = "0 1\n" + std::string(70000, ' ') + "5 6\n";
  for (int i = 0; i < 30000; ++i) {
    text += std::to_string(i % 97) + (i % 3 == 0 ? "\t" : " ") +
            std::to_string(i % 89) + (i % 5 == 0 ? "\r\n" : "\n");
    if (i % 7 == 0) text += "# comment line\n";
  }
  expect_matches_reference(text, "long input");
  expect_matches_reference(text + "12 x", "long input, bad last line");
}

TEST(EdgeListIo, MatchesReferenceParserOnRandomLines) {
  // Lines spliced from tokens the parser treats specially.
  const std::vector<std::string> tokens = {
      "0", "7", "42", "-1", "+3", "-0", "4294967295", "99999999999999999999",
      " ", "  ", "\t", "\r", "\v", "#", "%", "x", "1e3", "0x1", ",", "+",
      "-", "\xff"};
  // Spliced digits can form any id; an accepted large one would make
  // GraphBuilder allocate per-node arrays that large, so such documents are
  // redrawn. Ids of 10+ digits at or past kInvalidNode stay in: they are
  // rejected.
  auto has_costly_id = [](const std::string& text) {
    for (std::size_t i = 0; i < text.size();) {
      if (text[i] < '0' || text[i] > '9') {
        ++i;
        continue;
      }
      std::uint64_t value = 0;
      for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
        value = std::min<std::uint64_t>(value * 10 + (text[i] - '0'),
                                        std::uint64_t{1} << 40);
      }
      if (value >= 10000 && value < kInvalidNode) return true;
    }
    return false;
  };
  Rng rng(17);
  for (int doc = 0; doc < 400;) {
    std::string text;
    const std::size_t lines = 1 + rng.next_below(6);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t n = rng.next_below(6);
      for (std::size_t t = 0; t < n; ++t) {
        text += tokens[rng.next_below(tokens.size())];
      }
      if (l + 1 < lines || rng.next_bool(0.5)) text += '\n';
    }
    if (has_costly_id(text)) continue;
    expect_matches_reference(text, testing::PrintToString(text));
    ++doc;
  }
}

TEST(EdgeListIo, MatchesReferenceParserOnFuzzCorpus) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(LCRB_EDGE_LIST_CORPUS_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    expect_matches_reference(text, entry.path().filename().string());
    ++files;
  }
  EXPECT_GT(files, 0u);
}

TEST(EdgeListIo, RoundTrip) {
  Rng rng(8);
  const DiGraph g = erdos_renyi(60, 0.05, /*directed=*/true, rng);
  const std::string path = testing::TempDir() + "/lcrb_io_roundtrip.txt";
  save_edge_list(g, path);
  const DiGraph h = load_edge_list(path);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.out_neighbors(u);
    const auto b = h.out_neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lcrb
