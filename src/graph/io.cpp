#include "graph/io.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <string_view>

#include "graph/builder.h"
#include "util/error.h"

namespace lcrb {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Reads one node id at `p` the way `std::istream >> long long` does in the
/// classic locale — skip whitespace, an optional sign, then every decimal
/// digit that follows — and accepts it only if it lies in
/// [0, kInvalidNode). Advances `p` past the digits on success.
bool parse_node_id(const char*& p, const char* end, NodeId& out) {
  while (p != end && is_space(*p)) ++p;
  // from_chars takes '-' but not '+'; a '+' must be followed by a digit.
  if (p != end && *p == '+' && ++p != end && *p == '-') return false;
  long long value = 0;
  const auto [next, ec] = std::from_chars(p, end, value);
  if (ec != std::errc{} || value < 0 ||
      value > static_cast<long long>(kInvalidNode - 1)) {
    return false;
  }
  out = static_cast<NodeId>(value);
  p = next;
  return true;
}

}  // namespace

DiGraph load_edge_list(const std::string& path, bool undirected) {
  std::ifstream in(path);
  LCRB_REQUIRE(in.good(), "cannot open edge list: " + path);
  return load_edge_list(in, undirected);
}

DiGraph load_edge_list(std::istream& in, bool undirected) {
  GraphBuilder b;
  std::size_t lineno = 0;
  auto parse_line = [&](std::string_view line) {
    ++lineno;
    // Skip blanks and comments (leading space, tab and CR allowed).
    const std::size_t pos = line.find_first_not_of(" \t\r");
    if (pos == std::string_view::npos) return;
    if (line[pos] == '#' || line[pos] == '%') return;
    const char* p = line.data();
    const char* const end = p + line.size();
    NodeId u = 0, v = 0;
    if (!parse_node_id(p, end, u) || !parse_node_id(p, end, v)) {
      throw Error("malformed edge list line " + std::to_string(lineno) +
                  ": '" + std::string(line) + "'");
    }
    if (undirected) {
      b.add_undirected_edge(u, v);
    } else {
      b.add_edge(u, v);
    }
  };

  // Lines are cut out of fixed-size reads; `buf` carries a line that
  // straddles two reads over to the next one.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string buf;
  for (bool more = true; more;) {
    const std::size_t old = buf.size();
    buf.resize(old + kChunk);
    in.read(buf.data() + old, static_cast<std::streamsize>(kChunk));
    buf.resize(old + static_cast<std::size_t>(in.gcount()));
    more = buf.size() == old + kChunk;
    const std::string_view text(buf);
    std::size_t start = 0;
    for (std::size_t nl = text.find('\n', old); nl != std::string_view::npos;
         nl = text.find('\n', start)) {
      parse_line(text.substr(start, nl - start));
      start = nl + 1;
    }
    buf.erase(0, start);
  }
  if (!buf.empty()) parse_line(buf);  // last line, no trailing newline
  return b.finalize();
}

void save_edge_list(const DiGraph& g, const std::string& path) {
  std::ofstream out(path);
  LCRB_REQUIRE(out.good(), "cannot open file for writing: " + path);
  save_edge_list(g, out);
  LCRB_REQUIRE(out.good(), "edge list write failed: " + path);
}

void save_edge_list(const DiGraph& g, std::ostream& out) {
  out << "# lcrb edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " arcs\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.out_neighbors(u)) out << u << ' ' << v << '\n';
  }
}

}  // namespace lcrb
