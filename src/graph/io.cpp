#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <string_view>

#include "graph/builder.h"
#include "util/error.h"

namespace lcrb {

namespace {

constexpr std::uint64_t kMagic = 0x4c43524247463031ULL;  // "LCRBGF01"

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

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

void save_binary(const DiGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  LCRB_REQUIRE(out.good(), "cannot open file for writing: " + path);

  std::vector<std::pair<NodeId, NodeId>> arcs;
  arcs.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.out_neighbors(u)) arcs.emplace_back(u, v);
  }

  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = arcs.size();
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  checksum = fnv1a(&n, sizeof n, checksum);
  checksum = fnv1a(&m, sizeof m, checksum);
  if (m) checksum = fnv1a(arcs.data(), m * sizeof(arcs[0]), checksum);

  out.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&m), sizeof m);
  if (m) out.write(reinterpret_cast<const char*>(arcs.data()),
                   static_cast<std::streamsize>(m * sizeof(arcs[0])));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  LCRB_REQUIRE(out.good(), "binary graph write failed: " + path);
}

DiGraph load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LCRB_REQUIRE(in.good(), "cannot open binary graph: " + path);
  return load_binary(in);
}

DiGraph load_binary(std::istream& in) {
  std::uint64_t magic = 0, n = 0, m = 0, stored = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  LCRB_REQUIRE(in.good() && magic == kMagic, "not an lcrb binary graph");
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  in.read(reinterpret_cast<char*>(&m), sizeof m);
  LCRB_REQUIRE(in.good() && n <= kInvalidNode, "corrupt binary graph header");

  // The header's arc count is untrusted: read in bounded chunks so a forged
  // count allocates memory proportional to the bytes actually present, not
  // to the claimed 2^64. Truncation surfaces as a short read, not OOM.
  constexpr std::uint64_t kChunkArcs = 1u << 16;
  std::vector<std::pair<NodeId, NodeId>> arcs;
  arcs.reserve(static_cast<std::size_t>(std::min(m, kChunkArcs)));
  std::uint64_t remaining = m;
  while (remaining > 0) {
    const std::uint64_t batch = std::min(remaining, kChunkArcs);
    const std::size_t old = arcs.size();
    arcs.resize(old + static_cast<std::size_t>(batch));
    in.read(reinterpret_cast<char*>(arcs.data() + old),
            static_cast<std::streamsize>(batch * sizeof(arcs[0])));
    LCRB_REQUIRE(in.good(), "binary graph truncated");
    remaining -= batch;
  }
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  LCRB_REQUIRE(in.good(), "binary graph truncated");

  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  checksum = fnv1a(&n, sizeof n, checksum);
  checksum = fnv1a(&m, sizeof m, checksum);
  if (m) checksum = fnv1a(arcs.data(), m * sizeof(arcs[0]), checksum);
  LCRB_REQUIRE(checksum == stored, "binary graph checksum mismatch");

  GraphBuilder b;
  b.reserve_nodes(static_cast<NodeId>(n));
  b.reserve_edges(arcs.size());
  for (const auto& [u, v] : arcs) {
    LCRB_REQUIRE(u < n && v < n, "binary graph arc endpoint out of range");
    b.add_edge(u, v);
  }
  return b.finalize();
}

}  // namespace lcrb
