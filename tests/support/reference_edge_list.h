// The original line-by-line edge-list parser (one std::istringstream per
// line), kept as the reference that load_edge_list must match line for
// line: same graph from every accepted input, same error text and line
// number for every rejected one.
#pragma once

#include <istream>
#include <sstream>
#include <string>

#include "graph/builder.h"
#include "graph/graph.h"
#include "util/error.h"

namespace lcrb::reference {

inline DiGraph load_edge_list(std::istream& in, bool undirected = false) {
  GraphBuilder b;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim leading whitespace, skip blanks and comments.
    std::size_t pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    if (line[pos] == '#' || line[pos] == '%') continue;
    std::istringstream fields(line);
    long long u = -1, v = -1;
    if (!(fields >> u >> v) || u < 0 || v < 0 ||
        u > static_cast<long long>(kInvalidNode - 1) ||
        v > static_cast<long long>(kInvalidNode - 1)) {
      throw Error("malformed edge list line " + std::to_string(lineno) + ": '" +
                  line + "'");
    }
    if (undirected) {
      b.add_undirected_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    } else {
      b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  }
  return b.finalize();
}

}  // namespace lcrb::reference
