// Edge-list text I/O (SNAP-style).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace lcrb {

/// Loads a whitespace-separated edge list: one "u v" pair per line, '#' and
/// '%' comment lines ignored. When `undirected` is set every pair is added in
/// both directions (the paper's treatment of the Hep collaboration network).
/// Throws lcrb::Error on malformed lines or unreadable files.
DiGraph load_edge_list(const std::string& path, bool undirected = false);
DiGraph load_edge_list(std::istream& in, bool undirected = false);

/// Writes "u v" lines, one arc per line, preceded by a comment header.
void save_edge_list(const DiGraph& g, const std::string& path);
void save_edge_list(const DiGraph& g, std::ostream& out);

}  // namespace lcrb
