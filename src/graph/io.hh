/**
 * @file
 * Plain-text edge-list I/O.
 *
 * Format: one "src dst [weight]" triple per line; '#' starts a comment.
 * Compatible with SNAP-style edge lists so users can drop in real datasets.
 */

#ifndef OMEGA_GRAPH_IO_HH
#define OMEGA_GRAPH_IO_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/builder.hh"
#include "graph/types.hh"

namespace omega {

/**
 * Parse an edge list from a stream. Returns edges; sets @p max_vertex.
 *
 * Malformed input is rejected with fatal(): non-numeric or negative
 * vertex ids, ids too large for VertexId, weights outside int32, extra
 * tokens on a line, and stream-level read errors (truncated files).
 *
 * @param declared_vertices if non-null, receives the vertex count from a
 *        "# vertices N ..." header comment (as written by
 *        writeEdgeList) when one is present.
 */
EdgeList readEdgeList(std::istream &is, VertexId &max_vertex,
                      std::optional<VertexId> *declared_vertices = nullptr);

/**
 * Largest vertex count loadGraphFile accepts: 2^27, about 3x the 41.6M
 * vertices of twitter-2010, the largest graph in the paper. The count
 * sizes the CSR offset arrays, so a one-line file naming vertex
 * 4294967294 would otherwise request about 32 GiB of offsets.
 */
inline constexpr VertexId kMaxLoadedVertices = VertexId(1) << 27;

/**
 * Load a file and build a graph (fatal() on I/O and parse errors). A
 * "# vertices N" header pins the vertex count — preserving isolated
 * trailing vertices — and an edge referencing a vertex outside the
 * declared range is an error. A vertex count above kMaxLoadedVertices,
 * declared or implied by the largest id, is rejected before the graph
 * is built.
 */
Graph loadGraphFile(const std::string &path, const BuildOptions &opts = {});

/** Write the graph's arcs as an edge list. */
void writeEdgeList(std::ostream &os, const Graph &g);

/** Save to file (fatal() on I/O errors). */
void saveGraphFile(const std::string &path, const Graph &g);

} // namespace omega

#endif // OMEGA_GRAPH_IO_HH
