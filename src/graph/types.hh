/**
 * @file
 * Basic integer types shared by the graph layer.
 */

#ifndef OMEGA_GRAPH_TYPES_HH
#define OMEGA_GRAPH_TYPES_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace omega {

/** Vertex identifier. 32 bits covers every dataset stand-in we generate. */
using VertexId = std::uint32_t;

/** Edge index / count type. */
using EdgeId = std::uint64_t;

/**
 * A CSR row offset as a Graph stores it. buildGraph admits fewer than
 * 2^32 arcs, so 32 bits hold every offset; the accessors widen it to
 * EdgeId.
 */
using RowOffset = std::uint32_t;

/** A directed edge with an optional weight (used by SSSP). */
struct Edge
{
    VertexId src;
    VertexId dst;
    std::int32_t weight = 1;
};

/** A raw edge list as produced by the generators / loaders. */
using EdgeList = std::vector<Edge>;

} // namespace omega

#endif // OMEGA_GRAPH_TYPES_HH
