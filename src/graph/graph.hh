/**
 * @file
 * Compressed-sparse-row graph with both out- and in-adjacency.
 *
 * This mirrors the representation used by Ligra-style frameworks: the
 * "edgeList" data structure of the paper is the pair of CSR arrays
 * (offsets + neighbor/weight arrays), accessed sequentially per vertex,
 * while per-vertex algorithm state lives in separate vtxProp arrays
 * managed by the framework layer.
 */

#ifndef OMEGA_GRAPH_GRAPH_HH
#define OMEGA_GRAPH_GRAPH_HH

#include <span>
#include <string>
#include <vector>

#include "graph/types.hh"

namespace omega {

/**
 * Immutable CSR graph.
 *
 * For directed graphs both directions are materialized (outgoing for the
 * push phase of edgeMap, incoming for the pull phase). For symmetric
 * (undirected) graphs the in-arrays alias the out-arrays.
 */
class Graph
{
  public:
    Graph() = default;

    /**
     * Construct from prebuilt CSR arrays (used by GraphBuilder).
     *
     * @param num_vertices number of vertices.
     * @param out_offsets CSR row offsets for outgoing edges, size V+1.
     * @param out_neighbors destination vertex per outgoing edge.
     * @param out_weights weight per outgoing edge (same order).
     * @param in_offsets CSR row offsets for incoming edges, size V+1.
     * @param in_neighbors source vertex per incoming edge.
     * @param in_weights weight per incoming edge.
     * @param symmetric true if the graph is undirected (in == out).
     */
    Graph(VertexId num_vertices,
          std::vector<EdgeId> out_offsets,
          std::vector<VertexId> out_neighbors,
          std::vector<std::int32_t> out_weights,
          std::vector<EdgeId> in_offsets,
          std::vector<VertexId> in_neighbors,
          std::vector<std::int32_t> in_weights,
          bool symmetric);

    VertexId numVertices() const { return num_vertices_; }
    /** Number of directed arcs stored in the out-CSR. */
    EdgeId numArcs() const { return out_neighbors_.size(); }
    /** Edges as the paper counts them: arcs for directed, arcs/2 undirected. */
    EdgeId numEdges() const
    {
        return symmetric_ ? numArcs() / 2 : numArcs();
    }
    bool symmetric() const { return symmetric_; }

    EdgeId outDegree(VertexId v) const
    {
        return out_offsets_[v + 1] - out_offsets_[v];
    }
    EdgeId inDegree(VertexId v) const
    {
        return in_offsets_[v + 1] - in_offsets_[v];
    }

    /** Outgoing neighbors of @p v. */
    std::span<const VertexId> outNeighbors(VertexId v) const
    {
        return {out_neighbors_.data() + out_offsets_[v],
                out_neighbors_.data() + out_offsets_[v + 1]};
    }
    /** Incoming neighbors of @p v. */
    std::span<const VertexId> inNeighbors(VertexId v) const
    {
        return {in_neighbors_.data() + in_offsets_[v],
                in_neighbors_.data() + in_offsets_[v + 1]};
    }
    /** Weights parallel to outNeighbors(v). */
    std::span<const std::int32_t> outWeights(VertexId v) const
    {
        return {out_weights_.data() + out_offsets_[v],
                out_weights_.data() + out_offsets_[v + 1]};
    }
    /** Weights parallel to inNeighbors(v). */
    std::span<const std::int32_t> inWeights(VertexId v) const
    {
        return {in_weights_.data() + in_offsets_[v],
                in_weights_.data() + in_offsets_[v + 1]};
    }

    /** Global edge index of the first outgoing edge of @p v. */
    EdgeId outEdgeBase(VertexId v) const { return out_offsets_[v]; }
    /** Global edge index of the first incoming edge of @p v. */
    EdgeId inEdgeBase(VertexId v) const { return in_offsets_[v]; }

    /** True if the CSR invariants hold (sorted offsets, ids in range). */
    bool validate() const;

    /** Rebuild the graph with vertices renamed by @p perm (new = perm[old]). */
    Graph permuted(const std::vector<VertexId> &perm) const;

    /**
     * Rebuild the graph with new vertex k being old vertex @p order[k]
     * (the inverse of permuted's argument; it needs no second n-sized
     * array). Linear time: relies on the invariant buildGraph
     * establishes, that the in- and out-CSR hold the same arcs with every
     * row sorted by (neighbor, weight).
     */
    Graph renumbered(const std::vector<VertexId> &order) const;

    /**
     * renumbered() with its two directions filled on up to @p jobs
     * threads; the one-argument form uses two from kParallelSetupEdges
     * arcs on. The result does not depend on @p jobs.
     */
    Graph renumbered(const std::vector<VertexId> &order,
                     unsigned jobs) const;

    /** Recover an edge list (arcs) from the out-CSR. */
    EdgeList toEdgeList() const;

  private:
    VertexId num_vertices_ = 0;
    bool symmetric_ = false;
    std::vector<EdgeId> out_offsets_;
    std::vector<VertexId> out_neighbors_;
    std::vector<std::int32_t> out_weights_;
    std::vector<EdgeId> in_offsets_;
    std::vector<VertexId> in_neighbors_;
    std::vector<std::int32_t> in_weights_;
};

} // namespace omega

#endif // OMEGA_GRAPH_GRAPH_HH
