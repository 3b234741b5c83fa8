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
 * Each direction stores only what is read. The out-CSR keeps offsets,
 * neighbors and weights: the push phase of edgeMap hands every arc's
 * weight to the update. The in-CSR keeps offsets and neighbors: the pull
 * phase reads no weight. A directed graph therefore holds 12 bytes per
 * arc plus two offset arrays. A symmetric (undirected) graph's in-rows
 * equal its out-rows, so it stores the out-CSR once (8 bytes per arc
 * plus one offset array) and the in-accessors read the out arrays.
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
     * @param in_offsets CSR row offsets for incoming edges, size V+1;
     *        empty when @p symmetric.
     * @param in_neighbors source vertex per incoming edge; empty when
     *        @p symmetric.
     * @param symmetric true if the graph is undirected (in == out).
     */
    Graph(VertexId num_vertices,
          std::vector<EdgeId> out_offsets,
          std::vector<VertexId> out_neighbors,
          std::vector<std::int32_t> out_weights,
          std::vector<EdgeId> in_offsets,
          std::vector<VertexId> in_neighbors,
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
        const EdgeId *off = inOffsets();
        return off[v + 1] - off[v];
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
        const EdgeId *off = inOffsets();
        const VertexId *nbr = inNbrs();
        return {nbr + off[v], nbr + off[v + 1]};
    }
    /** Weights parallel to outNeighbors(v). */
    std::span<const std::int32_t> outWeights(VertexId v) const
    {
        return {out_weights_.data() + out_offsets_[v],
                out_weights_.data() + out_offsets_[v + 1]};
    }

    /** Global edge index of the first outgoing edge of @p v. */
    EdgeId outEdgeBase(VertexId v) const { return out_offsets_[v]; }
    /** Global edge index of the first incoming edge of @p v. */
    EdgeId inEdgeBase(VertexId v) const { return inOffsets()[v]; }

    /** True if the CSR invariants hold (sorted offsets, ids in range). */
    bool validate() const;

    /** Rebuild the graph with vertices renamed by @p perm (new = perm[old]). */
    Graph permuted(const std::vector<VertexId> &perm) const;

    /**
     * Rebuild the graph with new vertex k being old vertex @p order[k]
     * (the inverse of permuted's argument). Each stored direction is
     * gathered from itself: new row k is old row order[k], its neighbors
     * renamed and the row sorted by (neighbor, weight).
     */
    Graph renumbered(const std::vector<VertexId> &order) const;

    /**
     * renumbered() with its rows split over up to @p jobs threads; the
     * one-argument form uses every host core from kParallelSetupEdges
     * arcs on. The result does not depend on @p jobs.
     */
    Graph renumbered(const std::vector<VertexId> &order,
                     unsigned jobs) const;

    /** Recover an edge list (arcs) from the out-CSR. */
    EdgeList toEdgeList() const;

  private:
    /** The in-CSR arrays: the out arrays when symmetric. One branch
     *  per call that never changes direction for a given graph, paid
     *  per pull task, never per arc. */
    const EdgeId *inOffsets() const
    {
        return symmetric_ ? out_offsets_.data() : in_offsets_.data();
    }
    const VertexId *inNbrs() const
    {
        return symmetric_ ? out_neighbors_.data() : in_neighbors_.data();
    }

    VertexId num_vertices_ = 0;
    bool symmetric_ = false;
    std::vector<EdgeId> out_offsets_;
    std::vector<VertexId> out_neighbors_;
    std::vector<std::int32_t> out_weights_;
    std::vector<EdgeId> in_offsets_;
    std::vector<VertexId> in_neighbors_;
};

} // namespace omega

#endif // OMEGA_GRAPH_GRAPH_HH
