/**
 * @file
 * Compressed-sparse-row graph with out-adjacency, in-degrees, and
 * in-adjacency built on its first read.
 *
 * This mirrors the representation used by Ligra-style frameworks: the
 * "edgeList" data structure of the paper is the pair of CSR arrays
 * (offsets + neighbor/weight arrays), accessed sequentially per vertex,
 * while per-vertex algorithm state lives in separate vtxProp arrays
 * managed by the framework layer.
 */

#ifndef OMEGA_GRAPH_GRAPH_HH
#define OMEGA_GRAPH_GRAPH_HH

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hh"

namespace omega {

/**
 * A graph's in-CSR, fetched once (Graph::inArcs) and then read row by
 * row: in-row v is neighbors[offsets[v] .. offsets[v + 1]).
 */
struct InArcs
{
    const RowOffset *offsets = nullptr;
    const VertexId *neighbors = nullptr;

    /** Incoming neighbors of @p v, ascending. */
    std::span<const VertexId> row(VertexId v) const
    {
        return {neighbors + offsets[v], neighbors + offsets[v + 1]};
    }
    /** Global edge index of the first incoming edge of @p v. */
    EdgeId base(VertexId v) const { return offsets[v]; }
};

/**
 * Immutable CSR graph.
 *
 * Each direction stores only what is read. The out-CSR keeps offsets,
 * neighbors and weights: the push phase of edgeMap hands every arc's
 * weight to the update. A directed graph keeps its in-offsets, which
 * give every in-degree, and builds its in-neighbors (no weights: the
 * pull phase reads none) on the first inArcs() or inNeighbors() call by
 * transposing the out-CSR; copies share that build. It holds 8 bytes
 * per arc plus two offset arrays until then, 12 after. A symmetric
 * (undirected) graph's in-rows equal its out-rows, so it stores the
 * out-CSR once (8 bytes per arc plus one offset array) and the
 * in-accessors read the out arrays. Offsets are stored as 32-bit
 * RowOffsets, 4 bytes per vertex and array, and returned as EdgeIds.
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
     * @param in_offsets CSR row offsets for incoming edges, size V+1
     *        (the in-degrees of the out-CSR's arcs); empty when
     *        @p symmetric.
     * @param symmetric true if the graph is undirected (in == out).
     */
    Graph(VertexId num_vertices,
          std::vector<RowOffset> out_offsets,
          std::vector<VertexId> out_neighbors,
          std::vector<std::int32_t> out_weights,
          std::vector<RowOffset> in_offsets,
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
        const RowOffset *off = inOffsets();
        return off[v + 1] - off[v];
    }

    /** Outgoing neighbors of @p v. */
    std::span<const VertexId> outNeighbors(VertexId v) const
    {
        return {out_neighbors_.data() + out_offsets_[v],
                out_neighbors_.data() + out_offsets_[v + 1]};
    }
    /**
     * The in-CSR. A directed graph's first call, from any thread,
     * transposes the out-CSR; concurrent first calls wait for that one
     * build. Fetch it once per loop rather than per row.
     */
    InArcs inArcs() const
    {
        if (symmetric_)
            return {out_offsets_.data(), out_neighbors_.data()};
        return {in_offsets_.data(), cachedInNeighbors()};
    }
    /** Incoming neighbors of @p v, ascending; see inArcs(). */
    std::span<const VertexId> inNeighbors(VertexId v) const
    {
        return inArcs().row(v);
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
     * (the inverse of permuted's argument). New out-row k is old out-row
     * order[k], its neighbors renamed and the row sorted by (neighbor,
     * weight); new in-degree k is old in-degree order[k]. The result
     * holds no in-neighbors until its own first read.
     */
    Graph renumbered(const std::vector<VertexId> &order) const;

    /**
     * renumbered() with its rows split over up to @p jobs threads; the
     * one-argument form uses every host core from kParallelSetupEdges
     * arcs on. The result does not depend on @p jobs.
     */
    Graph renumbered(const std::vector<VertexId> &order,
                     unsigned jobs) const;

    /**
     * The in-neighbors inArcs() keeps for a directed graph: the out-CSR
     * transposed in ascending source order, so every in-row is sorted,
     * on up to @p jobs threads. Computed afresh on every call; the
     * result does not depend on @p jobs.
     */
    std::vector<VertexId> transposedInNeighbors(unsigned jobs) const;

    /** Recover an edge list (arcs) from the out-CSR. */
    EdgeList toEdgeList() const;

  private:
    /** A directed graph's in-neighbors, built once on first read. */
    struct LazyInNeighbors
    {
        std::once_flag built;
        std::vector<VertexId> nbr;
    };

    /** The in-offsets: the out-offsets when symmetric. One branch per
     *  call that never changes direction for a given graph. */
    const RowOffset *inOffsets() const
    {
        return symmetric_ ? out_offsets_.data() : in_offsets_.data();
    }
    /** A directed graph's in-neighbors, transposed on the first call
     *  on setupChunks() threads. */
    const VertexId *cachedInNeighbors() const;

    VertexId num_vertices_ = 0;
    bool symmetric_ = false;
    std::vector<RowOffset> out_offsets_;
    std::vector<VertexId> out_neighbors_;
    std::vector<std::int32_t> out_weights_;
    std::vector<RowOffset> in_offsets_;
    /** Directed graphs only; shared by copies, whose out-CSRs are the
     *  same bytes. */
    std::shared_ptr<LazyInNeighbors> in_neighbors_;
};

} // namespace omega

#endif // OMEGA_GRAPH_GRAPH_HH
