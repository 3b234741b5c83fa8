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

#include <cstddef>
#include <cstdint>
#include <iterator>
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
 * The weights of one out-row, read as int32_t whatever width the graph
 * stores them at. Exactly one of its pointers is set unless the row is
 * empty.
 */
class WeightRow
{
  public:
    class iterator;

    WeightRow() = default;
    WeightRow(const std::int8_t *narrow, const std::int32_t *wide,
              std::size_t size)
        : narrow_(narrow), wide_(wide), size_(size)
    {
    }

    std::int32_t operator[](std::size_t i) const
    {
        return narrow_ ? narrow_[i] : wide_[i];
    }
    std::size_t size() const { return size_; }
    iterator begin() const;
    iterator end() const;

  private:
    const std::int8_t *narrow_ = nullptr;
    const std::int32_t *wide_ = nullptr;
    std::size_t size_ = 0;
};

/** Walks the row's weights in order. */
class WeightRow::iterator
{
  public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = std::int32_t;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const WeightRow &row, std::size_t i) : row_(row), i_(i) {}

    std::int32_t operator*() const { return row_[i_]; }
    iterator &operator++()
    {
        ++i_;
        return *this;
    }
    iterator operator++(int)
    {
        iterator was = *this;
        ++i_;
        return was;
    }
    bool operator==(const iterator &o) const { return i_ == o.i_; }

  private:
    WeightRow row_;
    std::size_t i_ = 0;
};

inline WeightRow::iterator
WeightRow::begin() const
{
    return {*this, 0};
}

inline WeightRow::iterator
WeightRow::end() const
{
    return {*this, size_};
}

/**
 * A graph's out-weights, one per arc: one byte each when every weight
 * fits an int8_t (narrow), four otherwise (wide). The width is the
 * caller's to choose from the weights (buildGraph) or to inherit from a
 * store of the same weights (Graph::renumbered); nothing else sets it.
 */
class ArcWeights
{
  public:
    /** True if @p w fits the one-byte store. */
    static constexpr bool fitsNarrow(std::int32_t w)
    {
        return w >= INT8_MIN && w <= INT8_MAX;
    }

    ArcWeights() = default;
    /** @p arcs zero weights, narrow or wide. */
    ArcWeights(std::size_t arcs, bool narrow) : narrow_(narrow)
    {
        if (narrow_)
            bytes_.resize(arcs);
        else
            words_.resize(arcs);
    }

    bool narrow() const { return narrow_; }
    /** Bytes each weight takes: 1 narrow, 4 wide. */
    unsigned bytesPerWeight() const { return narrow_ ? 1 : 4; }
    std::size_t size() const
    {
        return narrow_ ? bytes_.size() : words_.size();
    }

    std::int32_t operator[](std::size_t i) const
    {
        return narrow_ ? bytes_[i] : words_[i];
    }
    /** Store @p w at arc @p i; a narrow store needs fitsNarrow(w). */
    void set(std::size_t i, std::int32_t w)
    {
        if (narrow_)
            bytes_[i] = static_cast<std::int8_t>(w);
        else
            words_[i] = w;
    }
    /** The weights of arcs [begin, end). */
    WeightRow row(std::size_t begin, std::size_t end) const
    {
        if (narrow_)
            return {bytes_.data() + begin, nullptr, end - begin};
        return {nullptr, words_.data() + begin, end - begin};
    }

  private:
    bool narrow_ = true;
    std::vector<std::int8_t> bytes_;
    std::vector<std::int32_t> words_;
};

/**
 * Immutable CSR graph.
 *
 * Each direction stores only what is read. The out-CSR keeps offsets,
 * neighbors and weights: the push phase of edgeMap hands every arc's
 * weight to the update. The weights take one byte each when every
 * weight of the graph fits an int8_t, as the datasets' small integer
 * weights do, and four otherwise (ArcWeights); outWeights() reads
 * int32_t either way. A directed graph keeps its in-offsets, which
 * give every in-degree, and builds its in-neighbors (no weights: the
 * pull phase reads none) on the first inArcs() or inNeighbors() call by
 * transposing the out-CSR; copies share that build. With one-byte
 * weights it holds 5 bytes per arc plus two offset arrays until then,
 * 9 after. A symmetric (undirected) graph's in-rows equal its out-rows,
 * so it stores the out-CSR once (5 bytes per arc plus one offset array)
 * and the in-accessors read the out arrays. Four-byte weights add 3
 * bytes per arc. Offsets are stored as 32-bit RowOffsets, 4 bytes per
 * vertex and array, and returned as EdgeIds.
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
     * @param out_weights weight per outgoing edge (same order), at the
     *        width its builder chose.
     * @param in_offsets CSR row offsets for incoming edges, size V+1
     *        (the in-degrees of the out-CSR's arcs); empty when
     *        @p symmetric.
     * @param symmetric true if the graph is undirected (in == out).
     */
    Graph(VertexId num_vertices,
          std::vector<RowOffset> out_offsets,
          std::vector<VertexId> out_neighbors,
          ArcWeights out_weights,
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
    WeightRow outWeights(VertexId v) const
    {
        return out_weights_.row(out_offsets_[v], out_offsets_[v + 1]);
    }
    /** Bytes each stored out-weight takes: 1 when every weight fits an
     *  int8_t, else 4. */
    unsigned weightBytes() const { return out_weights_.bytesPerWeight(); }

    /** Global edge index of the first outgoing edge of @p v. */
    EdgeId outEdgeBase(VertexId v) const { return out_offsets_[v]; }
    /** Global edge index of the first incoming edge of @p v. */
    EdgeId inEdgeBase(VertexId v) const { return inOffsets()[v]; }

    /**
     * True if the CSR invariants hold: sorted offsets, ids in range, a
     * weight per arc, and four-byte weights only when some weight needs
     * them.
     */
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
    ArcWeights out_weights_;
    std::vector<RowOffset> in_offsets_;
    /** Directed graphs only; shared by copies, whose out-CSRs are the
     *  same bytes. */
    std::shared_ptr<LazyInNeighbors> in_neighbors_;
};

} // namespace omega

#endif // OMEGA_GRAPH_GRAPH_HH
