/**
 * @file
 * CSR graph implementation.
 */

#include "graph/graph.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "graph/csr_scatter.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace omega {

Graph::Graph(VertexId num_vertices,
             std::vector<RowOffset> out_offsets,
             std::vector<VertexId> out_neighbors,
             ArcWeights out_weights,
             std::vector<RowOffset> in_offsets,
             bool symmetric)
    : num_vertices_(num_vertices),
      symmetric_(symmetric),
      out_offsets_(std::move(out_offsets)),
      out_neighbors_(std::move(out_neighbors)),
      out_weights_(std::move(out_weights)),
      in_offsets_(std::move(in_offsets))
{
    omega_assert(out_offsets_.size() == num_vertices_ + std::size_t(1),
                 "out offsets size mismatch");
    omega_assert(out_neighbors_.size() == out_weights_.size(),
                 "out weights size mismatch");
    if (symmetric_) {
        omega_assert(in_offsets_.empty(), "a symmetric graph stores one CSR");
    } else {
        omega_assert(in_offsets_.size() == num_vertices_ + std::size_t(1),
                     "in offsets size mismatch");
        in_neighbors_ = std::make_shared<LazyInNeighbors>();
    }
}

std::vector<VertexId>
Graph::transposedInNeighbors(unsigned jobs) const
{
    omega_assert(!symmetric_, "a symmetric graph's in-rows are its out-rows");
    // Scattering the out-CSR in ascending source order sorts every
    // in-row by source, with parallel arcs side by side.
    const VertexId n = num_vertices_;
    ChunkCursors cursors(jobs, n);
    std::vector<RowOffset> off(n + std::size_t(1));
    std::vector<VertexId> nbr(numArcs());
    transpose(
        n, out_offsets_.data(),
        [this](EdgeId i) { return out_neighbors_[i]; }, cursors, off,
        [&nbr](EdgeId pos, VertexId s, EdgeId) { nbr[pos] = s; });
    omega_assert(off == in_offsets_, "in-offsets disagree with the out-CSR");
    return nbr;
}

const VertexId *
Graph::cachedInNeighbors() const
{
    if (!in_neighbors_)
        return nullptr; // a default-constructed graph: no rows
    std::call_once(in_neighbors_->built, [this] {
        in_neighbors_->nbr = transposedInNeighbors(setupChunks(numArcs()));
    });
    return in_neighbors_->nbr.data();
}

bool
Graph::validate() const
{
    if (out_offsets_.empty())
        return num_vertices_ == 0;
    if (out_offsets_.size() != num_vertices_ + std::size_t(1))
        return false;
    if (!symmetric_ && in_offsets_.size() != num_vertices_ + std::size_t(1))
        return false;
    // The out-CSR: sorted offsets that end at its arc count, and every
    // neighbor id in range.
    if (out_offsets_.front() != 0 ||
        out_offsets_.back() != out_neighbors_.size())
        return false;
    for (VertexId v = 0; v < num_vertices_; ++v) {
        if (out_offsets_[v] > out_offsets_[v + 1])
            return false;
    }
    if (!std::all_of(out_neighbors_.begin(), out_neighbors_.end(),
                     [this](VertexId u) { return u < num_vertices_; }))
        return false;
    // One weight per arc, four bytes wide only when one needs it.
    if (out_weights_.size() != out_neighbors_.size())
        return false;
    const WeightRow weights = out_weights_.row(0, out_weights_.size());
    if (!out_weights_.narrow() &&
        std::all_of(weights.begin(), weights.end(), ArcWeights::fitsNarrow))
        return false;
    if (symmetric_)
        return true;
    // The in-offsets: every in-degree is the number of arcs into its
    // vertex, so the in-rows transposed from the out-CSR fit them.
    std::vector<EdgeId> into(num_vertices_, 0);
    for (VertexId u : out_neighbors_)
        ++into[u];
    if (in_offsets_.front() != 0)
        return false;
    for (VertexId v = 0; v < num_vertices_; ++v) {
        if (in_offsets_[v + 1] - in_offsets_[v] != into[v])
            return false;
    }
    return true;
}

Graph
Graph::permuted(const std::vector<VertexId> &perm) const
{
    omega_assert(perm.size() == num_vertices_, "permutation size mismatch");
    // Slots no entry names keep an out-of-range id, which renumbered()
    // rejects.
    std::vector<VertexId> order(num_vertices_, num_vertices_);
    for (VertexId v = 0; v < num_vertices_; ++v) {
        omega_assert(perm[v] < num_vertices_, "permutation entry too large");
        order[perm[v]] = v;
    }
    return renumbered(order);
}

Graph
Graph::renumbered(const std::vector<VertexId> &order) const
{
    return renumbered(order, setupChunks(numArcs()));
}

Graph
Graph::renumbered(const std::vector<VertexId> &order, unsigned jobs) const
{
    const VertexId n = num_vertices_;
    omega_assert(order.size() == n, "ordering size mismatch");

    // The new id of every old vertex; n marks one not named yet.
    std::vector<VertexId> new_id(n, n);
    for (VertexId k = 0; k < n; ++k) {
        const VertexId v = order[k];
        omega_assert(v < n && new_id[v] == n,
                     "ordering is not a permutation");
        new_id[v] = k;
    }

    // New out-row k is old out-row order[k] with its neighbors renamed,
    // then sorted. Row ranges of about equal work fill concurrently,
    // each into its own rows through its own scratch of at most two rows.
    std::vector<RowOffset> out_off(n + std::size_t(1));
    for (VertexId k = 0; k < n; ++k)
        out_off[k + 1] = out_off[k] + outDegree(order[k]);
    std::vector<VertexId> out_nbr(out_neighbors_.size());
    ArcWeights out_w(out_weights_.size(), out_weights_.narrow());
    const unsigned id_bits = n > 1 ? std::bit_width(n - 1) : 0;
    const std::vector<VertexId> first = rowChunks(n, out_off.data(), jobs);
    parallelFor(jobs, jobs, [&](std::size_t c) {
        std::vector<std::uint64_t> row;
        std::vector<std::uint64_t> tmp;
        for (VertexId k = first[c]; k < first[c + 1]; ++k) {
            const EdgeId from = out_offsets_[order[k]];
            const EdgeId to = out_off[k];
            const EdgeId deg = out_off[k + 1] - to;
            row.resize(deg);
            tmp.resize(deg);
            for (EdgeId i = 0; i < deg; ++i) {
                row[i] = packArc(new_id[out_neighbors_[from + i]],
                                 out_weights_[from + i]);
            }
            sortArcs(row.data(), tmp.data(), deg, id_bits);
            for (EdgeId i = 0; i < deg; ++i) {
                out_nbr[to + i] = arcNeighbor(row[i]);
                out_w.set(to + i, arcWeight(row[i]));
            }
        }
    });

    // New in-degree k is old in-degree order[k]. The in-rows are the
    // transpose of the new out-CSR, built on their first read.
    std::vector<RowOffset> in_off;
    if (!symmetric_) {
        in_off.resize(n + std::size_t(1));
        for (VertexId k = 0; k < n; ++k)
            in_off[k + 1] = in_off[k] + inDegree(order[k]);
    }

    return Graph(num_vertices_, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), symmetric_);
}

EdgeList
Graph::toEdgeList() const
{
    EdgeList edges;
    edges.reserve(out_neighbors_.size());
    for (VertexId v = 0; v < num_vertices_; ++v) {
        auto nbrs = outNeighbors(v);
        auto ws = outWeights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            edges.push_back(Edge{v, nbrs[i], ws[i]});
    }
    return edges;
}

} // namespace omega
