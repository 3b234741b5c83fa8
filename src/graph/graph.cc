/**
 * @file
 * CSR graph implementation.
 */

#include "graph/graph.hh"

#include <algorithm>

#include "graph/csr_scatter.hh"
#include "util/logging.hh"

namespace omega {

Graph::Graph(VertexId num_vertices,
             std::vector<EdgeId> out_offsets,
             std::vector<VertexId> out_neighbors,
             std::vector<std::int32_t> out_weights,
             std::vector<EdgeId> in_offsets,
             std::vector<VertexId> in_neighbors,
             std::vector<std::int32_t> in_weights,
             bool symmetric)
    : num_vertices_(num_vertices),
      symmetric_(symmetric),
      out_offsets_(std::move(out_offsets)),
      out_neighbors_(std::move(out_neighbors)),
      out_weights_(std::move(out_weights)),
      in_offsets_(std::move(in_offsets)),
      in_neighbors_(std::move(in_neighbors)),
      in_weights_(std::move(in_weights))
{
    omega_assert(out_offsets_.size() == num_vertices_ + std::size_t(1),
                 "out offsets size mismatch");
    omega_assert(in_offsets_.size() == num_vertices_ + std::size_t(1),
                 "in offsets size mismatch");
    omega_assert(out_neighbors_.size() == out_weights_.size(),
                 "out weights size mismatch");
    omega_assert(in_neighbors_.size() == in_weights_.size(),
                 "in weights size mismatch");
}

bool
Graph::validate() const
{
    if (out_offsets_.empty() || in_offsets_.empty())
        return num_vertices_ == 0;
    if (out_offsets_.front() != 0 || in_offsets_.front() != 0)
        return false;
    if (out_offsets_.back() != out_neighbors_.size())
        return false;
    if (in_offsets_.back() != in_neighbors_.size())
        return false;
    for (VertexId v = 0; v < num_vertices_; ++v) {
        if (out_offsets_[v] > out_offsets_[v + 1])
            return false;
        if (in_offsets_[v] > in_offsets_[v + 1])
            return false;
    }
    auto in_range = [this](VertexId u) { return u < num_vertices_; };
    if (!std::all_of(out_neighbors_.begin(), out_neighbors_.end(), in_range))
        return false;
    if (!std::all_of(in_neighbors_.begin(), in_neighbors_.end(), in_range))
        return false;
    // Arc-count consistency: sum of in-degrees equals sum of out-degrees.
    if (out_neighbors_.size() != in_neighbors_.size())
        return false;
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
    const VertexId n = num_vertices_;
    omega_assert(order.size() == n, "ordering size mismatch");

    // Each new row's start, indexed by the vertex's old id, is its fill
    // cursor.
    std::vector<EdgeId> out_off(n + std::size_t(1));
    std::vector<EdgeId> in_off(n + std::size_t(1));
    std::vector<bool> seen(n, false);
    EdgeId out_pos = 0;
    EdgeId in_pos = 0;
    for (VertexId k = 0; k < n; ++k) {
        const VertexId v = order[k];
        omega_assert(v < n && !seen[v], "ordering is not a permutation");
        seen[v] = true;
        out_off[v] = out_pos;
        in_off[v] = in_pos;
        out_pos += outDegree(v);
        in_pos += inDegree(v);
    }

    // Each direction is the transpose of the other. Walking the new ids
    // in ascending order through the opposite direction's rows fills
    // every row sorted by neighbor, with parallel arcs in the weight
    // order their source row kept, so no row needs sorting afterwards.
    std::vector<VertexId> out_nbr(out_neighbors_.size());
    std::vector<std::int32_t> out_w(out_weights_.size());
    std::vector<VertexId> in_nbr(in_neighbors_.size());
    std::vector<std::int32_t> in_w(in_weights_.size());
    auto old_id = [&order](VertexId k) { return order[k]; };
    scatterTransposed(n, in_offsets_.data(), in_neighbors_.data(),
                      in_weights_.data(), old_id, out_off.data(),
                      out_nbr.data(), out_w.data());
    scatterTransposed(n, out_offsets_.data(), out_neighbors_.data(),
                      out_weights_.data(), old_id, in_off.data(),
                      in_nbr.data(), in_w.data());

    // The cursors are spent; lay the offsets down in new-id order.
    out_off[0] = 0;
    in_off[0] = 0;
    for (VertexId k = 0; k < n; ++k) {
        out_off[k + 1] = out_off[k] + outDegree(order[k]);
        in_off[k + 1] = in_off[k] + inDegree(order[k]);
    }

    return Graph(num_vertices_, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), std::move(in_nbr),
                 std::move(in_w), symmetric_);
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
