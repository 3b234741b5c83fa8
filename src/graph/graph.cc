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

namespace {

constexpr std::uint32_t kSignBit = 0x80000000u;

/**
 * One arc of a row packed into a sort key: the neighbor above the
 * weight, its sign bit flipped so signed order is unsigned order.
 */
std::uint64_t
packArc(VertexId nbr, std::int32_t w)
{
    return (std::uint64_t(nbr) << 32) |
           (static_cast<std::uint32_t>(w) ^ kSignBit);
}

/**
 * Sort the @p d packed arcs at @p a ascending. Each row comes from a
 * row sorted by (neighbor, weight) with its neighbors renamed, so its
 * parallel arcs are still in weight order and a stable sort by
 * neighbor alone sorts the whole key. Short rows take an insertion
 * sort. Longer ones take a least-significant-digit radix sort over the
 * neighbor's low @p id_bits, one byte a pass, through @p tmp (d
 * entries): no comparisons, so no mispredicted branches.
 */
void
sortArcs(std::uint64_t *a, std::uint64_t *tmp, std::size_t d,
         unsigned id_bits)
{
    if (d <= 32) {
        for (std::size_t i = 1; i < d; ++i) {
            const std::uint64_t x = a[i];
            std::size_t j = i;
            for (; j != 0 && x < a[j - 1]; --j)
                a[j] = a[j - 1];
            a[j] = x;
        }
        return;
    }
    std::uint64_t *src = a;
    std::uint64_t *dst = tmp;
    for (unsigned shift = 32; shift < 32 + id_bits; shift += 8) {
        std::size_t pos[256] = {};
        for (std::size_t i = 0; i < d; ++i)
            ++pos[(src[i] >> shift) & 0xff];
        std::size_t sum = 0;
        for (std::size_t &p : pos)
            sum += std::exchange(p, sum);
        for (std::size_t i = 0; i < d; ++i)
            dst[pos[(src[i] >> shift) & 0xff]++] = src[i];
        std::swap(src, dst);
    }
    if (src != a)
        std::copy_n(src, d, a);
}

} // namespace

Graph::Graph(VertexId num_vertices,
             std::vector<EdgeId> out_offsets,
             std::vector<VertexId> out_neighbors,
             std::vector<std::int32_t> out_weights,
             std::vector<EdgeId> in_offsets,
             std::vector<VertexId> in_neighbors,
             bool symmetric)
    : num_vertices_(num_vertices),
      symmetric_(symmetric),
      out_offsets_(std::move(out_offsets)),
      out_neighbors_(std::move(out_neighbors)),
      out_weights_(std::move(out_weights)),
      in_offsets_(std::move(in_offsets)),
      in_neighbors_(std::move(in_neighbors))
{
    omega_assert(out_offsets_.size() == num_vertices_ + std::size_t(1),
                 "out offsets size mismatch");
    omega_assert(out_neighbors_.size() == out_weights_.size(),
                 "out weights size mismatch");
    if (symmetric_) {
        omega_assert(in_offsets_.empty() && in_neighbors_.empty(),
                     "a symmetric graph stores one CSR");
    } else {
        omega_assert(in_offsets_.size() == num_vertices_ + std::size_t(1),
                     "in offsets size mismatch");
    }
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
    auto in_range = [this](VertexId u) { return u < num_vertices_; };
    // One stored direction: sorted offsets that end at its arc count,
    // and every neighbor id in range.
    auto valid_csr = [&](const std::vector<EdgeId> &off,
                         const std::vector<VertexId> &nbr) {
        if (off.front() != 0 || off.back() != nbr.size())
            return false;
        for (VertexId v = 0; v < num_vertices_; ++v) {
            if (off[v] > off[v + 1])
                return false;
        }
        return std::all_of(nbr.begin(), nbr.end(), in_range);
    };
    if (!valid_csr(out_offsets_, out_neighbors_))
        return false;
    if (symmetric_)
        return true;
    // Arc-count consistency: sum of in-degrees equals sum of out-degrees.
    return valid_csr(in_offsets_, in_neighbors_) &&
           out_neighbors_.size() == in_neighbors_.size();
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

    // Gather one stored direction: new row k is old row order[k] with
    // its neighbors renamed, then sorted. Row ranges of about equal arc
    // counts fill concurrently, each into its own rows through its own
    // scratch of at most two rows. The in-CSR passes no weights.
    const unsigned id_bits = n > 1 ? std::bit_width(n - 1) : 0;
    auto gather = [&](const std::vector<EdgeId> &old_off,
                      const VertexId *old_nbr, const std::int32_t *old_w,
                      std::vector<EdgeId> &off, VertexId *nbr,
                      std::int32_t *w) {
        off.resize(n + std::size_t(1));
        off[0] = 0;
        for (VertexId k = 0; k < n; ++k)
            off[k + 1] = off[k] + old_off[order[k] + 1] - old_off[order[k]];
        const std::vector<VertexId> first = rowChunks(n, off.data(), jobs);
        parallelFor(jobs, jobs, [&](std::size_t c) {
            std::vector<std::uint64_t> row;
            std::vector<std::uint64_t> tmp;
            for (VertexId k = first[c]; k < first[c + 1]; ++k) {
                const EdgeId from = old_off[order[k]];
                const EdgeId to = off[k];
                const EdgeId deg = off[k + 1] - to;
                row.resize(deg);
                tmp.resize(deg);
                for (EdgeId i = 0; i < deg; ++i) {
                    row[i] = packArc(new_id[old_nbr[from + i]],
                                     old_w ? old_w[from + i] : 0);
                }
                sortArcs(row.data(), tmp.data(), deg, id_bits);
                for (EdgeId i = 0; i < deg; ++i) {
                    nbr[to + i] = static_cast<VertexId>(row[i] >> 32);
                    if (w) {
                        w[to + i] = static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(row[i]) ^ kSignBit);
                    }
                }
            }
        });
    };

    std::vector<EdgeId> out_off;
    std::vector<VertexId> out_nbr(out_neighbors_.size());
    std::vector<std::int32_t> out_w(out_weights_.size());
    gather(out_offsets_, out_neighbors_.data(), out_weights_.data(), out_off,
           out_nbr.data(), out_w.data());
    std::vector<EdgeId> in_off;
    std::vector<VertexId> in_nbr;
    if (!symmetric_) {
        in_nbr.resize(in_neighbors_.size());
        gather(in_offsets_, in_neighbors_.data(), nullptr, in_off,
               in_nbr.data(), nullptr);
    }

    return Graph(num_vertices_, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), std::move(in_nbr),
                 symmetric_);
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
