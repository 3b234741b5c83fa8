/**
 * @file
 * Edge-list to CSR conversion implementation.
 *
 * Construction is linear in vertices plus arcs. A stable two-pass
 * counting sort (least significant key first: destination, then source)
 * lays the out-CSR down with every row already sorted by destination.
 * For a directed graph, scattering the finished out-CSR in ascending
 * source order then gives in-rows that are sorted too; a symmetric graph
 * stores the out-CSR alone. Every row ends up ordered by (neighbor,
 * weight), with no comparison sort except inside runs of parallel arcs.
 *
 * Every pass splits its input into contiguous chunks. A counting sort
 * stays stable when every chunk gets its own cursor per key, starting
 * where the earlier chunks' items of that key end; the chunks then count
 * and scatter on their own, and the arrays are the same bytes for any
 * chunk count.
 */

#include "graph/builder.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "graph/csr_scatter.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace omega {

namespace {

/**
 * One arc of a row: its neighbor and weight side by side, so the two
 * scatters move one cache line per arc instead of two.
 */
struct Arc
{
    VertexId nbr;
    std::int32_t w;
};

/**
 * Per-(chunk, key) item counts over contiguous input chunks, turned into
 * per-chunk fill cursors. 32-bit, so one sort places fewer than 2^32
 * items.
 */
class ChunkCursors
{
  public:
    ChunkCursors(unsigned chunks, VertexId keys)
        : chunks_(chunks), keys_(keys),
          table_(std::make_unique_for_overwrite<std::uint32_t[]>(
              std::size_t(chunks) * keys))
    {
    }

    unsigned chunks() const { return chunks_; }

    /** Chunk @p c's counts or cursors, one per key. */
    std::uint32_t *row(unsigned c)
    {
        return table_.get() + std::size_t(c) * keys_;
    }

    /**
     * Chunk @p c's counts, zeroed. Called by the worker that counts the
     * chunk, so that worker touches the row first.
     */
    std::uint32_t *zeroedRow(unsigned c)
    {
        std::fill_n(row(c), keys_, 0u);
        return row(c);
    }

    /**
     * Turn the counts into cursors by an exclusive prefix sum in (key,
     * chunk) order, so chunk c's items of key k land after every earlier
     * chunk's. Key k's first position goes to starts[k], and the item
     * count to starts[keys]; @p starts must hold keys + 1 entries.
     */
    void countsToCursors(std::vector<EdgeId> &starts)
    {
        std::uint32_t next = 0;
        for (VertexId k = 0; k < keys_; ++k) {
            starts[k] = next;
            for (unsigned c = 0; c < chunks_; ++c) {
                const std::uint32_t count = row(c)[k];
                row(c)[k] = next;
                next += count;
            }
        }
        starts[keys_] = next;
    }

  private:
    unsigned chunks_;
    VertexId keys_;
    std::unique_ptr<std::uint32_t[]> table_;
};

/**
 * Transpose the n rows of a CSR with offsets @p off into @p t_off and the
 * slots put() fills. Row ranges of about equal arc counts count their
 * arcs per target row, then scatter them in ascending row order:
 * put(pos, k, i) places arc i of row k at position pos of its target
 * row, whose key is nbr_of(i). Target rows fill sorted by k, and arcs
 * of one row and one target keep their order.
 */
template <typename NbrOf, typename Put>
void
transpose(VertexId n, const EdgeId *off, NbrOf nbr_of, ChunkCursors &cursors,
          std::vector<EdgeId> &t_off, Put put)
{
    const unsigned chunks = cursors.chunks();
    const std::vector<VertexId> first = rowChunks(n, off, chunks);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *count = cursors.zeroedRow(c);
        for (EdgeId i = off[first[c]]; i < off[first[c + 1]]; ++i)
            ++count[nbr_of(i)];
    });
    cursors.countsToCursors(t_off);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *cursor = cursors.row(c);
        for (VertexId k = first[c]; k < first[c + 1]; ++k) {
            for (EdgeId i = off[k]; i < off[k + 1]; ++i)
                put(cursor[nbr_of(i)]++, k, i);
        }
    });
}

} // namespace

Graph
buildGraph(VertexId num_vertices, EdgeList edges, const BuildOptions &opts)
{
    const unsigned chunks = setupChunks(edges.size());
    return buildGraph(num_vertices, std::move(edges), opts, chunks);
}

Graph
buildGraph(VertexId num_vertices, EdgeList edges, const BuildOptions &opts,
           unsigned chunks)
{
    const VertexId n = num_vertices;
    const std::size_t m = edges.size();
    omega_assert(chunks > 0, "buildGraph needs at least one chunk");
    omega_assert(m <= std::numeric_limits<std::uint32_t>::max() /
                          (opts.symmetrize ? 2 : 1),
                 "too many arcs for 32-bit sort cursors");

    // The arcs of one edge: the edge, plus its mirror when symmetrizing,
    // minus self loops when removing them. They are enumerated twice and
    // never materialized as a list.
    auto arcs_of = [&opts](const Edge &e, auto &&arc) {
        if (e.src == e.dst) {
            if (!opts.remove_self_loops)
                arc(e.src, e.dst, e.weight);
            return;
        }
        arc(e.src, e.dst, e.weight);
        if (opts.symmetrize)
            arc(e.dst, e.src, e.weight);
    };
    auto edge_chunk = [m, chunks](std::size_t c) {
        return std::pair{m * c / chunks, m * (c + 1) / chunks};
    };

    // Pass 1 scatters by destination, the less significant key, in edge
    // order. The result is an in-CSR whose rows keep input order.
    ChunkCursors cursors(chunks, n);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *count = cursors.zeroedRow(c);
        const auto [lo, hi] = edge_chunk(c);
        for (std::size_t i = lo; i < hi; ++i) {
            const Edge &e = edges[i];
            omega_assert(e.src < n && e.dst < n,
                         "edge endpoint out of range");
            arcs_of(e, [count](VertexId, VertexId d, std::int32_t) {
                ++count[d];
            });
        }
    });
    std::vector<EdgeId> in_off(n + std::size_t(1));
    cursors.countsToCursors(in_off);
    const EdgeId arcs = in_off[n];
    auto by_dst = std::make_unique_for_overwrite<Arc[]>(arcs);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *cursor = cursors.row(c);
        const auto [lo, hi] = edge_chunk(c);
        for (std::size_t i = lo; i < hi; ++i) {
            arcs_of(edges[i], [&](VertexId s, VertexId d, std::int32_t w) {
                by_dst[cursor[d]++] = Arc{s, w};
            });
        }
    });
    EdgeList().swap(edges);

    // Pass 2 scatters that by source, walking destinations in ascending
    // order, so every out-row comes out sorted by destination.
    std::vector<EdgeId> out_off(n + std::size_t(1));
    auto by_src = std::make_unique_for_overwrite<Arc[]>(arcs);
    transpose(
        n, in_off.data(), [&](EdgeId i) { return by_dst[i].nbr; }, cursors,
        out_off, [&](EdgeId pos, VertexId d, EdgeId i) {
            by_src[pos] = Arc{d, by_dst[i].w};
        });
    by_dst.reset();

    // Order each run of parallel arcs by weight; deduplication keeps the
    // first, lightest arc of each run. Each row range compacts in place
    // to its own start, then copies out to its final place.
    const std::vector<VertexId> first = rowChunks(n, out_off.data(), chunks);
    std::vector<EdgeId> range_start(chunks);
    for (unsigned c = 0; c < chunks; ++c)
        range_start[c] = out_off[first[c]];
    std::vector<EdgeId> range_kept(chunks);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        EdgeId kept = range_start[c];
        EdgeId row_begin = range_start[c];
        for (VertexId s = first[c]; s < first[c + 1]; ++s) {
            const EdgeId row_end = out_off[s + 1];
            for (EdgeId i = row_begin; i < row_end;) {
                EdgeId run_end = i + 1;
                while (run_end < row_end &&
                       by_src[run_end].nbr == by_src[i].nbr)
                    ++run_end;
                if (run_end - i > 1) {
                    std::sort(by_src.get() + i, by_src.get() + run_end,
                              [](const Arc &x, const Arc &y) {
                                  return x.w < y.w;
                              });
                }
                const EdgeId keep_end = opts.deduplicate ? i + 1 : run_end;
                for (; i < keep_end; ++i, ++kept)
                    by_src[kept] = by_src[i];
                i = run_end;
            }
            row_begin = row_end;
            out_off[s + 1] = kept;
        }
        range_kept[c] = kept - range_start[c];
    });
    std::vector<EdgeId> range_dest(chunks + std::size_t(1), 0);
    for (unsigned c = 0; c < chunks; ++c)
        range_dest[c + 1] = range_dest[c] + range_kept[c];
    const EdgeId kept = range_dest[chunks];
    std::vector<VertexId> out_nbr(kept);
    std::vector<std::int32_t> out_w(kept);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        const EdgeId shift = range_start[c] - range_dest[c];
        for (EdgeId j = 0; j < range_kept[c]; ++j) {
            out_nbr[range_dest[c] + j] = by_src[range_start[c] + j].nbr;
            out_w[range_dest[c] + j] = by_src[range_start[c] + j].w;
        }
        for (VertexId s = first[c]; s < first[c + 1]; ++s)
            out_off[s + 1] -= shift;
    });
    by_src.reset();

    std::vector<VertexId> in_nbr;
    if (opts.symmetrize) {
        // The arcs are closed under reversal, so in-rows equal out-rows
        // and the graph stores only the out-CSR.
        std::vector<EdgeId>().swap(in_off);
    } else {
        // Scattering in ascending source order sorts each in-row by
        // source. The in-CSR keeps no weights.
        in_nbr.resize(kept);
        transpose(
            n, out_off.data(), [&](EdgeId i) { return out_nbr[i]; },
            cursors, in_off,
            [&](EdgeId pos, VertexId s, EdgeId) { in_nbr[pos] = s; });
    }

    return Graph(num_vertices, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), std::move(in_nbr),
                 opts.symmetrize);
}

} // namespace omega
