/**
 * @file
 * Edge-list to CSR conversion implementation.
 *
 * Construction is linear in vertices plus arcs. A stable two-pass
 * counting sort (least significant key first: destination, then source)
 * lays the out-CSR down with every row already sorted by destination.
 * A directed graph also gets its in-degrees, counted from the finished
 * out-CSR; its in-rows wait for their first read (Graph::inArcs). A
 * symmetric graph stores the out-CSR alone. Every row ends up ordered by
 * (neighbor, weight), with no comparison sort except inside runs of
 * parallel arcs.
 *
 * Every pass splits its input into contiguous chunks. A counting sort
 * stays stable when every chunk gets its own cursor per key, starting
 * where the earlier chunks' items of that key end; the chunks then count
 * and scatter on their own, and the arrays are the same bytes for any
 * chunk count.
 *
 * Pass 1 reads its input from an EdgeSource, twice per chunk, and
 * nothing else does. The order of a chunk's edges may differ between
 * the two reads and from the list's: pass 2 reorders each destination
 * bucket by source, and the parallel arcs of a row by weight, so a row
 * depends only on the multiset of arcs it receives.
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

} // namespace

Graph
buildGraph(VertexId num_vertices, EdgeList edges, const BuildOptions &opts)
{
    return buildGraph(num_vertices, EdgeListSource(std::move(edges)), opts);
}

Graph
buildGraph(VertexId num_vertices, EdgeList edges, const BuildOptions &opts,
           unsigned chunks)
{
    return buildGraph(num_vertices, EdgeListSource(std::move(edges)), opts,
                      chunks);
}

Graph
buildGraph(VertexId num_vertices, EdgeSource &&source,
           const BuildOptions &opts)
{
    const unsigned chunks = setupChunks(source.size());
    return buildGraph(num_vertices, std::move(source), opts, chunks);
}

Graph
buildGraph(VertexId num_vertices, EdgeSource &&source,
           const BuildOptions &opts, unsigned chunks)
{
    const VertexId n = num_vertices;
    const std::size_t m = source.size();
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
    auto read_chunk = [&source, m, chunks](std::size_t c,
                                           const EdgeSink &sink) {
        source.read(m * c / chunks, m * (c + 1) / chunks, sink);
    };

    // Pass 1 scatters by destination, the less significant key. The
    // result is an in-CSR whose rows hold each chunk's arcs in the order
    // its second read yields them.
    ChunkCursors cursors(chunks, n);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *count = cursors.zeroedRow(c);
        read_chunk(c, [&](std::span<const Edge> batch) {
            for (const Edge &e : batch) {
                omega_assert(e.src < n && e.dst < n,
                             "edge endpoint out of range");
                arcs_of(e, [count](VertexId, VertexId d, std::int32_t) {
                    ++count[d];
                });
            }
        });
    });
    std::vector<EdgeId> in_off(n + std::size_t(1));
    cursors.countsToCursors(in_off);
    const EdgeId arcs = in_off[n];
    auto by_dst = std::make_unique_for_overwrite<Arc[]>(arcs);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *cursor = cursors.row(c);
        read_chunk(c, [&](std::span<const Edge> batch) {
            for (const Edge &e : batch) {
                arcs_of(e, [&](VertexId s, VertexId d, std::int32_t w) {
                    by_dst[cursor[d]++] = Arc{s, w};
                });
            }
        });
    });
    source.release();

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

    if (opts.symmetrize) {
        // The arcs are closed under reversal, so in-rows equal out-rows
        // and the graph stores only the out-CSR.
        std::vector<EdgeId>().swap(in_off);
    } else {
        // The graph keeps in-degrees only; it transposes its out-CSR
        // into in-rows on their first read.
        transposedOffsets(
            n, out_off.data(), [&](EdgeId i) { return out_nbr[i]; },
            cursors, in_off);
    }

    return Graph(num_vertices, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), opts.symmetrize);
}

} // namespace omega
