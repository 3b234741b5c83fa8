/**
 * @file
 * Edge-list to CSR conversion implementation.
 *
 * Construction is linear in arcs plus vertices, apart from the sort of
 * each row. A counting sort scatters every arc to its source's row, as
 * a packed (destination, weight) key; each row is then sorted by that
 * key (sortArcs, the kernel renumbering uses), deduplicated, and
 * unpacked into the final arrays, the weights at one byte each when
 * every kept weight fits one. A directed graph also gets its
 * in-degrees, counted from the finished out-CSR; its in-rows wait for
 * their first read (Graph::inArcs). A symmetric graph stores the
 * out-CSR alone.
 *
 * The scatter splits its input into contiguous chunks, each with its
 * own cursor per row, starting where the earlier chunks' arcs of that
 * row end; the chunks then count and scatter on their own. The sorts
 * run on row ranges of about equal work. A row's bytes depend only on
 * the multiset of arcs it receives, so the arrays are the same bytes
 * for any chunk count, and the EdgeSource, which the scatter reads
 * twice per chunk, may yield a chunk's edges in any order.
 */

#include "graph/builder.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <vector>

#include "graph/csr_scatter.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace omega {

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
                 "too many arcs for 32-bit row offsets");

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

    // Count each source's arcs, then scatter every arc to its source's
    // row as a packed (destination, weight) key: 8 B per arc, counted
    // before deduplication.
    std::vector<RowOffset> out_off(n + std::size_t(1));
    std::unique_ptr<std::uint64_t[]> keys;
    {
        ChunkCursors cursors(chunks, n);
        parallelFor(chunks, chunks, [&](std::size_t c) {
            std::uint32_t *count = cursors.zeroedRow(c);
            read_chunk(c, [&](std::span<const Edge> batch) {
                for (const Edge &e : batch) {
                    omega_assert(e.src < n && e.dst < n,
                                 "edge endpoint out of range");
                    arcs_of(e, [count](VertexId s, VertexId, std::int32_t) {
                        ++count[s];
                    });
                }
            });
        });
        cursors.countsToCursors(out_off);
        keys = std::make_unique_for_overwrite<std::uint64_t[]>(out_off[n]);
        parallelFor(chunks, chunks, [&](std::size_t c) {
            std::uint32_t *cursor = cursors.row(c);
            read_chunk(c, [&](std::span<const Edge> batch) {
                for (const Edge &e : batch) {
                    arcs_of(e, [&](VertexId s, VertexId d, std::int32_t w) {
                        keys[cursor[s]++] = packArc(d, w);
                    });
                }
            });
        });
    }
    source.release();

    // Sort each row by (destination, weight). The radix path of
    // sortArcs orders by destination alone and rows arrive in draw
    // order, so each run of parallel arcs is then sorted by weight;
    // deduplication keeps its first, lightest arc. Each row range
    // compacts in place to its own start and notes whether every weight
    // it keeps fits one byte.
    const unsigned id_bits = n > 1 ? std::bit_width(n - 1) : 0;
    const std::vector<VertexId> first = rowChunks(n, out_off.data(), chunks);
    std::vector<RowOffset> range_start(chunks);
    for (unsigned c = 0; c < chunks; ++c)
        range_start[c] = out_off[first[c]];
    std::vector<RowOffset> range_kept(chunks);
    std::vector<char> range_narrow(chunks);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::vector<std::uint64_t> tmp;
        bool narrow = true;
        RowOffset kept = range_start[c];
        RowOffset row_begin = range_start[c];
        for (VertexId s = first[c]; s < first[c + 1]; ++s) {
            const RowOffset row_end = out_off[s + 1];
            std::uint64_t *row = keys.get() + row_begin;
            const std::size_t deg = row_end - row_begin;
            if (tmp.size() < deg)
                tmp.resize(deg);
            sortArcs(row, tmp.data(), deg, id_bits);
            for (std::size_t i = 0; i < deg;) {
                std::size_t run_end = i + 1;
                while (run_end < deg &&
                       arcNeighbor(row[run_end]) == arcNeighbor(row[i]))
                    ++run_end;
                if (run_end - i > 1)
                    std::sort(row + i, row + run_end);
                const std::size_t keep_end =
                    opts.deduplicate ? i + 1 : run_end;
                for (; i < keep_end; ++i) {
                    narrow &= ArcWeights::fitsNarrow(arcWeight(row[i]));
                    keys[kept++] = row[i];
                }
                i = run_end;
            }
            row_begin = row_end;
            out_off[s + 1] = kept;
        }
        range_kept[c] = kept - range_start[c];
        range_narrow[c] = narrow;
    });

    // Unpack each range's kept arcs into the final arrays. The weights
    // take one byte each when every kept weight fits one, which does not
    // depend on how the rows were split into ranges.
    std::vector<RowOffset> range_dest(chunks + std::size_t(1), 0);
    for (unsigned c = 0; c < chunks; ++c)
        range_dest[c + 1] = range_dest[c] + range_kept[c];
    const RowOffset kept = range_dest[chunks];
    std::vector<VertexId> out_nbr(kept);
    ArcWeights out_w(kept, std::all_of(range_narrow.begin(),
                                       range_narrow.end(),
                                       [](char n) { return n != 0; }));
    parallelFor(chunks, chunks, [&](std::size_t c) {
        const std::uint64_t *from = keys.get() + range_start[c];
        for (RowOffset j = 0; j < range_kept[c]; ++j) {
            out_nbr[range_dest[c] + j] = arcNeighbor(from[j]);
            out_w.set(range_dest[c] + j, arcWeight(from[j]));
        }
        const RowOffset shift = range_start[c] - range_dest[c];
        for (VertexId s = first[c]; s < first[c + 1]; ++s)
            out_off[s + 1] -= shift;
    });
    keys.reset();

    // A symmetric graph's arcs are closed under reversal, so its in-rows
    // equal its out-rows and it stores only the out-CSR. A directed
    // graph keeps in-degrees only; it transposes its out-CSR into
    // in-rows on their first read.
    std::vector<RowOffset> in_off;
    if (!opts.symmetrize) {
        in_off.resize(n + std::size_t(1));
        ChunkCursors cursors(chunks, n);
        transposedOffsets(
            n, out_off.data(), [&](EdgeId i) { return out_nbr[i]; },
            cursors, in_off);
    }

    return Graph(num_vertices, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), opts.symmetrize);
}

} // namespace omega
