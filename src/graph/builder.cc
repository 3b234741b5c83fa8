/**
 * @file
 * Edge-list to CSR conversion implementation.
 *
 * Construction is linear in vertices plus arcs. A stable two-pass
 * counting sort (least significant key first: destination, then source)
 * lays the out-CSR down with every row already sorted by destination.
 * Scattering the finished out-CSR in ascending source order then gives
 * in-rows that are sorted too. Every row ends up ordered by (neighbor,
 * weight), with no comparison sort except inside runs of parallel arcs.
 */

#include "graph/builder.hh"

#include <algorithm>

#include "graph/csr_scatter.hh"
#include "util/logging.hh"

namespace omega {

Graph
buildGraph(VertexId num_vertices, EdgeList edges, const BuildOptions &opts)
{
    const VertexId n = num_vertices;
    for (const Edge &e : edges) {
        omega_assert(e.src < n && e.dst < n, "edge endpoint out of range");
    }

    // The arcs: every input edge, plus its mirror when symmetrizing,
    // minus self loops when removing them. They are enumerated twice and
    // never materialized as a list.
    auto for_each_arc = [&edges, &opts](auto &&arc) {
        for (const Edge &e : edges) {
            if (e.src == e.dst) {
                if (!opts.remove_self_loops)
                    arc(e.src, e.dst, e.weight);
                continue;
            }
            arc(e.src, e.dst, e.weight);
            if (opts.symmetrize)
                arc(e.dst, e.src, e.weight);
        }
    };

    std::vector<EdgeId> out_off(n + std::size_t(1), 0);
    std::vector<EdgeId> in_off(n + std::size_t(1), 0);
    for_each_arc([&](VertexId s, VertexId d, std::int32_t) {
        ++out_off[s + 1];
        ++in_off[d + 1];
    });
    countsToStarts(out_off);
    countsToStarts(in_off);
    const EdgeId arcs = in_off[n];

    // Pass 1 scatters by destination, the less significant key. The
    // result is an in-CSR whose rows keep input order.
    std::vector<VertexId> by_dst_src(arcs);
    std::vector<std::int32_t> by_dst_w(arcs);
    for_each_arc([&](VertexId s, VertexId d, std::int32_t w) {
        const EdgeId pos = in_off[d]++;
        by_dst_src[pos] = s;
        by_dst_w[pos] = w;
    });
    cursorsToOffsets(in_off);
    EdgeList().swap(edges);

    // Pass 2 scatters that by source, walking destinations in ascending
    // order, so every out-row comes out sorted by destination.
    auto identity = [](VertexId v) { return v; };
    std::vector<VertexId> out_nbr(arcs);
    std::vector<std::int32_t> out_w(arcs);
    scatterTransposed(n, in_off.data(), by_dst_src.data(), by_dst_w.data(),
                      identity, out_off.data(), out_nbr.data(),
                      out_w.data());
    cursorsToOffsets(out_off);
    std::vector<VertexId>().swap(by_dst_src);
    std::vector<std::int32_t>().swap(by_dst_w);

    // Order each run of parallel arcs by weight; deduplication keeps the
    // first, lightest arc of each run. Compacts in place.
    EdgeId kept = 0;
    EdgeId row_begin = 0;
    for (VertexId s = 0; s < n; ++s) {
        const EdgeId row_end = out_off[s + 1];
        for (EdgeId i = row_begin; i < row_end;) {
            EdgeId run_end = i + 1;
            while (run_end < row_end && out_nbr[run_end] == out_nbr[i])
                ++run_end;
            if (run_end - i > 1)
                std::sort(out_w.data() + i, out_w.data() + run_end);
            const EdgeId keep_end = opts.deduplicate ? i + 1 : run_end;
            for (; i < keep_end; ++i, ++kept) {
                out_nbr[kept] = out_nbr[i];
                out_w[kept] = out_w[i];
            }
            i = run_end;
        }
        row_begin = row_end;
        out_off[s + 1] = kept;
    }
    out_nbr.resize(kept);
    out_nbr.shrink_to_fit();
    out_w.resize(kept);
    out_w.shrink_to_fit();

    std::vector<VertexId> in_nbr;
    std::vector<std::int32_t> in_w;
    if (opts.symmetrize) {
        // The arcs are closed under reversal, so in-rows equal out-rows.
        in_off = out_off;
        in_nbr = out_nbr;
        in_w = out_w;
    } else {
        // Scattering in ascending source order sorts each in-row by
        // source; parallel arcs keep their weight order.
        std::fill(in_off.begin(), in_off.end(), 0);
        for (VertexId d : out_nbr)
            ++in_off[d + 1];
        countsToStarts(in_off);
        in_nbr.resize(kept);
        in_w.resize(kept);
        scatterTransposed(n, out_off.data(), out_nbr.data(), out_w.data(),
                          identity, in_off.data(), in_nbr.data(),
                          in_w.data());
        cursorsToOffsets(in_off);
    }

    return Graph(num_vertices, std::move(out_off), std::move(out_nbr),
                 std::move(out_w), std::move(in_off), std::move(in_nbr),
                 std::move(in_w), opts.symmetrize);
}

} // namespace omega
