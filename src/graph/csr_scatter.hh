/**
 * @file
 * The transpose scatter of Graph::renumbered, and the size from which
 * graph setup runs on every host core.
 *
 * A CSR direction is filled by scatter: each arc lands at its row's fill
 * cursor, so rows filled in neighbor order need no per-row sort.
 */

#ifndef OMEGA_GRAPH_CSR_SCATTER_HH
#define OMEGA_GRAPH_CSR_SCATTER_HH

#include <cstddef>

#include "graph/types.hh"
#include "util/thread_pool.hh"

namespace omega {

/**
 * Graph setup (R-MAT generation, CSR build, renumbering) splits its work
 * over ThreadPool::hardwareJobs() chunks from this many edges on; below
 * it, one chunk runs on the calling thread.
 */
inline constexpr std::size_t kParallelSetupEdges = std::size_t(1) << 19;

/** The chunk count graph setup uses for @p edges edges. */
inline unsigned
setupChunks(std::size_t edges)
{
    return edges >= kParallelSetupEdges ? ThreadPool::hardwareJobs() : 1u;
}

/**
 * Scatter the rows (off, nbr, w) into their transpose. Target ids k
 * ascend from 0 to n-1; row old_of(k) of the source is read, and each of
 * its arcs (x, weight) appends (k, weight) at cursors[x], the fill
 * cursor of x's target row. Since k ascends, every target row fills
 * sorted by neighbor, and a run of parallel arcs keeps the order it had
 * in its source row. Each cursor ends where its row ends.
 */
template <typename OldOf>
void
scatterTransposed(VertexId n, const EdgeId *off, const VertexId *nbr,
                  const std::int32_t *w, OldOf old_of, EdgeId *cursors,
                  VertexId *out_nbr, std::int32_t *out_w)
{
    for (VertexId k = 0; k < n; ++k) {
        const VertexId v = old_of(k);
        const EdgeId end = off[v + 1];
        for (EdgeId i = off[v]; i < end; ++i) {
            const EdgeId pos = cursors[nbr[i]]++;
            out_nbr[pos] = k;
            out_w[pos] = w[i];
        }
    }
}

} // namespace omega

#endif // OMEGA_GRAPH_CSR_SCATTER_HH
