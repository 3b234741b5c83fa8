/**
 * @file
 * Counting-sort building blocks shared by buildGraph and
 * Graph::renumbered.
 *
 * A CSR direction is filled by scatter: per-row counts become row starts
 * and the starts serve as fill cursors, so no separate cursor array is
 * needed. Rows filled in neighbor order need no per-row sort.
 */

#ifndef OMEGA_GRAPH_CSR_SCATTER_HH
#define OMEGA_GRAPH_CSR_SCATTER_HH

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/types.hh"

namespace omega {

/** Turn per-row counts held at offsets[v + 1] into row starts. */
inline void
countsToStarts(std::vector<EdgeId> &offsets)
{
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
}

/**
 * After a scatter that used offsets[v] as row v's fill cursor, offsets[v]
 * holds where row v ends. Shift the array back into CSR offsets.
 */
inline void
cursorsToOffsets(std::vector<EdgeId> &offsets)
{
    std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
    offsets.front() = 0;
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
