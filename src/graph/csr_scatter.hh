/**
 * @file
 * How graph setup splits its work: the size from which it runs on every
 * host core, the row ranges that the CSR build, Graph::renumbered and
 * the in-arc transpose hand to their workers, and the chunked counting
 * sort that transposes a CSR.
 */

#ifndef OMEGA_GRAPH_CSR_SCATTER_HH
#define OMEGA_GRAPH_CSR_SCATTER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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
 * A row's fixed cost in graph setup, in arcs: its offset reads, its
 * random read of a source row and its sort setup. Four beat one and
 * eight in BM_Renumber on four workers.
 */
inline constexpr EdgeId kRowWork = 4;

/**
 * The first row of each of @p chunks row ranges of about equal work in
 * the CSR with offsets @p off, plus n at the end. A row's work is its
 * arcs plus kRowWork, so the work before row v is off[v] + kRowWork·v,
 * and a range of short rows gets fewer arcs than a range of hubs.
 */
inline std::vector<VertexId>
rowChunks(VertexId n, const EdgeId *off, unsigned chunks)
{
    auto work_before = [off](VertexId v) { return off[v] + kRowWork * v; };
    std::vector<VertexId> first(chunks + std::size_t(1), n);
    for (unsigned c = 0; c < chunks; ++c) {
        // The first row whose preceding work reaches the target.
        const EdgeId target = work_before(n) * c / chunks;
        VertexId lo = 0;
        VertexId hi = n;
        while (lo < hi) {
            const VertexId mid = lo + (hi - lo) / 2;
            if (work_before(mid) < target)
                lo = mid + 1;
            else
                hi = mid;
        }
        first[c] = lo;
    }
    return first;
}

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
 * The offsets of the transpose of the n rows of a CSR with offsets
 * @p off, into @p t_off (n + 1 entries): row ranges count their arcs
 * per target row, whose key is nbr_of(i), and @p cursors is left
 * holding every range's fill cursors for transpose's scatter.
 */
template <typename NbrOf>
void
transposedOffsets(VertexId n, const EdgeId *off, NbrOf nbr_of,
                  ChunkCursors &cursors, std::vector<EdgeId> &t_off)
{
    const unsigned chunks = cursors.chunks();
    const std::vector<VertexId> first = rowChunks(n, off, chunks);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *count = cursors.zeroedRow(c);
        for (EdgeId i = off[first[c]]; i < off[first[c + 1]]; ++i)
            ++count[nbr_of(i)];
    });
    cursors.countsToCursors(t_off);
}

/**
 * Transpose the n rows of a CSR with offsets @p off into @p t_off and the
 * slots put() fills. Row ranges count their arcs per target row, then
 * scatter them in ascending row order: put(pos, k, i) places arc i of
 * row k at position pos of its target row, whose key is nbr_of(i).
 * Target rows fill sorted by k, and arcs of one row and one target keep
 * their order.
 */
template <typename NbrOf, typename Put>
void
transpose(VertexId n, const EdgeId *off, NbrOf nbr_of, ChunkCursors &cursors,
          std::vector<EdgeId> &t_off, Put put)
{
    transposedOffsets(n, off, nbr_of, cursors, t_off);
    const unsigned chunks = cursors.chunks();
    const std::vector<VertexId> first = rowChunks(n, off, chunks);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        std::uint32_t *cursor = cursors.row(c);
        for (VertexId k = first[c]; k < first[c + 1]; ++k) {
            for (EdgeId i = off[k]; i < off[k + 1]; ++i)
                put(cursor[nbr_of(i)]++, k, i);
        }
    });
}

} // namespace omega

#endif // OMEGA_GRAPH_CSR_SCATTER_HH
