/**
 * @file
 * How graph setup splits its work and orders its rows: the size from
 * which it runs on every host core, the row ranges that the CSR build,
 * Graph::renumbered and the in-arc transpose hand to their workers, the
 * chunked counting sort that scatters arcs by row and transposes a CSR,
 * and the per-row sort of packed arcs that the build and renumbering
 * share.
 */

#ifndef OMEGA_GRAPH_CSR_SCATTER_HH
#define OMEGA_GRAPH_CSR_SCATTER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
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
rowChunks(VertexId n, const RowOffset *off, unsigned chunks)
{
    auto work_before = [off](VertexId v) {
        return EdgeId(off[v]) + kRowWork * v;
    };
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
    void countsToCursors(std::vector<RowOffset> &starts)
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
transposedOffsets(VertexId n, const RowOffset *off, NbrOf nbr_of,
                  ChunkCursors &cursors, std::vector<RowOffset> &t_off)
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
transpose(VertexId n, const RowOffset *off, NbrOf nbr_of,
          ChunkCursors &cursors, std::vector<RowOffset> &t_off, Put put)
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

/** The sign bit of an arc weight, flipped in a packed arc. */
inline constexpr std::uint32_t kWeightSignBit = 0x80000000u;

/**
 * One arc of a row packed into a sort key: the neighbor above the
 * weight, its sign bit flipped so signed order is unsigned order.
 * Packed arcs sort by (neighbor, weight).
 */
inline std::uint64_t
packArc(VertexId nbr, std::int32_t w)
{
    return (std::uint64_t(nbr) << 32) |
           (static_cast<std::uint32_t>(w) ^ kWeightSignBit);
}

/** The neighbor of packed arc @p key. */
inline VertexId
arcNeighbor(std::uint64_t key)
{
    return static_cast<VertexId>(key >> 32);
}

/** The weight of packed arc @p key. */
inline std::int32_t
arcWeight(std::uint64_t key)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(key) ^
                                     kWeightSignBit);
}

/**
 * Sort the @p d packed arcs at @p a by neighbor, stably. Short rows take
 * an insertion sort over the whole key, which orders parallel arcs by
 * weight too. Longer ones take a least-significant-digit radix sort over
 * the neighbor's low @p id_bits, one byte a pass, through @p tmp (d
 * entries): no comparisons, so no mispredicted branches, but parallel
 * arcs keep the order they came in. Renumbering's rows come from rows
 * sorted by (neighbor, weight), so that order is already the weight
 * order there; the build sorts each run of parallel arcs afterwards.
 */
inline void
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

} // namespace omega

#endif // OMEGA_GRAPH_CSR_SCATTER_HH
