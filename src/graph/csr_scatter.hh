/**
 * @file
 * How graph setup splits its work: the size from which it runs on every
 * host core, and the row ranges of about equal arc counts that the CSR
 * build and Graph::renumbered hand to their workers.
 */

#ifndef OMEGA_GRAPH_CSR_SCATTER_HH
#define OMEGA_GRAPH_CSR_SCATTER_HH

#include <algorithm>
#include <cstddef>
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
 * The first row of each of @p chunks row ranges of about equal arc
 * counts in the CSR with offsets @p off, plus n at the end.
 */
inline std::vector<VertexId>
rowChunks(VertexId n, const EdgeId *off, unsigned chunks)
{
    std::vector<VertexId> first(chunks + std::size_t(1), n);
    for (unsigned c = 0; c < chunks; ++c) {
        const EdgeId target = off[n] * c / chunks;
        first[c] = static_cast<VertexId>(
            std::lower_bound(off, off + n, target) - off);
    }
    return first;
}

} // namespace omega

#endif // OMEGA_GRAPH_CSR_SCATTER_HH
