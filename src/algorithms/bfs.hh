/**
 * @file
 * Breadth-first search on the framework.
 *
 * Ligra-style frontier BFS: the update tests the destination's parent
 * first (a random read) and only then performs the compare-and-set, which
 * is why Table II classifies BFS as high-random-access but low-atomic.
 */

#ifndef OMEGA_ALGORITHMS_BFS_HH
#define OMEGA_ALGORITHMS_BFS_HH

#include <cstdint>
#include <vector>

#include "framework/engine.hh"
#include "graph/graph.hh"
#include "sim/memory_system.hh"
#include "translate/update_fn.hh"

namespace omega {

/** BFS output. */
struct BfsResult
{
    /** Parent per vertex; -1 if unreached; parent[root] == root. */
    std::vector<std::int32_t> parent;
    std::uint64_t rounds = 0;
    /** Vertices reached (including the root). */
    VertexId reached = 0;
};

/** Annotated update function (unsigned compare-and-set on parent). */
UpdateFn bfsUpdateFn();

/** Run BFS from @p root. */
BfsResult runBfs(const Graph &g, VertexId root,
                 MemorySystem *mach = nullptr, EngineOptions opts = {});

} // namespace omega

#endif // OMEGA_ALGORITHMS_BFS_HH
