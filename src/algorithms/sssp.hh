/**
 * @file
 * Single-source shortest paths (Bellman-Ford style) on the framework.
 *
 * The paper's Fig-10 update: read the source's ShortestLen, add the edge
 * length, atomically min into the destination (and set its Visited tag).
 * The per-edge source read is the motivating case for the source-vertex
 * buffer (section V.C).
 */

#ifndef OMEGA_ALGORITHMS_SSSP_HH
#define OMEGA_ALGORITHMS_SSSP_HH

#include <cstdint>
#include <vector>

#include "framework/engine.hh"
#include "graph/graph.hh"
#include "sim/memory_system.hh"
#include "translate/update_fn.hh"

namespace omega {

/** Distance assigned to unreachable vertices. */
constexpr std::int32_t kSsspInfinity = 1 << 29;

/** SSSP output. */
struct SsspResult
{
    std::vector<std::int32_t> dist;
    std::uint64_t rounds = 0;
};

/** Annotated update function (signed min + visited bool, Fig 10/13). */
UpdateFn ssspUpdateFn();

/** Run SSSP from @p root over the graph's edge weights. */
SsspResult runSssp(const Graph &g, VertexId root,
                   MemorySystem *mach = nullptr, EngineOptions opts = {});

} // namespace omega

#endif // OMEGA_ALGORITHMS_SSSP_HH
