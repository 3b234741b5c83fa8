/**
 * @file
 * Connected components via label propagation.
 *
 * Every vertex starts with its own id as label; edgeMap atomically
 * min-propagates labels until a fixed point. On a symmetric graph the
 * result labels the connected components with the minimum member id.
 */

#ifndef OMEGA_ALGORITHMS_COMPONENTS_HH
#define OMEGA_ALGORITHMS_COMPONENTS_HH

#include <cstdint>
#include <vector>

#include "framework/engine.hh"
#include "graph/graph.hh"
#include "sim/memory_system.hh"
#include "translate/update_fn.hh"

namespace omega {

/** Connected-components output. */
struct CcResult
{
    /** Component label per vertex (minimum vertex id in the component). */
    std::vector<std::uint32_t> label;
    VertexId num_components = 0;
    std::uint64_t rounds = 0;
};

/** Annotated update function (signed min on the label). */
UpdateFn ccUpdateFn();

/** Run label-propagation components (expects a symmetric graph). */
CcResult runComponents(const Graph &g, MemorySystem *mach = nullptr,
                       EngineOptions opts = {});

} // namespace omega

#endif // OMEGA_ALGORITHMS_COMPONENTS_HH
