/**
 * @file
 * PageRank on the framework (paper Fig 2).
 *
 * Push-style scatter with an atomic floating-point add per edge: each
 * active thread reads its source vertex's current rank (a cache-resident
 * temporary, Fig 12) and accumulates the contribution into the
 * destination's `next_pagerank` vtxProp — the access pattern whose random
 * atomics motivate the whole OMEGA design.
 */

#ifndef OMEGA_ALGORITHMS_PAGERANK_HH
#define OMEGA_ALGORITHMS_PAGERANK_HH

#include <vector>

#include "framework/engine.hh"
#include "graph/graph.hh"
#include "sim/memory_system.hh"
#include "translate/update_fn.hh"

namespace omega {

/** PageRank output. */
struct PageRankResult
{
    std::vector<double> rank;
    std::uint64_t iterations = 0;
    /** L1 rank change of the last iteration (convergence measure). */
    double last_delta = 0.0;
};

/** The annotated update function (atomic fp add on next_pagerank). */
UpdateFn pageRankUpdateFn();

/**
 * Run PageRank.
 *
 * @param g graph.
 * @param mach machine to simulate on (null = functional only).
 * @param max_iters iteration cap (the paper simulates 1).
 * @param damping damping factor.
 * @param tolerance early-exit L1 threshold; 0 disables.
 * @param opts engine options.
 */
PageRankResult runPageRank(const Graph &g, MemorySystem *mach = nullptr,
                           unsigned max_iters = 1, double damping = 0.85,
                           double tolerance = 0.0, EngineOptions opts = {});

/**
 * Sliced PageRank (paper section VII): the graph is processed one
 * destination-range slice at a time, with the scratchpad monitor
 * registers re-targeted to each slice's window, so graphs whose hot set
 * exceeds the scratchpads still benefit. Functionally identical to
 * runPageRank; the per-slice passes add the slicing overhead the paper
 * discusses.
 *
 * @param g full graph.
 * @param mach machine (null = functional).
 * @param plan slice boundaries from planSlices().
 */
PageRankResult runPageRankSliced(const Graph &g, MemorySystem *mach,
                                 const struct SlicingPlan &plan,
                                 unsigned max_iters = 1,
                                 double damping = 0.85,
                                 EngineOptions opts = {});

/**
 * Pull-direction PageRank (the GraphMat-style alternative of paper
 * section IV): each destination's owner gathers over its in-edges with
 * NO atomic operations; the random accesses are the per-edge reads of
 * the sources' current ranks. Functionally identical to runPageRank.
 */
PageRankResult runPageRankPull(const Graph &g, MemorySystem *mach = nullptr,
                               unsigned max_iters = 1,
                               double damping = 0.85,
                               EngineOptions opts = {});

} // namespace omega

#endif // OMEGA_ALGORITHMS_PAGERANK_HH
