/**
 * @file
 * Edge-list to CSR conversion.
 */

#ifndef OMEGA_GRAPH_BUILDER_HH
#define OMEGA_GRAPH_BUILDER_HH

#include "graph/graph.hh"
#include "graph/types.hh"

namespace omega {

/** Options controlling CSR construction. */
struct BuildOptions
{
    /** Drop u->u arcs. */
    bool remove_self_loops = true;
    /** Collapse duplicate arcs (keeping the smallest weight). */
    bool deduplicate = true;
    /** Add the reverse of every arc and mark the graph symmetric. */
    bool symmetrize = false;
};

/**
 * Build a CSR Graph from an arc list.
 *
 * @param num_vertices vertex-id space size; all edge endpoints must be
 *                     smaller.
 * @param edges the arcs (directed). For symmetrize=true each undirected
 *              edge may appear once; the builder mirrors it.
 * @param opts construction options.
 *
 * Above kParallelSetupEdges edges the work is split over the host's
 * cores; the arrays are the same bytes either way.
 */
Graph buildGraph(VertexId num_vertices, EdgeList edges,
                 const BuildOptions &opts = {});

/**
 * buildGraph split into @p chunks contiguous input chunks, run on up to
 * @p chunks threads. The result does not depend on @p chunks. The arc
 * count (edges, doubled when symmetrizing) must stay below 2^32.
 */
Graph buildGraph(VertexId num_vertices, EdgeList edges,
                 const BuildOptions &opts, unsigned chunks);

} // namespace omega

#endif // OMEGA_GRAPH_BUILDER_HH
