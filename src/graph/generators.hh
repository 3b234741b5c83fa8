/**
 * @file
 * Synthetic graph generators.
 *
 * These stand in for the paper's real-world datasets (SNAP, WebGraph,
 * DIMACS road networks): R-MAT and Barabasi-Albert produce power-law
 * ("natural") graphs; the road generator produces low-degree, high-diameter
 * planar-ish meshes like roadNet-CA/PA and Western-USA.
 */

#ifndef OMEGA_GRAPH_GENERATORS_HH
#define OMEGA_GRAPH_GENERATORS_HH

#include "graph/builder.hh"
#include "graph/graph.hh"
#include "graph/types.hh"
#include "util/rng.hh"

namespace omega {

/** R-MAT recursive-partitioning parameters (Chakrabarti et al., ICDM'04). */
struct RmatParams
{
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    /** d is implied: 1 - a - b - c. */
    /** Max weight assigned to each edge (uniform in [1, max_weight]). */
    std::int32_t max_weight = 16;
};

/**
 * Generate an R-MAT arc list.
 *
 * @param scale log2 of the vertex count.
 * @param edge_factor arcs per vertex.
 * @param rng random source.
 * @param params quadrant probabilities.
 *
 * From kParallelSetupEdges arcs on, and with a power-of-two max_weight,
 * the arcs are drawn on every host core; the list and the final state of
 * @p rng are those of the sequential draw either way.
 */
EdgeList generateRmat(unsigned scale, unsigned edge_factor, Rng &rng,
                      const RmatParams &params = {});

/**
 * generateRmat split into @p chunks contiguous runs of arcs, each on its
 * own thread starting from a jumped-ahead copy of @p rng. The result and
 * the final @p rng state do not depend on @p chunks. A max_weight that
 * is not a power of two makes the draw count per arc vary, so it always
 * draws sequentially.
 */
EdgeList generateRmat(unsigned scale, unsigned edge_factor, Rng &rng,
                      const RmatParams &params, unsigned chunks);

/**
 * The kernel each chunk of that chunked draw runs on this host: "lanes8"
 * (eight jumped-ahead streams stepped together in 512-bit vectors) when
 * the CPU has AVX-512F and AVX-512DQ, else "scalar" (one stream, one arc
 * at a time). Both give the same bytes.
 */
const char *rmatChunkKernel();

/**
 * Run the scalar chunk kernel even where the CPU has lanes8 (@p scalar
 * true), or go back to the CPU's choice (false). For tests, which check
 * both kernels on one host; call it while no R-MAT draw is running.
 */
void forceScalarRmatKernel(bool scalar);

/**
 * The arcs generateRmat(scale, edge_factor, rng, params) returns, as an
 * EdgeSource that draws every range it is asked for afresh (with the
 * same jump-ahead and chunk kernel as the chunked generateRmat) instead
 * of storing the list; a range's arcs may come in lane order. The
 * constructor leaves @p rng where generateRmat leaves it. A max_weight
 * that is not a power of two makes the draw count per arc vary, so no
 * range can be jumped to: the source then draws the list once,
 * sequentially, and reads it.
 */
class RmatSource final : public EdgeSource
{
  public:
    RmatSource(unsigned scale, unsigned edge_factor, Rng &rng,
               const RmatParams &params = {});

    std::size_t size() const override { return size_; }
    void read(std::size_t begin, std::size_t end,
              const EdgeSink &sink) const override;
    void release() override;

  private:
    unsigned scale_;
    RmatParams params_;
    /** The caller's generator as it was before the draw. */
    Rng start_;
    EdgeId size_;
    /** The whole list, drawn only when ranges cannot be jumped to. */
    EdgeList drawn_;
};

/**
 * Generate a Barabasi-Albert preferential-attachment graph (undirected
 * edge list; symmetrize when building). Produces a clean power law, the
 * "preferential attachment" mechanism the paper cites for natural graphs.
 *
 * @param num_vertices total vertices.
 * @param edges_per_vertex attachment edges added per arriving vertex.
 */
EdgeList generateBarabasiAlbert(VertexId num_vertices,
                                unsigned edges_per_vertex, Rng &rng,
                                std::int32_t max_weight = 16);

/**
 * Generate a road-network-like mesh: a width x height 4-neighbor grid with
 * a small fraction of random "highway" shortcuts and a fraction of removed
 * local roads. Degrees are nearly uniform (2-5), so the graph does NOT
 * follow the power law — matching rCA/rPA/USA in Table I.
 */
EdgeList generateRoadMesh(VertexId width, VertexId height, double shortcut_fraction,
                          double removal_fraction, Rng &rng,
                          std::int32_t max_weight = 64);

/** Erdos-Renyi G(n, m) arc list; uniform random, not power law. */
EdgeList generateErdosRenyi(VertexId num_vertices, EdgeId num_arcs, Rng &rng,
                            std::int32_t max_weight = 16);

} // namespace omega

#endif // OMEGA_GRAPH_GENERATORS_HH
