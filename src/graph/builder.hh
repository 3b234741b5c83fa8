/**
 * @file
 * Edge-list to CSR conversion.
 */

#ifndef OMEGA_GRAPH_BUILDER_HH
#define OMEGA_GRAPH_BUILDER_HH

#include <cstddef>
#include <functional>
#include <span>

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

/** Receives a batch of edges from an EdgeSource. */
using EdgeSink = std::function<void(std::span<const Edge>)>;

/**
 * The edges buildGraph reads, by index range, twice per range: once to
 * count each source's arcs and once to place them. A source that
 * can compute a range's edges again need not store them (RmatSource).
 */
class EdgeSource
{
  public:
    virtual ~EdgeSource() = default;

    /** The number of edges. */
    virtual std::size_t size() const = 0;

    /**
     * Hand edges [begin, end) to @p sink, in batches and in any order;
     * every read of a range yields the same edges. Reads of disjoint
     * ranges may run concurrently.
     */
    virtual void read(std::size_t begin, std::size_t end,
                      const EdgeSink &sink) const = 0;

    /** No range will be read again: the source may free its storage. */
    virtual void release() {}
};

/** A stored edge list as an EdgeSource; release() frees the list. */
class EdgeListSource final : public EdgeSource
{
  public:
    explicit EdgeListSource(EdgeList edges) : edges_(std::move(edges)) {}

    std::size_t size() const override { return edges_.size(); }

    void read(std::size_t begin, std::size_t end,
              const EdgeSink &sink) const override
    {
        sink(std::span<const Edge>(edges_).subspan(begin, end - begin));
    }

    void release() override { EdgeList().swap(edges_); }

  private:
    EdgeList edges_;
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
 * @p chunks threads. The result does not depend on @p chunks. The edge
 * count, doubled when symmetrizing, must stay below 2^32 so that 32-bit
 * row offsets hold every arc; a larger input panics before it is read.
 */
Graph buildGraph(VertexId num_vertices, EdgeList edges,
                 const BuildOptions &opts, unsigned chunks);

/**
 * buildGraph over the edges of @p source, which it reads chunk by chunk
 * and releases once the arcs are placed. The result is that of the
 * list the source reads, in any order.
 */
Graph buildGraph(VertexId num_vertices, EdgeSource &&source,
                 const BuildOptions &opts = {});

/** The same on @p chunks contiguous ranges of the source's edges. */
Graph buildGraph(VertexId num_vertices, EdgeSource &&source,
                 const BuildOptions &opts, unsigned chunks);

} // namespace omega

#endif // OMEGA_GRAPH_BUILDER_HH
