/**
 * @file
 * Seeded graph fuzzer for the differential test harness.
 *
 * A FuzzSpec is a compact, fully self-describing recipe for a test graph:
 * family + seed + size knobs. materialize() rebuilds the exact same graph
 * every time, so a failing differential case is reproducible from the
 * spec line the harness prints. Families cover the paper's workload axes
 * (power-law vs. road-like vs. uniform) plus the degenerate shapes a
 * refactor is most likely to break: empty, single-vertex, self-loop /
 * multi-edge inputs, disconnected unions, stars (maximum skew) and rings
 * (all-equal degrees, the reorder tie-break case).
 */

#ifndef OMEGA_TESTING_FUZZ_HH
#define OMEGA_TESTING_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hh"

namespace omega {
namespace testing {

/** Graph shapes the fuzzer can emit. */
enum class FuzzFamily : std::uint8_t
{
    /** R-MAT power law (directed unless symmetrized). */
    Rmat,
    /** Barabasi-Albert preferential attachment (clean power law). */
    BarabasiAlbert,
    /** Road-like mesh: near-uniform low degree, high diameter. */
    RoadMesh,
    /** Erdos-Renyi uniform random. */
    ErdosRenyi,
    /** Undirected cycle: every degree equal (reorder tie-break case). */
    Ring,
    /** One hub connected to everything (maximum degree skew). */
    Star,
    /** Dirty input: self loops + duplicate arcs fed to the builder. */
    SelfLoopMultiEdge,
    /** Two power-law islands with no connecting edges. */
    Disconnected,
    /** One vertex, zero (cleaned) edges. */
    SingleVertex,
    /** Zero vertices. */
    Empty,
};

/** Printable family name. */
const char *fuzzFamilyName(FuzzFamily family);

/**
 * A compact, deterministic graph recipe. Everything the harness needs to
 * rebuild the graph is in these five fields; describe() prints them in a
 * form that can be pasted back into a reproduction run.
 */
struct FuzzSpec
{
    FuzzFamily family = FuzzFamily::Rmat;
    /** Seed for every random draw involved in materialization. */
    std::uint64_t seed = 1;
    /** Approximate vertex count (families round as needed). */
    VertexId vertices = 256;
    /** Approximate arcs per vertex where the family supports it. */
    unsigned edge_factor = 8;
    /** Mirror every arc and mark the graph symmetric. */
    bool symmetrize = true;

    /** One-line description, e.g. "rmat seed=7 v=512 ef=8 sym=1". */
    std::string describe() const;

    /** Build the graph. Deterministic: same spec, same graph. */
    Graph materialize() const;

    /**
     * The raw arc list materialize() builds from, before any cleaning
     * (self loops and duplicates included); sets @p num_vertices.
     */
    EdgeList rawEdges(VertexId &num_vertices) const;

    /**
     * Derive a full spec from a single 64-bit fuzz seed (the harness's
     * randomized mode). Deterministic; the degenerate Empty/SingleVertex
     * families are excluded because the fixed matrix always covers them.
     */
    static FuzzSpec fromSeed(std::uint64_t fuzz_seed);
};

/**
 * The fixed spec matrix test_differential sweeps: one representative per
 * family, sized so the full algorithms x graphs x machines product stays
 * inside unit-test budget.
 */
std::vector<FuzzSpec> defaultFuzzMatrix();

} // namespace testing
} // namespace omega

#endif // OMEGA_TESTING_FUZZ_HH
