/**
 * @file
 * Graph fuzzer implementation.
 */

#include "testing/fuzz.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "graph/builder.hh"
#include "graph/generators.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace omega {
namespace testing {

namespace {

/** Decorrelate the materialization stream from the spec-derivation one. */
std::uint64_t
mixSeed(const FuzzSpec &spec)
{
    return spec.seed * 0x9E3779B97F4A7C15ull +
           static_cast<std::uint64_t>(spec.family) + 1;
}

std::int32_t
randomWeight(Rng &rng)
{
    return static_cast<std::int32_t>(1 + rng.nextBounded(16));
}

EdgeList
ringEdges(VertexId n, Rng &rng)
{
    EdgeList edges;
    edges.reserve(n);
    for (VertexId v = 0; v < n; ++v)
        edges.push_back({v, (v + 1) % n, randomWeight(rng)});
    return edges;
}

EdgeList
starEdges(VertexId n, Rng &rng)
{
    EdgeList edges;
    edges.reserve(n);
    for (VertexId v = 1; v < n; ++v)
        edges.push_back({0, v, randomWeight(rng)});
    return edges;
}

/** ER base list salted with self loops and duplicated arcs. */
EdgeList
dirtyEdges(VertexId n, unsigned edge_factor, Rng &rng)
{
    EdgeList edges = generateErdosRenyi(
        n, static_cast<EdgeId>(n) * std::max(edge_factor, 1u), rng);
    const std::size_t base = edges.size();
    for (std::size_t i = 0; i < base; i += 3) {
        Edge dup = edges[i];
        dup.weight += 1; // dedup keeps the smaller weight
        edges.push_back(dup);
    }
    for (VertexId v = 0; v < n; v += 5)
        edges.push_back({v, v, randomWeight(rng)});
    return edges;
}

/** Two Barabasi-Albert islands, ids offset, no cross edges. */
EdgeList
disconnectedEdges(VertexId n, unsigned edge_factor, Rng &rng)
{
    const VertexId half = std::max<VertexId>(n / 2, 2);
    const unsigned epv = std::max(edge_factor / 2, 1u);
    EdgeList edges = generateBarabasiAlbert(half, epv, rng);
    EdgeList second = generateBarabasiAlbert(n - half, epv, rng);
    for (Edge e : second)
        edges.push_back({e.src + half, e.dst + half, e.weight});
    return edges;
}

} // namespace

const char *
fuzzFamilyName(FuzzFamily family)
{
    switch (family) {
      case FuzzFamily::Rmat: return "rmat";
      case FuzzFamily::BarabasiAlbert: return "barabasi-albert";
      case FuzzFamily::RoadMesh: return "road-mesh";
      case FuzzFamily::ErdosRenyi: return "erdos-renyi";
      case FuzzFamily::Ring: return "ring";
      case FuzzFamily::Star: return "star";
      case FuzzFamily::SelfLoopMultiEdge: return "self-loop-multi-edge";
      case FuzzFamily::Disconnected: return "disconnected";
      case FuzzFamily::SingleVertex: return "single-vertex";
      case FuzzFamily::Empty: return "empty";
    }
    return "?";
}

std::string
FuzzSpec::describe() const
{
    std::ostringstream os;
    os << fuzzFamilyName(family) << " seed=" << seed << " v=" << vertices
       << " ef=" << edge_factor << " sym=" << (symmetrize ? 1 : 0);
    return os.str();
}

Graph
FuzzSpec::materialize() const
{
    BuildOptions opts;
    opts.symmetrize = symmetrize;
    VertexId n = 0;
    EdgeList edges = rawEdges(n);
    return buildGraph(n, std::move(edges), opts);
}

EdgeList
FuzzSpec::rawEdges(VertexId &num_vertices) const
{
    Rng rng(mixSeed(*this));
    num_vertices = vertices;

    switch (family) {
      case FuzzFamily::Rmat: {
        const unsigned scale = std::max<unsigned>(
            1, std::bit_width(std::max<VertexId>(vertices, 2) - 1));
        num_vertices = VertexId{1} << scale;
        return generateRmat(scale, edge_factor, rng);
      }
      case FuzzFamily::BarabasiAlbert:
        return generateBarabasiAlbert(vertices,
                                      std::max(edge_factor / 2, 1u), rng);
      case FuzzFamily::RoadMesh: {
        VertexId side = 2;
        while ((side + 1) * (side + 1) <= vertices)
            ++side;
        num_vertices = side * side;
        return generateRoadMesh(side, side, 0.1, 0.05, rng);
      }
      case FuzzFamily::ErdosRenyi:
        return generateErdosRenyi(vertices,
                                  static_cast<EdgeId>(vertices) *
                                      std::max(edge_factor, 1u),
                                  rng);
      case FuzzFamily::Ring:
        return ringEdges(vertices, rng);
      case FuzzFamily::Star:
        return starEdges(vertices, rng);
      case FuzzFamily::SelfLoopMultiEdge:
        return dirtyEdges(vertices, edge_factor, rng);
      case FuzzFamily::Disconnected:
        return disconnectedEdges(vertices, edge_factor, rng);
      case FuzzFamily::SingleVertex:
        // The input carries a self loop; the builder's default cleaning
        // removes it, leaving one isolated vertex.
        num_vertices = 1;
        return {{0, 0, 1}};
      case FuzzFamily::Empty:
        num_vertices = 0;
        return {};
    }
    panic("unknown fuzz family");
}

FuzzSpec
FuzzSpec::fromSeed(std::uint64_t fuzz_seed)
{
    // Derivation draws come from their own stream; materialization later
    // reseeds from (seed, family), so the two never interleave.
    Rng rng(fuzz_seed);
    static constexpr FuzzFamily families[] = {
        FuzzFamily::Rmat,           FuzzFamily::BarabasiAlbert,
        FuzzFamily::RoadMesh,       FuzzFamily::ErdosRenyi,
        FuzzFamily::Ring,           FuzzFamily::Star,
        FuzzFamily::SelfLoopMultiEdge, FuzzFamily::Disconnected,
    };
    FuzzSpec spec;
    spec.seed = fuzz_seed;
    spec.family = families[rng.nextBounded(std::size(families))];
    spec.vertices = static_cast<VertexId>(
        64u << rng.nextBounded(3)); // 64 / 128 / 256
    spec.edge_factor = static_cast<unsigned>(2 + rng.nextBounded(10));
    // Symmetric graphs exercise all eight algorithms; keep most runs
    // symmetric but retain directed coverage.
    spec.symmetrize = !rng.nextBool(0.25);
    return spec;
}

std::vector<FuzzSpec>
defaultFuzzMatrix()
{
    return {
        {FuzzFamily::Rmat, 101, 512, 8, true},
        {FuzzFamily::Rmat, 102, 512, 8, false}, // directed power law
        {FuzzFamily::BarabasiAlbert, 103, 512, 8, true},
        {FuzzFamily::RoadMesh, 104, 400, 4, true},
        {FuzzFamily::ErdosRenyi, 105, 384, 6, true},
        {FuzzFamily::Ring, 106, 256, 1, true},
        {FuzzFamily::Star, 107, 256, 1, true},
        {FuzzFamily::SelfLoopMultiEdge, 108, 128, 6, true},
        {FuzzFamily::Disconnected, 109, 320, 8, true},
        {FuzzFamily::SingleVertex, 110, 1, 0, true},
        {FuzzFamily::Empty, 111, 0, 0, true},
        // Tiny graphs (n < 5): 0.2 * n truncates to zero, exercising the
        // hot-boundary clamp in Engine::configureMachine.
        {FuzzFamily::Ring, 112, 3, 1, true},
        {FuzzFamily::Star, 113, 4, 1, true},
    };
}

} // namespace testing
} // namespace omega
