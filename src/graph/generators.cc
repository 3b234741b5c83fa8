/**
 * @file
 * Synthetic graph generator implementations.
 */

#include "graph/generators.hh"

#include <algorithm>

#include "util/logging.hh"

namespace omega {

EdgeList
generateRmat(unsigned scale, unsigned edge_factor, Rng &rng,
             const RmatParams &params)
{
    omega_assert(scale > 0 && scale < 31, "rmat scale out of range");
    const double d = 1.0 - params.a - params.b - params.c;
    omega_assert(d > 0.0, "rmat quadrant probabilities must sum below 1");

    const VertexId n = VertexId(1) << scale;
    const EdgeId m = static_cast<EdgeId>(n) * edge_factor;
    EdgeList edges;
    edges.reserve(m);

    for (EdgeId i = 0; i < m; ++i) {
        VertexId src = 0;
        VertexId dst = 0;
        for (unsigned level = 0; level < scale; ++level) {
            // Perturb quadrant probabilities slightly per level so the
            // degree sequence is smoother (standard R-MAT noise trick).
            const double noise = 0.9 + 0.2 * rng.nextDouble();
            const double a = params.a * noise;
            const double ab = a + params.b;
            const double abc = ab + params.c;
            const double norm = abc + d;
            const double r = rng.nextDouble() * norm;
            // Quadrants in order a | b | c | d: the source bit is set in
            // c and d, the destination bit in b and d. Computed without
            // branches, since r lands in each quadrant unpredictably.
            src = (src << 1) | VertexId(r >= ab);
            dst = (dst << 1) |
                  (VertexId(r >= a) & VertexId(r < ab)) | VertexId(r >= abc);
        }
        const auto w = static_cast<std::int32_t>(
            1 + rng.nextBounded(static_cast<std::uint64_t>(
                    params.max_weight)));
        edges.push_back(Edge{src, dst, w});
    }
    return edges;
}

EdgeList
generateBarabasiAlbert(VertexId num_vertices, unsigned edges_per_vertex,
                       Rng &rng, std::int32_t max_weight)
{
    omega_assert(num_vertices > edges_per_vertex,
                 "need more vertices than attachment edges");
    omega_assert(edges_per_vertex > 0, "need at least one edge per vertex");

    EdgeList edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) * edges_per_vertex);

    // `targets` holds one entry per edge endpoint, so sampling a uniform
    // element implements preferential attachment (probability proportional
    // to degree).
    std::vector<VertexId> endpoint_pool;
    endpoint_pool.reserve(2 * static_cast<std::size_t>(num_vertices) *
                          edges_per_vertex);

    // Seed clique over the first m+1 vertices.
    const VertexId seed = edges_per_vertex + 1;
    for (VertexId u = 0; u < seed; ++u) {
        for (VertexId v = u + 1; v < seed; ++v) {
            const auto w = static_cast<std::int32_t>(
                1 + rng.nextBounded(static_cast<std::uint64_t>(max_weight)));
            edges.push_back(Edge{u, v, w});
            endpoint_pool.push_back(u);
            endpoint_pool.push_back(v);
        }
    }

    std::vector<VertexId> picked(edges_per_vertex);
    for (VertexId v = seed; v < num_vertices; ++v) {
        for (unsigned k = 0; k < edges_per_vertex; ++k) {
            VertexId target;
            bool fresh;
            do {
                target = endpoint_pool[rng.nextBounded(
                    endpoint_pool.size())];
                fresh = true;
                for (unsigned j = 0; j < k; ++j) {
                    if (picked[j] == target) {
                        fresh = false;
                        break;
                    }
                }
            } while (!fresh);
            picked[k] = target;
        }
        for (unsigned k = 0; k < edges_per_vertex; ++k) {
            const auto w = static_cast<std::int32_t>(
                1 + rng.nextBounded(static_cast<std::uint64_t>(max_weight)));
            edges.push_back(Edge{v, picked[k], w});
            endpoint_pool.push_back(v);
            endpoint_pool.push_back(picked[k]);
        }
    }
    return edges;
}

EdgeList
generateRoadMesh(VertexId width, VertexId height, double shortcut_fraction,
                 double removal_fraction, Rng &rng, std::int32_t max_weight)
{
    omega_assert(width >= 2 && height >= 2, "road mesh too small");
    const VertexId n = width * height;
    EdgeList edges;
    edges.reserve(static_cast<std::size_t>(2) * n);

    auto id = [width](VertexId x, VertexId y) { return y * width + x; };
    auto weight = [&rng, max_weight]() {
        return static_cast<std::int32_t>(
            1 + rng.nextBounded(static_cast<std::uint64_t>(max_weight)));
    };

    for (VertexId y = 0; y < height; ++y) {
        for (VertexId x = 0; x < width; ++x) {
            // Right and down neighbors; each kept with prob 1-removal.
            if (x + 1 < width && !rng.nextBool(removal_fraction))
                edges.push_back(Edge{id(x, y), id(x + 1, y), weight()});
            if (y + 1 < height && !rng.nextBool(removal_fraction))
                edges.push_back(Edge{id(x, y), id(x, y + 1), weight()});
        }
    }
    const auto shortcuts =
        static_cast<EdgeId>(shortcut_fraction * static_cast<double>(n));
    for (EdgeId i = 0; i < shortcuts; ++i) {
        const auto u = static_cast<VertexId>(rng.nextBounded(n));
        const auto v = static_cast<VertexId>(rng.nextBounded(n));
        if (u != v)
            edges.push_back(Edge{u, v, weight()});
    }
    return edges;
}

EdgeList
generateErdosRenyi(VertexId num_vertices, EdgeId num_arcs, Rng &rng,
                   std::int32_t max_weight)
{
    EdgeList edges;
    edges.reserve(num_arcs);
    for (EdgeId i = 0; i < num_arcs; ++i) {
        const auto u = static_cast<VertexId>(rng.nextBounded(num_vertices));
        const auto v = static_cast<VertexId>(rng.nextBounded(num_vertices));
        const auto w = static_cast<std::int32_t>(
            1 + rng.nextBounded(static_cast<std::uint64_t>(max_weight)));
        edges.push_back(Edge{u, v, w});
    }
    return edges;
}

} // namespace omega
