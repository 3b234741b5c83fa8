/**
 * @file
 * Synthetic graph generator implementations.
 */

#include "graph/generators.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>

#include "graph/csr_scatter.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace omega {

namespace {

/**
 * The draws one R-MAT edge takes when its weight bound is a power of
 * two: 2 * scale for the quadrants, one for the weight.
 */
constexpr std::uint64_t
drawsPerArc(unsigned scale)
{
    return 2 * std::uint64_t(scale) + 1;
}

/** One R-MAT edge: 2 * scale draws for the quadrants, one for the weight. */
Edge
rmatEdge(unsigned scale, Rng &rng, const RmatParams &params, double d)
{
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
        // Quadrants in order a | b | c | d: the source bit is set in c
        // and d, the destination bit in b and d. Computed without
        // branches, since r lands in each quadrant unpredictably.
        src = (src << 1) | VertexId(r >= ab);
        dst = (dst << 1) | (VertexId(r >= a) & VertexId(r < ab)) |
              VertexId(r >= abc);
    }
    const auto w = static_cast<std::int32_t>(
        1 + rng.nextBounded(static_cast<std::uint64_t>(params.max_weight)));
    return Edge{src, dst, w};
}

#if defined(__x86_64__)

using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using F64x8 = double __attribute__((vector_size(64)));

/** Rng::next on eight streams at once, word w of lane l in s[w][l]. */
__attribute__((target("avx512f,avx512dq"), always_inline)) inline U64x8
next8(U64x8 (&s)[4])
{
    const U64x8 x = s[1] * 5;
    const U64x8 result = ((x << 7) | (x >> 57)) * 9;
    const U64x8 t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
    return result;
}

/** Rng::nextDouble's map of eight draws into [0, 1); exact below 2^53. */
__attribute__((target("avx512f,avx512dq"), always_inline)) inline F64x8
unit8(U64x8 x)
{
    return __builtin_convertvector(x >> 11, F64x8) * 0x1.0p-53;
}

/**
 * The chunk's arcs [begin, end) as 8 lanes of consecutive arcs, each
 * lane on its own xoshiro256** stream started where the sequential draw
 * reaches its first arc; all eight streams step together, each step
 * hands emit(i, arc i) one arc per lane, and a lane past its last arc
 * draws on but emits nothing. Each lane does
 * rmatEdge's double arithmetic in the same order, and the project
 * compiles with -ffp-contract=off, so no multiply-add fuses and every
 * arc is the sequential draw's bit for bit. The weight is 1 + the top
 * log2(max_weight) bits of the draw, which for a power-of-two bound is
 * exactly nextBounded's result: it never redraws.
 */
template <typename Emit>
__attribute__((target("avx512f,avx512dq"))) void
rmatLanes8(unsigned scale, const Rng &rng, const RmatParams &params,
           double d, EdgeId begin, EdgeId end, Emit emit)
{
    constexpr unsigned kLanes = 8;
    const EdgeId len = end - begin;
    EdgeId first[kLanes];
    EdgeId count[kLanes];
    U64x8 s[4];
    for (unsigned l = 0; l < kLanes; ++l) {
        first[l] = begin + len * l / kLanes;
        count[l] = begin + len * (l + 1) / kLanes - first[l];
        Rng lane = rng;
        lane.advance(first[l] * drawsPerArc(scale));
        for (int w = 0; w < 4; ++w)
            s[w][l] = lane.stateWords()[w];
    }
    // (x >> (63 - k)) >> 1 keeps the shift defined when max_weight is 1.
    const unsigned weight_shift =
        63 - static_cast<unsigned>(std::countr_zero(
                 static_cast<std::uint32_t>(params.max_weight)));
    const EdgeId steps = (len + kLanes - 1) / kLanes;
    for (EdgeId i = 0; i < steps; ++i) {
        U64x8 src = {};
        U64x8 dst = {};
        for (unsigned level = 0; level < scale; ++level) {
            const F64x8 noise = 0.9 + 0.2 * unit8(next8(s));
            const F64x8 a = params.a * noise;
            const F64x8 ab = a + params.b;
            const F64x8 abc = ab + params.c;
            const F64x8 norm = abc + d;
            const F64x8 r = unit8(next8(s)) * norm;
            src = (src << 1) | ((U64x8)(r >= ab) & 1);
            dst = (dst << 1) |
                  ((U64x8)(((r >= a) & (r < ab)) | (r >= abc)) & 1);
        }
        const U64x8 w = 1 + ((next8(s) >> weight_shift) >> 1);
        for (unsigned l = 0; l < kLanes; ++l) {
            if (i < count[l]) {
                emit(first[l] + i, Edge{static_cast<VertexId>(src[l]),
                                        static_cast<VertexId>(dst[l]),
                                        static_cast<std::int32_t>(w[l])});
            }
        }
    }
}

/** The CPU has rmatLanes8's features: asked once. */
bool
cpuRunsLanes8()
{
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
}

#else

bool
cpuRunsLanes8()
{
    return false;
}

#endif

/** Set by forceScalarRmatKernel. */
std::atomic<bool> g_force_scalar_kernel{false};

/**
 * The one place the chunk kernel is chosen: rmatLanes8 where the CPU
 * runs it, unless a test has forced the scalar kernel.
 */
bool
useRmatLanes8()
{
    return cpuRunsLanes8() && !g_force_scalar_kernel.load();
}

/** Whether every arc takes drawsPerArc draws, so ranges can jump. */
bool
fixedDrawsPerArc(const RmatParams &params)
{
    // A power-of-two weight bound never makes nextBounded redraw.
    return params.max_weight > 0 &&
           std::has_single_bit(static_cast<std::uint32_t>(params.max_weight));
}

/** Panics on a scale or quadrant split that R-MAT cannot draw. */
void
checkRmatShape(unsigned scale, const RmatParams &params)
{
    omega_assert(scale > 0 && scale < 31, "rmat scale out of range");
    omega_assert(1.0 - params.a - params.b - params.c > 0.0,
                 "rmat quadrant probabilities must sum below 1");
}

/**
 * Draw arcs [begin, end) of the R-MAT sequence that starts at @p rng,
 * whose arcs take a fixed drawsPerArc(scale) draws each, calling
 * emit(i, arc i) for each in an order of the kernel's choosing: the
 * host's chunk kernel, from states jumped ahead to the range.
 */
template <typename Emit>
void
drawRmatRange(unsigned scale, const Rng &rng, const RmatParams &params,
              EdgeId begin, EdgeId end, Emit emit)
{
    const double d = 1.0 - params.a - params.b - params.c;
#if defined(__x86_64__)
    if (useRmatLanes8()) {
        rmatLanes8(scale, rng, params, d, begin, end, emit);
        return;
    }
#endif
    Rng range_rng = rng;
    range_rng.advance(begin * drawsPerArc(scale));
    for (EdgeId i = begin; i < end; ++i)
        emit(i, rmatEdge(scale, range_rng, params, d));
}

} // namespace

const char *
rmatChunkKernel()
{
    return useRmatLanes8() ? "lanes8" : "scalar";
}

void
forceScalarRmatKernel(bool scalar)
{
    g_force_scalar_kernel.store(scalar);
}

EdgeList
generateRmat(unsigned scale, unsigned edge_factor, Rng &rng,
             const RmatParams &params)
{
    // min() keeps the shift defined for a scale the chunked form rejects.
    const EdgeId m = (EdgeId(1) << std::min(scale, 31u)) * edge_factor;
    return generateRmat(scale, edge_factor, rng, params, setupChunks(m));
}

EdgeList
generateRmat(unsigned scale, unsigned edge_factor, Rng &rng,
             const RmatParams &params, unsigned chunks)
{
    checkRmatShape(scale, params);
    omega_assert(chunks > 0, "generateRmat needs at least one chunk");

    const VertexId n = VertexId(1) << scale;
    const EdgeId m = static_cast<EdgeId>(n) * edge_factor;

    // With a fixed draw count per edge, chunk c can jump straight to its
    // first edge's draws.
    if (chunks == 1 || !fixedDrawsPerArc(params)) {
        const double d = 1.0 - params.a - params.b - params.c;
        EdgeList edges;
        edges.reserve(m);
        for (EdgeId i = 0; i < m; ++i)
            edges.push_back(rmatEdge(scale, rng, params, d));
        return edges;
    }
    EdgeList edges(m);
    parallelFor(chunks, chunks, [&](std::size_t c) {
        drawRmatRange(scale, rng, params, m * c / chunks,
                      m * (c + 1) / chunks,
                      [&edges](EdgeId i, const Edge &e) { edges[i] = e; });
    });
    rng.advance(m * drawsPerArc(scale));
    return edges;
}

RmatSource::RmatSource(unsigned scale, unsigned edge_factor, Rng &rng,
                       const RmatParams &params)
    : scale_(scale), params_(params), start_(rng),
      size_((EdgeId(1) << std::min(scale, 31u)) * edge_factor)
{
    checkRmatShape(scale, params);
    if (fixedDrawsPerArc(params))
        rng.advance(size_ * drawsPerArc(scale));
    else
        drawn_ = generateRmat(scale, edge_factor, rng, params, 1);
}

void
RmatSource::read(std::size_t begin, std::size_t end,
                 const EdgeSink &sink) const
{
    if (!fixedDrawsPerArc(params_)) {
        sink(std::span<const Edge>(drawn_).subspan(begin, end - begin));
        return;
    }
    // Arcs reach the sink in batches small enough to stay in L1.
    constexpr std::size_t kBatch = 256;
    Edge batch[kBatch];
    std::size_t held = 0;
    drawRmatRange(scale_, start_, params_, begin, end,
                  [&](EdgeId, const Edge &e) {
                      batch[held++] = e;
                      if (held == kBatch) {
                          sink(std::span<const Edge>(batch, held));
                          held = 0;
                      }
                  });
    if (held > 0)
        sink(std::span<const Edge>(batch, held));
}

void
RmatSource::release()
{
    EdgeList().swap(drawn_);
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
