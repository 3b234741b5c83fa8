/**
 * @file
 * Byte-equivalence oracle for the graph setup kernels.
 *
 * buildGraph (one scatter by source and a per-row sort) and
 * Graph::permuted (a per-row gather and sort) must produce exactly the
 * CSR arrays of the comparison-sort formulations kept below as
 * references: every offset,
 * neighbor and out-weight (the in-CSR stores no weights). A directed
 * graph's in-rows, transposed from its out-CSR on their first read,
 * must equal the reference transpose, also when four threads read them
 * first at once. Inputs cover
 * every FuzzSpec shape, including dirty edge lists with duplicates and
 * self loops, all eight BuildOptions combinations, zero- and one-vertex
 * graphs, and every ReorderKind. The chunked kernels (buildGraph,
 * renumbered and generateRmat split over threads, each R-MAT chunk as
 * eight vector lanes on AVX-512DQ hosts) must give the same bytes at
 * every chunk count, under both R-MAT chunk kernels. The R-MAT edge
 * list is pinned by hash, so the generator's quadrant selection stays
 * bit-for-bit, and a crafted generator state catches a lane kernel
 * whose noise term fuses into a multiply-add. A build that draws its
 * arcs from an RmatSource must equal the build from generateRmat's
 * list. The graph's storage is pinned too: its heap bytes per arc
 * before and after the first in-row read, a symmetric graph's single
 * CSR, the most heap a build holds at once, and the arc bound that
 * 32-bit row offsets need.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/builder.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/reorder.hh"
#include "graph/slicing.hh"
#include "testing/fuzz.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

/**
 * Live heap bytes of this process. Every operator new below prefixes
 * its block with the requested size, so delete can subtract it again.
 */
std::atomic<std::int64_t> g_live_heap_bytes{0};

/** The most g_live_heap_bytes has reached since the last resetPeak(). */
std::atomic<std::int64_t> g_peak_heap_bytes{0};

void
resetPeak()
{
    g_peak_heap_bytes = g_live_heap_bytes.load();
}

struct alignas(std::max_align_t) BlockHeader
{
    std::size_t size;
};

/**
 * The largest block a request may ask for before the process aborts:
 * a death test lowers it to show that a build allocates nothing large.
 */
std::atomic<std::size_t> g_max_block{SIZE_MAX};

/** The counted block for @p size bytes, or null when out of memory. */
void *
countedAlloc(std::size_t size) noexcept
{
    if (size > g_max_block.load()) {
        std::fputs("a block of more than the limit was allocated\n", stderr);
        std::abort();
    }
    auto *h = static_cast<BlockHeader *>(
        std::malloc(sizeof(BlockHeader) + size));
    if (!h)
        return nullptr;
    h->size = size;
    const std::int64_t live =
        g_live_heap_bytes += static_cast<std::int64_t>(size);
    std::int64_t peak = g_peak_heap_bytes;
    while (live > peak && !g_peak_heap_bytes.compare_exchange_weak(peak, live))
        ;
    return h + 1;
}

void *
countedNew(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    BlockHeader *h = static_cast<BlockHeader *>(p) - 1;
    g_live_heap_bytes -= static_cast<std::int64_t>(h->size);
    std::free(h);
}

} // namespace

// Every unaligned form, so no block reaches a delete it did not come
// from (std::stable_sort's buffer, for one, takes the nothrow form).
void *operator new(std::size_t size) { return countedNew(size); }
void *operator new[](std::size_t size) { return countedNew(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace omega {
namespace {

/** Both directions' CSR arrays of one graph; in-rows carry no weight. */
struct Csr
{
    std::vector<EdgeId> out_off;
    std::vector<VertexId> out_nbr;
    std::vector<std::int32_t> out_w;
    std::vector<EdgeId> in_off;
    std::vector<VertexId> in_nbr;
    bool symmetric = false;
};

/** One vertex's adjacency as (neighbor, weight) pairs. */
using Row = std::vector<std::pair<VertexId, std::int32_t>>;

/**
 * Lay @p rows out as CSR arrays, each row sorted by (neighbor, weight);
 * the weights are dropped when @p w is null.
 */
void
flattenSorted(std::vector<Row> rows, std::vector<EdgeId> &off,
              std::vector<VertexId> &nbr, std::vector<std::int32_t> *w)
{
    off.assign(1, 0);
    for (Row &row : rows) {
        std::sort(row.begin(), row.end());
        for (const auto &[v, weight] : row) {
            nbr.push_back(v);
            if (w)
                w->push_back(weight);
        }
        off.push_back(nbr.size());
    }
}

/** The comparison-sort builder: global sort to dedupe, per-row sorts. */
Csr
referenceBuild(VertexId n, EdgeList edges, const BuildOptions &opts)
{
    if (opts.symmetrize) {
        const std::size_t m = edges.size();
        for (std::size_t i = 0; i < m; ++i) {
            const Edge e = edges[i];
            if (e.src != e.dst)
                edges.push_back(Edge{e.dst, e.src, e.weight});
        }
    }
    if (opts.remove_self_loops) {
        std::erase_if(edges, [](const Edge &e) { return e.src == e.dst; });
    }
    if (opts.deduplicate) {
        std::sort(edges.begin(), edges.end(),
                  [](const Edge &a, const Edge &b) {
                      if (a.src != b.src)
                          return a.src < b.src;
                      if (a.dst != b.dst)
                          return a.dst < b.dst;
                      return a.weight < b.weight;
                  });
        edges.erase(std::unique(edges.begin(), edges.end(),
                                [](const Edge &a, const Edge &b) {
                                    return a.src == b.src && a.dst == b.dst;
                                }),
                    edges.end());
    }
    std::vector<Row> out(n);
    std::vector<Row> in(n);
    for (const Edge &e : edges) {
        out[e.src].emplace_back(e.dst, e.weight);
        in[e.dst].emplace_back(e.src, e.weight);
    }
    Csr c;
    c.symmetric = opts.symmetrize;
    flattenSorted(std::move(out), c.out_off, c.out_nbr, &c.out_w);
    flattenSorted(std::move(in), c.in_off, c.in_nbr, nullptr);
    return c;
}

/** The per-row-sort reorder: rename every row, then sort it. */
Csr
referencePermuted(const Graph &g, const std::vector<VertexId> &perm)
{
    const VertexId n = g.numVertices();
    std::vector<Row> out(n);
    std::vector<Row> in(n);
    for (VertexId v = 0; v < n; ++v) {
        const auto on = g.outNeighbors(v);
        const auto ow = g.outWeights(v);
        for (std::size_t i = 0; i < on.size(); ++i)
            out[perm[v]].emplace_back(perm[on[i]], ow[i]);
        for (VertexId u : g.inNeighbors(v))
            in[perm[v]].emplace_back(perm[u], 0);
    }
    Csr c;
    c.symmetric = g.symmetric();
    flattenSorted(std::move(out), c.out_off, c.out_nbr, &c.out_w);
    flattenSorted(std::move(in), c.in_off, c.in_nbr, nullptr);
    return c;
}

/**
 * The transpose of @p g's out-CSR: in-row v holds every u with an arc
 * u -> v, once per arc, ascending. Only its in-arrays are filled.
 */
Csr
referenceTransposed(const Graph &g)
{
    std::vector<Row> in(g.numVertices());
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (VertexId v : g.outNeighbors(u))
            in[v].emplace_back(u, 0);
    }
    Csr c;
    flattenSorted(std::move(in), c.in_off, c.in_nbr, nullptr);
    return c;
}

/** Copy @p g's arrays out through the public row accessors. */
Csr
csrOf(const Graph &g)
{
    Csr c;
    c.symmetric = g.symmetric();
    c.out_off.push_back(0);
    c.in_off.push_back(0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(g.outEdgeBase(v), c.out_nbr.size());
        EXPECT_EQ(g.inEdgeBase(v), c.in_nbr.size());
        for (VertexId u : g.outNeighbors(v))
            c.out_nbr.push_back(u);
        for (std::int32_t w : g.outWeights(v))
            c.out_w.push_back(w);
        for (VertexId u : g.inNeighbors(v))
            c.in_nbr.push_back(u);
        c.out_off.push_back(c.out_nbr.size());
        c.in_off.push_back(c.in_nbr.size());
    }
    EXPECT_EQ(g.numArcs(), c.out_nbr.size());
    return c;
}

void
expectSameCsr(const Graph &got_graph, const Csr &want,
              const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_TRUE(got_graph.validate());
    const Csr got = csrOf(got_graph);
    EXPECT_EQ(got.symmetric, want.symmetric);
    const bool narrow =
        std::all_of(want.out_w.begin(), want.out_w.end(),
                    [](std::int32_t w) { return w >= -128 && w <= 127; });
    EXPECT_EQ(got_graph.weightBytes(), narrow ? 1u : 4u) << "weight width";
    EXPECT_TRUE(got.out_off == want.out_off) << "out offsets differ";
    EXPECT_TRUE(got.out_nbr == want.out_nbr) << "out neighbors differ";
    EXPECT_TRUE(got.out_w == want.out_w) << "out weights differ";
    EXPECT_TRUE(got.in_off == want.in_off) << "in offsets differ";
    EXPECT_TRUE(got.in_nbr == want.in_nbr) << "in neighbors differ";
}

/** The fixed fuzz matrix plus seeded specs of every non-degenerate family. */
std::vector<testing::FuzzSpec>
specs()
{
    std::vector<testing::FuzzSpec> all = testing::defaultFuzzMatrix();
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        all.push_back(testing::FuzzSpec::fromSeed(seed));
    return all;
}

std::vector<BuildOptions>
allBuildOptions()
{
    std::vector<BuildOptions> all;
    for (unsigned bits = 0; bits < 8; ++bits) {
        BuildOptions o;
        o.remove_self_loops = (bits & 1) != 0;
        o.deduplicate = (bits & 2) != 0;
        o.symmetrize = (bits & 4) != 0;
        all.push_back(o);
    }
    return all;
}

std::string
describe(const BuildOptions &o)
{
    return std::string(" loops=") + (o.remove_self_loops ? "drop" : "keep") +
           " dedup=" + (o.deduplicate ? "1" : "0") +
           " sym=" + (o.symmetrize ? "1" : "0");
}

constexpr ReorderKind kAllKinds[] = {
    ReorderKind::Identity,           ReorderKind::InDegreeSort,
    ReorderKind::InDegreeTopSort,    ReorderKind::InDegreeNthElement,
    ReorderKind::OutDegreeSort,      ReorderKind::SlashburnLite,
    ReorderKind::Random,
};

/** The chunk counts the chunked kernels are checked at. */
constexpr unsigned kChunkCounts[] = {1, 2, 3, 4, 7};

/**
 * Run @p body under each R-MAT chunk kernel: the CPU's choice, then the
 * scalar kernel forced. A host without AVX-512DQ runs scalar twice.
 */
template <typename Body>
void
forEachRmatKernel(Body &&body)
{
    for (const bool scalar : {false, true}) {
        forceScalarRmatKernel(scalar);
        if (scalar) {
            EXPECT_STREQ(rmatChunkKernel(), "scalar");
        }
        SCOPED_TRACE(std::string("kernel=") + rmatChunkKernel());
        body();
    }
    forceScalarRmatKernel(false);
}

/** A named edge list on vertices [0, n). */
struct NamedEdges
{
    std::string name;
    VertexId n = 0;
    EdgeList edges;
    /** True if every weight of the list fits the one-byte store. */
    bool narrow = true;
};

/**
 * Edge lists at the edge of the one-byte weight store: weights -128 and
 * 127 fit it; -129, 128, INT32_MIN and INT32_MAX do not. Each case gives
 * every weight a lone arc, a lighter parallel arc, a self loop and an
 * arc that symmetrizing mirrors. In the last case the only wide weight
 * is on a parallel arc that deduplication drops (it keeps the lightest),
 * so that graph is narrow with deduplication on.
 */
std::vector<NamedEdges>
weightBoundaryCases()
{
    const std::int32_t lo = std::numeric_limits<std::int32_t>::min();
    const std::int32_t hi = std::numeric_limits<std::int32_t>::max();
    const std::pair<std::string, std::vector<std::int32_t>> weights[] = {
        {"-128 and 127", {-128, 127}}, {"-129", {-129}}, {"128", {128}},
        {"INT32_MIN", {lo}},           {"INT32_MAX", {hi}},
    };
    std::vector<NamedEdges> cases;
    for (const auto &[name, ws] : weights) {
        NamedEdges c{"weights " + name, 6, {}, ws.size() == 2};
        for (const std::int32_t w : ws) {
            c.edges.push_back(Edge{2, 3, w});
            c.edges.push_back(Edge{0, 1, 1});
            c.edges.push_back(Edge{0, 1, w});
            c.edges.push_back(Edge{4, 4, w});
            c.edges.push_back(Edge{5, 2, w});
        }
        cases.push_back(std::move(c));
    }
    cases.push_back(NamedEdges{"weights INT32_MAX beside 1", 3,
                               {{0, 1, hi}, {0, 1, 1}, {1, 2, -3}}, false});
    return cases;
}

/** A named edge list and whether its graphs are symmetrized. */
struct RenumberInput
{
    std::string name;
    VertexId n = 0;
    EdgeList edges;
    bool symmetrize = false;
};

/**
 * The renumbering tests' inputs: every spec of specs(), then every weight
 * boundary case directed and symmetrized.
 */
std::vector<RenumberInput>
renumberInputs()
{
    std::vector<RenumberInput> all;
    for (const testing::FuzzSpec &spec : specs()) {
        RenumberInput in{spec.describe(), 0, {}, spec.symmetrize};
        in.edges = spec.rawEdges(in.n);
        all.push_back(std::move(in));
    }
    for (const NamedEdges &c : weightBoundaryCases()) {
        for (const bool symmetrize : {false, true}) {
            all.push_back(RenumberInput{
                c.name + (symmetrize ? " sym" : " directed"), c.n, c.edges,
                symmetrize});
        }
    }
    return all;
}

TEST(BuildEquivalence, FuzzShapesUnderEveryBuildOption)
{
    // The default build, and the chunked build at every chunk count.
    for (const testing::FuzzSpec &spec : specs()) {
        VertexId n = 0;
        const EdgeList edges = spec.rawEdges(n);
        for (const BuildOptions &opts : allBuildOptions()) {
            const Csr want = referenceBuild(n, edges, opts);
            const std::string what = spec.describe() + describe(opts);
            expectSameCsr(buildGraph(n, edges, opts), want, what);
            for (unsigned chunks : kChunkCounts) {
                expectSameCsr(buildGraph(n, edges, opts, chunks), want,
                              what + " chunks=" + std::to_string(chunks));
            }
        }
    }
}

TEST(BuildEquivalence, DegenerateSizes)
{
    // Tiny graphs, and the weight boundary cases: expectSameCsr checks
    // each build's weight width against the weights it kept.
    std::vector<NamedEdges> cases = {
        {"empty", 0, {}},
        {"one vertex", 1, {}},
        {"one loop", 1, {{0, 0, 3}}},
        {"parallel loops", 1, {{0, 0, 7}, {0, 0, -2}, {0, 0, 7}}},
        {"two vertices", 2,
         {{1, 0, 4}, {1, 0, 4}, {1, 0, -9}, {0, 0, 1}, {1, 1, 2}}},
    };
    for (NamedEdges &c : weightBoundaryCases())
        cases.push_back(std::move(c));
    for (const auto &[name, n, edges, narrow] : cases) {
        for (const BuildOptions &opts : allBuildOptions()) {
            const Csr want = referenceBuild(n, edges, opts);
            const std::string what = name + describe(opts);
            expectSameCsr(buildGraph(n, edges, opts), want, what);
            // More chunks than edges or vertices leaves chunks empty.
            for (unsigned chunks : kChunkCounts) {
                expectSameCsr(buildGraph(n, edges, opts, chunks), want,
                              what + " chunks=" + std::to_string(chunks));
            }
        }
    }
}

TEST(BuildEquivalence, HubRowsSortParallelArcsByWeight)
{
    // Rows longer than sortArcs' 32-arc insertion cutoff take its radix
    // path, which orders by neighbor alone, so parallel arcs keep the
    // order the scatter wrote them in: chunk by chunk. Here two hubs'
    // parallel arcs arrive heaviest first, each run split over chunks,
    // and a third hub's weights are random; 600 vertices make the radix
    // sort take two byte passes. Directed and symmetrized (mirrored arcs
    // make the neighbors' rows hubs too), with and without
    // deduplication, at every chunk count.
    const VertexId n = 600;
    EdgeList edges;
    for (std::int32_t k = 0; k < 240; ++k) {
        edges.push_back(Edge{0, VertexId(1 + (k * 7) % 40), 500 - k});
        edges.push_back(Edge{VertexId(1 + (k * 13) % 60), 599, 300 - k});
    }
    Rng rng(17);
    for (int k = 0; k < 400; ++k) {
        edges.push_back(Edge{
            300, VertexId(rng.nextBounded(n)),
            static_cast<std::int32_t>(rng.nextBounded(40)) - 20});
    }
    for (const bool symmetric : {false, true}) {
        for (const bool dedup : {true, false}) {
            BuildOptions opts;
            opts.symmetrize = symmetric;
            opts.deduplicate = dedup;
            const Csr want = referenceBuild(n, edges, opts);
            for (unsigned chunks : kChunkCounts) {
                expectSameCsr(buildGraph(n, edges, opts, chunks), want,
                              describe(opts) +
                                  " chunks=" + std::to_string(chunks));
            }
        }
    }
}

TEST(BuildEquivalence, PermutedUnderEveryReorderKind)
{
    // Directed and symmetric graphs, plus graphs whose rows keep parallel
    // arcs of different weights (deduplicate off): their weight order
    // must survive renaming, and the renamed graph keeps the weight width.
    BuildOptions keep_all;
    keep_all.deduplicate = false;
    keep_all.remove_self_loops = false;
    for (const auto &[name, n, edges, symmetrize] : renumberInputs()) {
        BuildOptions opts;
        opts.symmetrize = symmetrize;
        keep_all.symmetrize = symmetrize;
        for (const Graph &g :
             {buildGraph(n, edges, opts), buildGraph(n, edges, keep_all)}) {
            for (ReorderKind kind : kAllKinds) {
                const auto perm = buildReorderPermutation(g, kind, 0.2, 7);
                const Graph r = g.permuted(perm);
                const std::string what = name + " " + reorderKindName(kind);
                expectSameCsr(r, referencePermuted(g, perm), what);
                expectSameCsr(reorderGraph(g, kind, 0.2, 7),
                              referencePermuted(g, perm),
                              what + " by ordering");
                // A second renaming starts from a permuted graph.
                const auto back =
                    buildReorderPermutation(r, ReorderKind::Random, 0.2, 3);
                expectSameCsr(r.permuted(back), referencePermuted(r, back),
                              what + " then random");
            }
        }
    }
}

TEST(BuildEquivalence, ChunkCountNeverChangesTheRenumbering)
{
    BuildOptions keep_all;
    keep_all.deduplicate = false;
    keep_all.remove_self_loops = false;
    for (const auto &[name, n, edges, symmetrize] : renumberInputs()) {
        BuildOptions opts;
        opts.symmetrize = symmetrize;
        keep_all.symmetrize = symmetrize;
        for (unsigned chunks : kChunkCounts) {
            for (const Graph &g : {buildGraph(n, edges, opts, chunks),
                                   buildGraph(n, edges, keep_all, chunks)}) {
                for (ReorderKind kind : kAllKinds) {
                    const auto perm = buildReorderPermutation(g, kind, 0.2, 7);
                    std::vector<VertexId> order(n);
                    for (VertexId v = 0; v < n; ++v)
                        order[perm[v]] = v;
                    expectSameCsr(g.renumbered(order, chunks),
                                  referencePermuted(g, perm),
                                  name + " " + reorderKindName(kind) +
                                      " jobs=" + std::to_string(chunks));
                }
            }
        }
    }
}

TEST(InArcs, TransposeMatchesTheReferenceAtEveryChunkCount)
{
    // Raw and renumbered directed graphs, with and without parallel arcs
    // and self loops: the transpose at every chunk count, and the in-rows
    // the first read builds, equal the reference transpose.
    BuildOptions keep_all;
    keep_all.deduplicate = false;
    keep_all.remove_self_loops = false;
    for (const testing::FuzzSpec &spec : specs()) {
        VertexId n = 0;
        const EdgeList edges = spec.rawEdges(n);
        for (unsigned chunks : kChunkCounts) {
            for (const BuildOptions &opts : {BuildOptions{}, keep_all}) {
                const Graph raw = buildGraph(n, edges, opts, chunks);
                const auto perm =
                    buildReorderPermutation(raw, ReorderKind::Random, 0.2, 9);
                std::vector<VertexId> order(n);
                for (VertexId v = 0; v < n; ++v)
                    order[perm[v]] = v;
                const Graph renumbered = raw.renumbered(order, chunks);
                for (const Graph *g : {&raw, &renumbered}) {
                    const std::string what =
                        spec.describe() + describe(opts) +
                        (g == &raw ? " raw" : " renumbered") +
                        " chunks=" + std::to_string(chunks);
                    SCOPED_TRACE(what);
                    const Csr want = referenceTransposed(*g);
                    for (unsigned jobs : kChunkCounts) {
                        EXPECT_TRUE(g->transposedInNeighbors(jobs) ==
                                    want.in_nbr)
                            << "jobs=" << jobs;
                    }
                    const Csr got = csrOf(*g);
                    EXPECT_TRUE(got.in_off == want.in_off);
                    EXPECT_TRUE(got.in_nbr == want.in_nbr);
                }
            }
        }
    }
}

TEST(InArcs, ConcurrentFirstReadsBuildOnce)
{
    // Four threads read every in-row of one graph, none of them built
    // yet, at once; a copy taken before the read shares the build.
    Rng rng(13);
    const Graph g = buildGraph(1 << 12, generateRmat(12, 8, rng));
    const Graph copy = g;
    const Csr want = referenceTransposed(g);
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<VertexId>> rows(kThreads);
    std::vector<const VertexId *> storage(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            const Graph &mine = t % 2 ? copy : g;
            for (VertexId v = 0; v < mine.numVertices(); ++v) {
                for (VertexId u : mine.inNeighbors(v))
                    rows[t].push_back(u);
            }
            storage[t] = mine.inArcs().neighbors;
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(rows[t] == want.in_nbr) << "thread " << t;
        EXPECT_EQ(storage[t], storage[0]) << "thread " << t;
    }
}

/** FNV-1a over the bytes of every entry of @p perm, in order. */
std::uint64_t
permutationHash(const std::vector<VertexId> &perm)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (VertexId v : perm) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(InArcs, SlashburnLiteOrderingPinned)
{
    // The one ordering that reads in-rows, on raw directed graphs: it
    // makes the graph's first in-row read. Pinned from the graph that
    // stored its in-CSR eagerly.
    Rng rng(11);
    const Graph rmat = buildGraph(1 << 10, generateRmat(10, 8, rng));
    ASSERT_EQ(rmat.numArcs(), 6685u);
    EXPECT_EQ(permutationHash(buildReorderPermutation(
                  rmat, ReorderKind::SlashburnLite)),
              0x45122b8bdb234dfdull);
    const Graph sd = buildDataset("sd", 42);
    ASSERT_EQ(sd.numArcs(), 25607u);
    EXPECT_EQ(permutationHash(
                  buildReorderPermutation(sd, ReorderKind::SlashburnLite)),
              0x38167e6a857d9bcdull);
}

TEST(GraphStorage, SymmetricInRowsAreTheOutRows)
{
    // A symmetric graph stores one CSR: its in-rows are its out-rows,
    // the same storage, built or renumbered.
    for (const testing::FuzzSpec &spec : specs()) {
        VertexId n = 0;
        const EdgeList edges = spec.rawEdges(n);
        BuildOptions opts;
        opts.symmetrize = true;
        const Graph built = buildGraph(n, edges, opts);
        const auto perm =
            buildReorderPermutation(built, ReorderKind::Random, 0.2, 5);
        for (const Graph &g : {built, built.permuted(perm)}) {
            SCOPED_TRACE(spec.describe());
            ASSERT_TRUE(g.symmetric());
            for (VertexId v = 0; v < g.numVertices(); ++v) {
                ASSERT_EQ(g.inEdgeBase(v), g.outEdgeBase(v)) << v;
                ASSERT_EQ(g.inDegree(v), g.outDegree(v)) << v;
                const auto in = g.inNeighbors(v);
                const auto out = g.outNeighbors(v);
                ASSERT_EQ(in.data(), out.data()) << v;
                ASSERT_EQ(in.size(), out.size()) << v;
            }
        }
    }
}

/** Every arc of @p c's out-CSR, in row order. */
EdgeList
arcsOf(const Csr &c)
{
    EdgeList arcs;
    for (VertexId v = 0; v + 1 < c.out_off.size(); ++v) {
        for (EdgeId i = c.out_off[v]; i < c.out_off[v + 1]; ++i)
            arcs.push_back(Edge{v, c.out_nbr[i], c.out_w[i]});
    }
    return arcs;
}

bool
sameArcs(const EdgeList &a, const EdgeList &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Edge &x, const Edge &y) {
                          return x.src == y.src && x.dst == y.dst &&
                                 x.weight == y.weight;
                      });
}

TEST(GraphStorage, WeightWidthFollowsTheWeights)
{
    // The build and renumbering tests run the weight boundary cases
    // through every build option and ordering. Here each case, every arc
    // kept, directed and symmetrized, takes the width its weights need
    // and keeps each weight exact through slicing, toEdgeList and an
    // edge-list text round trip.
    BuildOptions as_is;
    as_is.remove_self_loops = false;
    as_is.deduplicate = false;
    for (const auto &[name, n, edges, narrow] : weightBoundaryCases()) {
        for (const bool symmetric : {false, true}) {
            BuildOptions opts = as_is;
            opts.symmetrize = symmetric;
            SCOPED_TRACE(name + describe(opts));
            const Graph g = buildGraph(n, edges, opts);
            const Csr want = referenceBuild(n, edges, opts);
            expectSameCsr(g, want, "build");
            EXPECT_EQ(g.weightBytes(), narrow ? 1u : 4u);

            EXPECT_TRUE(sameArcs(g.toEdgeList(), arcsOf(want)))
                << "toEdgeList";

            // Each slice holds the arcs into its range, at the width its
            // own weights need.
            SlicingPlan plan;
            plan.ranges = {{0, n / 2}, {n / 2, n}};
            const std::vector<Graph> slices = sliceGraph(g, plan);
            ASSERT_EQ(slices.size(), 2u);
            for (std::size_t k = 0; k < slices.size(); ++k) {
                const auto [begin, end] = plan.ranges[k];
                EdgeList into;
                for (const Edge &e : arcsOf(want)) {
                    if (e.dst >= begin && e.dst < end)
                        into.push_back(e);
                }
                expectSameCsr(slices[k], referenceBuild(n, into, as_is),
                              "slice " + std::to_string(k));
            }

            // The edge-list text a graph file holds.
            std::stringstream file;
            writeEdgeList(file, g);
            VertexId max_vertex = 0;
            std::optional<VertexId> declared;
            EdgeList read = readEdgeList(file, max_vertex, &declared);
            ASSERT_EQ(declared, std::optional<VertexId>(n));
            EXPECT_TRUE(sameArcs(read, arcsOf(want))) << "file";
            const Graph loaded = buildGraph(n, std::move(read), as_is);
            const Csr got = csrOf(loaded);
            EXPECT_TRUE(got.out_off == want.out_off);
            EXPECT_TRUE(got.out_w == want.out_w);
            EXPECT_EQ(loaded.weightBytes(), g.weightBytes());
        }
    }
}

/** Heap bytes held by the graph @p make returns, and the graph. */
template <typename MakeF>
std::int64_t
heldBytes(std::optional<Graph> &g, MakeF &&make)
{
    g.reset();
    const std::int64_t before = g_live_heap_bytes;
    g.emplace(make());
    return g_live_heap_bytes - before;
}

TEST(GraphStorage, HeapBytesPerArc)
{
    // Directed: out neighbor (4 bytes) and out weight per arc, plus both
    // offset arrays (4 bytes per vertex + 1 each) and the fixed cell
    // that holds the in-neighbors once built; the first in-row read adds
    // the in-neighbors, 4 bytes per arc. Symmetric: the out-CSR alone
    // plus one offset array, and reading in-rows allocates nothing. A
    // weight takes 1 byte when every weight fits an int8_t (the R-MAT
    // draws, 1 to 16), so 5 bytes per arc, and 4 when one does not (the
    // same draws times 100), so 8. Renumbering returns the unread form
    // at the same width. Below kParallelSetupEdges, so setup starts no
    // threads.
    std::optional<Graph> empty;
    const std::int64_t cell =
        heldBytes(empty, [] { return buildGraph(0, {}); }) -
        2 * std::int64_t(sizeof(RowOffset));
    EXPECT_GT(cell, 0);
    EXPECT_LE(cell, 128);
    Rng rng(3);
    const VertexId n = 1 << 12;
    const EdgeList narrow_edges = generateRmat(12, 8, rng);
    EdgeList wide_edges = narrow_edges;
    for (Edge &e : wide_edges)
        e.weight *= 100;
    for (const bool wide : {false, true}) {
        for (const bool symmetric : {false, true}) {
            SCOPED_TRACE(std::string(wide ? "wide " : "narrow ") +
                         (symmetric ? "symmetric" : "directed"));
            const EdgeList &edges = wide ? wide_edges : narrow_edges;
            BuildOptions opts;
            opts.symmetrize = symmetric;
            std::optional<Graph> g;
            const std::int64_t built = heldBytes(
                g, [&] { return buildGraph(n, EdgeList(edges), opts); });
            EXPECT_EQ(g->weightBytes(), wide ? 4u : 1u);
            const auto arcs = static_cast<std::int64_t>(g->numArcs());
            const std::int64_t per_arc = wide ? 8 : 5;
            const std::int64_t offsets = 4 * (std::int64_t(n) + 1);
            const std::int64_t unread =
                symmetric ? per_arc * arcs + offsets
                          : per_arc * arcs + 2 * offsets + cell;
            EXPECT_EQ(built, unread);
            const std::int64_t before_read = g_live_heap_bytes;
            ASSERT_NE(g->inArcs().neighbors, nullptr);
            const std::int64_t read = g_live_heap_bytes - before_read;
            EXPECT_EQ(read, symmetric ? 0 : 4 * arcs);
            const auto perm =
                buildReorderPermutation(*g, ReorderKind::InDegreeSort, 0.2, 1);
            std::optional<Graph> r;
            EXPECT_EQ(heldBytes(r, [&] { return g->permuted(perm); }), unread);
            EXPECT_EQ(r->weightBytes(), g->weightBytes());
        }
    }
}

/**
 * The peak heap bytes above the live bytes at the call while @p run
 * runs, counting what it frees before returning as still held.
 */
template <typename RunF>
std::int64_t
peakBytes(RunF &&run)
{
    const std::int64_t before = g_live_heap_bytes;
    resetPeak();
    run();
    return g_peak_heap_bytes - before;
}

TEST(GraphStorage, RmatBuildPeak)
{
    // A build holds, with A arcs counted before deduplication and K
    // kept, C chunks and n vertices, besides the out-offsets (4 B per
    // vertex + 1) and the bookkeeping of one parallelFor (its thread
    // pool, measured here as a pool running nothing, plus 256 B):
    // - the scatter: the packed keys, 8 B per arc, and the (C x n)
    //   32-bit cursor table, plus the list when it reads one;
    // - the row sort: the keys and each range's radix scratch, at most
    //   8 B per arc of the longest row, C times;
    // - the unpack: the keys and the graph's 5 B per kept arc (the
    //   R-MAT weights, 1 to 16, take one byte);
    // - a directed graph's in-degree count: the graph, its in-offsets
    //   and a fresh cursor table.
    const unsigned scale = 12;
    const unsigned edge_factor = 8;
    const VertexId n = VertexId(1) << scale;
    Rng list_rng(21);
    const EdgeList edges = generateRmat(scale, edge_factor, list_rng);
    const auto list = static_cast<std::int64_t>(sizeof(Edge) * edges.size());
    for (const unsigned chunks : {1u, 4u}) {
        const std::int64_t pool = peakBytes(
            [chunks] { parallelFor(chunks, chunks, [](std::size_t) {}); });
        for (const bool symmetric : {false, true}) {
            SCOPED_TRACE(std::string(symmetric ? "symmetric" : "directed") +
                         " chunks=" + std::to_string(chunks));
            BuildOptions opts;
            opts.symmetrize = symmetric;
            std::vector<std::int64_t> degree(n);
            std::int64_t arcs = 0;
            for (const Edge &e : edges) {
                if (e.src == e.dst)
                    continue;
                ++degree[e.src];
                ++arcs;
                if (symmetric) {
                    ++degree[e.dst];
                    ++arcs;
                }
            }
            const std::int64_t longest =
                *std::max_element(degree.begin(), degree.end());
            const Graph whole = buildGraph(n, edges, opts);
            ASSERT_EQ(whole.weightBytes(), 1u);
            const auto kept = static_cast<std::int64_t>(whole.numArcs());
            const std::int64_t offsets = 4 * (std::int64_t(n) + 1);
            const std::int64_t cursors = 4 * std::int64_t(chunks) * n;
            const std::int64_t scatter = 8 * arcs + cursors;
            const std::int64_t others = std::max(
                {8 * arcs + 8 * std::int64_t(chunks) * longest,
                 8 * arcs + 5 * kept,
                 symmetric ? 0 : 5 * kept + offsets + cursors});
            const std::int64_t fixed = offsets + pool + 256;
            Rng rng(21);
            const std::int64_t from_source = peakBytes([&] {
                buildGraph(n, RmatSource(scale, edge_factor, rng), opts,
                           chunks);
            });
            EXPECT_LE(from_source, std::max(scatter, others) + fixed);
            EdgeList copy = edges;
            const std::int64_t from_list = peakBytes([&] {
                buildGraph(n, std::move(copy), opts, chunks);
            }) + list;
            EXPECT_LE(from_list, std::max(list + scatter, others) + fixed);
            if (!symmetric) {
                EXPECT_LT(from_source, from_list);
            }
        }
    }
}

/**
 * An EdgeSource that claims @p size edges and panics when read, so a
 * build that reads it has not stopped at the arc bound.
 */
class ClaimedSizeSource final : public EdgeSource
{
  public:
    explicit ClaimedSizeSource(std::size_t size) : size_(size) {}

    std::size_t size() const override { return size_; }

    void read(std::size_t, std::size_t, const EdgeSink &) const override
    {
        std::fputs("the oversized source was read\n", stderr);
        std::abort();
    }

  private:
    std::size_t size_;
};

TEST(GraphStorageDeathTest, ArcCountBeyondRowOffsetsPanicsFirst)
{
    // 32-bit row offsets hold fewer than 2^32 arcs: 2^32 edges, or 2^31
    // mirrored ones, must panic before the source is read or any block
    // larger than the panic message's is allocated (the cursor table
    // and offsets of 2^16 vertices would take 256 KiB each).
    const VertexId n = VertexId(1) << 16;
    for (const bool symmetric : {false, true}) {
        BuildOptions opts;
        opts.symmetrize = symmetric;
        const std::size_t too_many = std::size_t(1) << (symmetric ? 31 : 32);
        EXPECT_DEATH(
            {
                g_max_block = 4096;
                buildGraph(n, ClaimedSizeSource(too_many), opts, 1);
            },
            "too many arcs for 32-bit row offsets")
            << (symmetric ? "symmetric" : "directed");
    }
}

/** FNV-1a over every field of every edge, in list order. */
std::uint64_t
edgeListHash(const EdgeList &edges)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint32_t x) {
        for (int i = 0; i < 4; ++i) {
            h ^= (x >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const Edge &e : edges) {
        mix(e.src);
        mix(e.dst);
        mix(static_cast<std::uint32_t>(e.weight));
    }
    return h;
}

TEST(BuildEquivalence, RmatEdgeListPinned)
{
    // Pinned from the branchy quadrant selection the generator replaced:
    // any change to the RNG draws or the comparisons moves these.
    forEachRmatKernel([] {
        Rng rng(42);
        const EdgeList edges = generateRmat(12, 8, rng);
        ASSERT_EQ(edges.size(), 32768u);
        EXPECT_EQ(edgeListHash(edges), 0x9e794b02b915877aull);

        Rng skewed_rng(7);
        RmatParams skewed;
        skewed.a = 0.45;
        skewed.b = 0.15;
        skewed.c = 0.30;
        skewed.max_weight = 1000;
        EXPECT_EQ(edgeListHash(generateRmat(9, 16, skewed_rng, skewed)),
                  0xc47ee40f7f46c92full);
    });
}

/** Every edge and the generator's final state after one R-MAT draw. */
struct RmatDraw
{
    EdgeList edges;
    std::uint64_t state[4];
};

RmatDraw
drawRmat(unsigned scale, unsigned edge_factor, const RmatParams &params,
         unsigned chunks)
{
    Rng rng(42);
    RmatDraw d;
    d.edges = generateRmat(scale, edge_factor, rng, params, chunks);
    for (int w = 0; w < 4; ++w)
        d.state[w] = rng.stateWords()[w];
    return d;
}

void
expectSameDraw(const RmatDraw &got, const RmatDraw &want,
               const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(got.edges.size(), want.edges.size());
    std::size_t first_diff = got.edges.size();
    for (std::size_t i = 0; i < got.edges.size(); ++i) {
        const Edge &a = got.edges[i];
        const Edge &b = want.edges[i];
        if (a.src != b.src || a.dst != b.dst || a.weight != b.weight) {
            first_diff = i;
            break;
        }
    }
    EXPECT_EQ(first_diff, got.edges.size()) << "edge lists differ";
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(got.state[w], want.state[w]) << "state word " << w;
}

TEST(BuildEquivalence, ChunkCountNeverChangesTheRmatDraws)
{
    // Scale 16, edge factor 8: exactly kParallelSetupEdges arcs, and the
    // default max_weight of 16 is a power of two, so chunks jump ahead.
    const RmatParams params;
    const RmatDraw want = drawRmat(16, 8, params, 1);
    ASSERT_EQ(want.edges.size(), std::size_t(1) << 19);
    for (unsigned chunks : {2u, 3u, 7u}) {
        expectSameDraw(drawRmat(16, 8, params, chunks), want,
                       "chunks=" + std::to_string(chunks));
    }
}

TEST(BuildEquivalence, RmatLanesMatchTheSequentialDraws)
{
    // Each chunk draws as 8 lanes of consecutive arcs (on AVX-512DQ
    // hosts). Arc counts of 6 (fewer than one chunk's lanes: some lanes
    // are empty) and 40 (no multiple of 8 * chunks: lanes are uneven)
    // sit beside larger ones, under every R-MAT dataset's quadrant
    // probabilities, under both chunk kernels.
    RecordProperty("rmat_kernel", rmatChunkKernel());
    const std::pair<unsigned, unsigned> shapes[] = {
        {1, 3}, {3, 5}, {10, 7}, {16, 2}};
    forEachRmatKernel([&] {
        for (const DatasetSpec &spec : allDatasets()) {
            if (spec.family != DatasetFamily::Rmat)
                continue;
            RmatParams params;
            params.a = spec.rmat_a;
            params.b = spec.rmat_b;
            params.c = spec.rmat_c;
            for (const auto &[scale, ef] : shapes) {
                const RmatDraw want = drawRmat(scale, ef, params, 1);
                for (unsigned chunks : {2u, 3u, 4u, 7u}) {
                    expectSameDraw(drawRmat(scale, ef, params, chunks), want,
                                   spec.name +
                                       " scale=" + std::to_string(scale) +
                                       " chunks=" + std::to_string(chunks));
                }
            }
        }
    });
}

/** The inverse of odd @p a modulo 2^64, by Newton's iteration. */
constexpr std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a; // correct to 3 bits; each step doubles that
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/**
 * The state word s[1] whose xoshiro256** output is @p x: the inverse of
 * rotl(s1 * 5, 7) * 9.
 */
std::uint64_t
starStarPreimage(std::uint64_t x)
{
    return std::rotr(x * inverseMod64(9), 7) * inverseMod64(5);
}

/** Level 0 of an R-MAT draw: the (source, destination) quadrant bits. */
std::pair<bool, bool>
rmatLevel0(const RmatParams &p, double noise, double u2)
{
    // The test builds for the baseline ISA, which has no FMA, so these
    // products and sums round separately, as in rmatEdge.
    const double d = 1.0 - p.a - p.b - p.c;
    const double a = p.a * noise;
    const double ab = a + p.b;
    const double abc = ab + p.c;
    const double r = u2 * (abc + d);
    return {r >= ab, (r >= a && r < ab) || r >= abc};
}

TEST(BuildEquivalence, RmatLanesDoNotFuseMultiplyAdds)
{
    // A generator state whose first R-MAT arc lands in another quadrant
    // when the lane kernel's noise term 0.9 + 0.2 * u1 fuses into one
    // multiply-add (one rounding instead of two), as GCC does under its
    // default -ffp-contract=fast on AVX-512 code. xoshiro256**'s first
    // output is a bijection of s[1], and its second one of
    // s[1] ^ s[2] ^ s[0], so the state is solved from the two draws.
    if (std::string(rmatChunkKernel()) != "lanes8")
        GTEST_SKIP() << "the chunk kernel here is " << rmatChunkKernel();
    const RmatParams params;
    auto unit = [](std::uint64_t x) { return double(x >> 11) * 0x1.0p-53; };
    std::uint64_t x1 = 0;
    std::uint64_t x2 = 0;
    for (std::uint64_t i = 1; x2 == 0 && i < 100000; ++i) {
        const std::uint64_t x = (i * 0x9e3779b97f4a7c15ull) | 0x7ff;
        const double u1 = unit(x);
        const double noise = 0.9 + 0.2 * u1;
        const double fused = std::fma(0.2, u1, 0.9);
        if (fused == noise)
            continue;
        // Try the u2 near each quadrant boundary of the unfused draw.
        const double a = params.a * noise;
        const double norm = a + params.b + params.c +
                            (1.0 - params.a - params.b - params.c);
        for (const double edge : {a, a + params.b, a + params.b + params.c}) {
            const auto k = static_cast<std::uint64_t>(edge / norm * 0x1.0p53);
            for (std::uint64_t j = k - 4; j <= k + 4 && x2 == 0; ++j) {
                if (rmatLevel0(params, noise, unit(j << 11)) !=
                    rmatLevel0(params, fused, unit(j << 11))) {
                    x1 = x;
                    x2 = j << 11;
                }
            }
        }
    }
    ASSERT_NE(x2, 0u) << "no sensitive draw found";

    Rng crafted;
    auto w = crafted.stateWords();
    w[1] = starStarPreimage(x1);
    w[2] = 0;
    w[0] = w[1] ^ starStarPreimage(x2);
    w[3] = 0x0123456789abcdefull;
    Rng probe = crafted;
    ASSERT_EQ(probe.next(), x1);
    ASSERT_EQ(probe.next(), x2);

    // Scale 1: arc 0 is level 0 alone. 16 arcs over 2 chunks put it in
    // lane 0 of chunk 0, which starts from the crafted state itself.
    Rng seq_rng = crafted;
    Rng lane_rng = crafted;
    const EdgeList seq = generateRmat(1, 8, seq_rng, params, 1);
    const EdgeList lanes = generateRmat(1, 8, lane_rng, params, 2);
    const auto [src, dst] = rmatLevel0(params, 0.9 + 0.2 * unit(x1),
                                       unit(x2));
    ASSERT_EQ(seq[0].src, VertexId(src));
    ASSERT_EQ(seq[0].dst, VertexId(dst));
    ASSERT_EQ(lanes.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(lanes[i].src, seq[i].src) << "arc " << i;
        EXPECT_EQ(lanes[i].dst, seq[i].dst) << "arc " << i;
        EXPECT_EQ(lanes[i].weight, seq[i].weight) << "arc " << i;
    }
}

TEST(BuildEquivalence, NonPowerOfTwoWeightsDrawSequentially)
{
    // A weight bound that is not a power of two can make nextBounded
    // redraw, so the per-arc draw count is not fixed; the chunk count
    // must still change nothing.
    RmatParams params;
    params.max_weight = 1000;
    expectSameDraw(drawRmat(16, 8, params, 7), drawRmat(16, 8, params, 1),
                   "max_weight=1000");
}

TEST(BuildEquivalence, RmatEdgeListPinnedAboveTheCutoff)
{
    // The rMat dataset's shape: 786432 arcs, drawn on every host core
    // by either chunk kernel. Pinned from the sequential generator.
    forEachRmatKernel([] {
        Rng rng(42);
        const EdgeList edges = generateRmat(16, 12, rng);
        ASSERT_EQ(edges.size(), 786432u);
        EXPECT_EQ(edgeListHash(edges), 0x9c57ae6d159e6818ull);
        const std::uint64_t state[4] = {0xbb66cd0624159481ull,
                                        0xefb0b58b62bbc43dull,
                                        0x0c33c159b206faa5ull,
                                        0x4eb129e02b7b2f78ull};
        for (int w = 0; w < 4; ++w)
            EXPECT_EQ(rng.stateWords()[w], state[w]) << "state word " << w;
    });
}


TEST(BuildEquivalence, RmatSourceMatchesTheListBuild)
{
    // A build that draws each chunk twice from an RmatSource gives every
    // array of the build from generateRmat's list, and leaves the
    // generator in the same state: every R-MAT dataset's quadrant
    // probabilities, arc counts of 6, 40 and 7168 (empty and uneven
    // lanes), every chunk count, directed and symmetrized, with and
    // without deduplication, under both chunk kernels, and a weight
    // bound that is not a power of two. The datasets' weights, 1 to 16,
    // take one byte each; the bound of 1000 needs four.
    const std::pair<unsigned, unsigned> shapes[] = {{1, 3}, {3, 5}, {10, 7}};
    auto check = [](unsigned scale, unsigned ef, const RmatParams &params,
                    const std::string &name) {
        const unsigned weight_bytes = params.max_weight <= 127 ? 1 : 4;
        const VertexId n = VertexId(1) << scale;
        for (const bool symmetric : {false, true}) {
            for (const bool dedup : {true, false}) {
                BuildOptions opts;
                opts.symmetrize = symmetric;
                opts.deduplicate = dedup;
                Rng list_rng(42);
                const Graph from_list = buildGraph(
                    n, generateRmat(scale, ef, list_rng, params), opts);
                EXPECT_EQ(from_list.weightBytes(), weight_bytes);
                const Csr want = csrOf(from_list);
                for (unsigned chunks : kChunkCounts) {
                    Rng rng(42);
                    expectSameCsr(buildGraph(n, RmatSource(scale, ef, rng,
                                                           params),
                                             opts, chunks),
                                  want,
                                  name + " scale=" + std::to_string(scale) +
                                      describe(opts) +
                                      " chunks=" + std::to_string(chunks));
                    for (int w = 0; w < 4; ++w) {
                        EXPECT_EQ(rng.stateWords()[w],
                                  list_rng.stateWords()[w])
                            << "state word " << w;
                    }
                }
            }
        }
    };
    forEachRmatKernel([&] {
        for (const DatasetSpec &spec : allDatasets()) {
            if (spec.family != DatasetFamily::Rmat)
                continue;
            RmatParams params;
            params.a = spec.rmat_a;
            params.b = spec.rmat_b;
            params.c = spec.rmat_c;
            for (const auto &[scale, ef] : shapes)
                check(scale, ef, params, spec.name);
        }
        RmatParams uneven_weights;
        uneven_weights.max_weight = 1000;
        check(10, 7, uneven_weights, "max_weight=1000");
    });
}

} // namespace
} // namespace omega
