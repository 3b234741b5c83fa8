/**
 * @file
 * Byte-equivalence oracle for the linear-time graph kernels.
 *
 * buildGraph (a two-pass counting sort) and Graph::permuted (a sort-free
 * scatter) must produce exactly the CSR arrays of the comparison-sort
 * formulations kept below as references: every offset, neighbor and
 * weight. Inputs cover every FuzzSpec shape, including dirty edge lists
 * with duplicates and self loops, all eight BuildOptions combinations,
 * zero- and one-vertex graphs, and every ReorderKind. The R-MAT edge list
 * is pinned by hash, so the generator's quadrant selection stays
 * bit-for-bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "testing/fuzz.hh"
#include "util/rng.hh"

namespace omega {
namespace {

/** Both directions' CSR arrays of one graph. */
struct Csr
{
    std::vector<EdgeId> out_off;
    std::vector<VertexId> out_nbr;
    std::vector<std::int32_t> out_w;
    std::vector<EdgeId> in_off;
    std::vector<VertexId> in_nbr;
    std::vector<std::int32_t> in_w;
    bool symmetric = false;
};

/** One vertex's adjacency as (neighbor, weight) pairs. */
using Row = std::vector<std::pair<VertexId, std::int32_t>>;

/** Lay @p rows out as CSR arrays, each row sorted by (neighbor, weight). */
void
flattenSorted(std::vector<Row> rows, std::vector<EdgeId> &off,
              std::vector<VertexId> &nbr, std::vector<std::int32_t> &w)
{
    off.assign(1, 0);
    for (Row &row : rows) {
        std::sort(row.begin(), row.end());
        for (const auto &[v, weight] : row) {
            nbr.push_back(v);
            w.push_back(weight);
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
    flattenSorted(std::move(out), c.out_off, c.out_nbr, c.out_w);
    flattenSorted(std::move(in), c.in_off, c.in_nbr, c.in_w);
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
        const auto inn = g.inNeighbors(v);
        const auto iw = g.inWeights(v);
        for (std::size_t i = 0; i < inn.size(); ++i)
            in[perm[v]].emplace_back(perm[inn[i]], iw[i]);
    }
    Csr c;
    c.symmetric = g.symmetric();
    flattenSorted(std::move(out), c.out_off, c.out_nbr, c.out_w);
    flattenSorted(std::move(in), c.in_off, c.in_nbr, c.in_w);
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
        for (std::int32_t w : g.inWeights(v))
            c.in_w.push_back(w);
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
    EXPECT_TRUE(got.out_off == want.out_off) << "out offsets differ";
    EXPECT_TRUE(got.out_nbr == want.out_nbr) << "out neighbors differ";
    EXPECT_TRUE(got.out_w == want.out_w) << "out weights differ";
    EXPECT_TRUE(got.in_off == want.in_off) << "in offsets differ";
    EXPECT_TRUE(got.in_nbr == want.in_nbr) << "in neighbors differ";
    EXPECT_TRUE(got.in_w == want.in_w) << "in weights differ";
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

TEST(BuildEquivalence, FuzzShapesUnderEveryBuildOption)
{
    for (const testing::FuzzSpec &spec : specs()) {
        VertexId n = 0;
        const EdgeList edges = spec.rawEdges(n);
        for (const BuildOptions &opts : allBuildOptions()) {
            expectSameCsr(buildGraph(n, edges, opts),
                          referenceBuild(n, edges, opts),
                          spec.describe() + describe(opts));
        }
    }
}

TEST(BuildEquivalence, DegenerateSizes)
{
    const std::vector<std::pair<VertexId, EdgeList>> cases = {
        {0, {}},
        {1, {}},
        {1, {{0, 0, 3}}},
        {1, {{0, 0, 7}, {0, 0, -2}, {0, 0, 7}}},
        {2, {{1, 0, 4}, {1, 0, 4}, {1, 0, -9}, {0, 0, 1}, {1, 1, 2}}},
    };
    for (const auto &[n, edges] : cases) {
        for (const BuildOptions &opts : allBuildOptions()) {
            expectSameCsr(buildGraph(n, edges, opts),
                          referenceBuild(n, edges, opts),
                          "n=" + std::to_string(n) + " arcs=" +
                              std::to_string(edges.size()) +
                              describe(opts));
        }
    }
}

TEST(BuildEquivalence, PermutedUnderEveryReorderKind)
{
    // Directed and symmetric graphs, plus graphs whose rows keep parallel
    // arcs of different weights (deduplicate off): their weight order
    // must survive renaming.
    BuildOptions keep_all;
    keep_all.deduplicate = false;
    keep_all.remove_self_loops = false;
    for (const testing::FuzzSpec &spec : specs()) {
        VertexId n = 0;
        const EdgeList edges = spec.rawEdges(n);
        BuildOptions opts;
        opts.symmetrize = spec.symmetrize;
        keep_all.symmetrize = spec.symmetrize;
        for (const Graph &g :
             {buildGraph(n, edges, opts), buildGraph(n, edges, keep_all)}) {
            for (ReorderKind kind : kAllKinds) {
                const auto perm = buildReorderPermutation(g, kind, 0.2, 7);
                const Graph r = g.permuted(perm);
                const std::string what =
                    spec.describe() + " " + reorderKindName(kind);
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
}

} // namespace
} // namespace omega
