/**
 * @file
 * Unit tests for the CSR graph, builder and I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/builder.hh"
#include "graph/graph.hh"
#include "graph/io.hh"

namespace omega {
namespace {

EdgeList
triangleEdges()
{
    return {{0, 1, 5}, {1, 2, 3}, {2, 0, 7}};
}

TEST(Builder, BasicDirected)
{
    Graph g = buildGraph(3, triangleEdges());
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numArcs(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_FALSE(g.symmetric());
    EXPECT_TRUE(g.validate());
    EXPECT_EQ(g.outDegree(0), 1u);
    EXPECT_EQ(g.inDegree(0), 1u);
    EXPECT_EQ(g.outNeighbors(0)[0], 1u);
    EXPECT_EQ(g.inNeighbors(0)[0], 2u);
    EXPECT_EQ(g.outWeights(0)[0], 5);
}

TEST(Builder, SymmetrizeDoublesArcs)
{
    BuildOptions opts;
    opts.symmetrize = true;
    Graph g = buildGraph(3, triangleEdges(), opts);
    EXPECT_TRUE(g.symmetric());
    EXPECT_EQ(g.numArcs(), 6u);
    EXPECT_EQ(g.numEdges(), 3u);
    for (VertexId v = 0; v < 3; ++v) {
        EXPECT_EQ(g.outDegree(v), 2u);
        EXPECT_EQ(g.inDegree(v), 2u);
    }
}

TEST(Builder, RemovesSelfLoops)
{
    EdgeList edges{{0, 0, 1}, {0, 1, 1}, {1, 1, 1}};
    Graph g = buildGraph(2, edges);
    EXPECT_EQ(g.numArcs(), 1u);
}

TEST(Builder, KeepsSelfLoopsWhenAsked)
{
    BuildOptions opts;
    opts.remove_self_loops = false;
    EdgeList edges{{0, 0, 1}, {0, 1, 1}};
    Graph g = buildGraph(2, edges, opts);
    EXPECT_EQ(g.numArcs(), 2u);
}

TEST(Builder, Deduplicates)
{
    EdgeList edges{{0, 1, 9}, {0, 1, 2}, {0, 1, 5}};
    Graph g = buildGraph(2, edges);
    EXPECT_EQ(g.numArcs(), 1u);
    // Dedup keeps the smallest weight.
    EXPECT_EQ(g.outWeights(0)[0], 2);
}

TEST(Builder, NoDedupKeepsParallelEdges)
{
    BuildOptions opts;
    opts.deduplicate = false;
    EdgeList edges{{0, 1, 9}, {0, 1, 2}};
    Graph g = buildGraph(2, edges, opts);
    EXPECT_EQ(g.numArcs(), 2u);
}

TEST(Builder, NeighborsAreSorted)
{
    EdgeList edges{{0, 3, 1}, {0, 1, 1}, {0, 2, 1}};
    Graph g = buildGraph(4, edges);
    const auto nbrs = g.outNeighbors(0);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Builder, EmptyGraph)
{
    Graph g = buildGraph(5, {});
    EXPECT_EQ(g.numVertices(), 5u);
    EXPECT_EQ(g.numArcs(), 0u);
    EXPECT_TRUE(g.validate());
}

TEST(Graph, EdgeBaseIndices)
{
    EdgeList edges{{0, 1, 1}, {0, 2, 1}, {1, 2, 1}};
    Graph g = buildGraph(3, edges);
    EXPECT_EQ(g.outEdgeBase(0), 0u);
    EXPECT_EQ(g.outEdgeBase(1), 2u);
    EXPECT_EQ(g.outEdgeBase(2), 3u);
}

TEST(Graph, PermutedPreservesStructure)
{
    EdgeList edges{{0, 1, 4}, {1, 2, 5}, {2, 0, 6}, {0, 2, 7}};
    Graph g = buildGraph(3, edges);
    // Rename: 0->2, 1->0, 2->1.
    Graph p = g.permuted({2, 0, 1});
    EXPECT_TRUE(p.validate());
    EXPECT_EQ(p.numArcs(), g.numArcs());
    // Edge 0->1 (w=4) becomes 2->0.
    bool found = false;
    const auto nbrs = p.outNeighbors(2);
    const auto ws = p.outWeights(2);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] == 0 && ws[i] == 4)
            found = true;
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(p.outDegree(2), g.outDegree(0));
    EXPECT_EQ(p.inDegree(0), g.inDegree(1));
}

TEST(Graph, RenumberedIsPermutedByTheInverse)
{
    EdgeList edges{{0, 1, 4}, {1, 2, 5}, {2, 0, 6}, {0, 2, 7}};
    Graph g = buildGraph(3, edges);
    // perm {2, 0, 1} sends old 1 to new 0, old 2 to 1 and old 0 to 2.
    const Graph a = g.permuted({2, 0, 1});
    const Graph b = g.renumbered({1, 2, 0});
    for (VertexId v = 0; v < 3; ++v) {
        const auto an = a.outNeighbors(v);
        const auto bn = b.outNeighbors(v);
        EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()));
        const auto ai = a.inNeighbors(v);
        const auto bi = b.inNeighbors(v);
        EXPECT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()));
    }
}

TEST(Graph, RenamingMustBeAPermutation)
{
    Graph g = buildGraph(3, {{0, 1, 1}, {1, 2, 1}});
    EXPECT_DEATH((void)g.permuted({0, 0, 1}), "not a permutation");
    EXPECT_DEATH((void)g.permuted({0, 1, 3}), "permutation entry");
    EXPECT_DEATH((void)g.renumbered({2, 1, 2}), "not a permutation");
    EXPECT_DEATH((void)g.renumbered({0, 1}), "ordering size");
}

TEST(Graph, ToEdgeListRoundTrip)
{
    EdgeList edges{{0, 1, 4}, {1, 2, 5}, {2, 0, 6}};
    Graph g = buildGraph(3, edges);
    EdgeList back = g.toEdgeList();
    Graph g2 = buildGraph(3, back);
    EXPECT_EQ(g2.numArcs(), g.numArcs());
    for (VertexId v = 0; v < 3; ++v) {
        EXPECT_EQ(g2.outDegree(v), g.outDegree(v));
        EXPECT_EQ(g2.inDegree(v), g.inDegree(v));
    }
}

TEST(Io, ReadEdgeListWithComments)
{
    std::istringstream is("# comment\n0 1 5\n1 2\n% also comment\n\n2 0 3\n");
    VertexId max_v = 0;
    EdgeList edges = readEdgeList(is, max_v);
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(max_v, 2u);
    EXPECT_EQ(edges[0].weight, 5);
    EXPECT_EQ(edges[1].weight, 1); // default weight
}

TEST(Io, WriteReadRoundTrip)
{
    EdgeList edges{{0, 1, 4}, {1, 2, 5}, {2, 0, 6}};
    Graph g = buildGraph(3, edges);
    std::ostringstream os;
    writeEdgeList(os, g);
    std::istringstream is(os.str());
    VertexId max_v = 0;
    EdgeList back = readEdgeList(is, max_v);
    Graph g2 = buildGraph(max_v + 1, back);
    EXPECT_EQ(g2.numArcs(), g.numArcs());
    EXPECT_EQ(g2.outWeights(1)[0], 5);
}

} // namespace
} // namespace omega
