/**
 * @file
 * Disk round-trip tests for the edge-list I/O (SNAP-compatible format),
 * exercising the path a user takes to feed real datasets into omega_sim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <fstream>

#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "util/rng.hh"

namespace omega {
namespace {

class IoFiles : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("omega_io_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

TEST_F(IoFiles, SaveLoadRoundTrip)
{
    Rng rng(3);
    Graph g = buildGraph(1 << 8, generateRmat(8, 6, rng));
    saveGraphFile(path("g.el"), g);
    Graph back = loadGraphFile(path("g.el"));
    ASSERT_EQ(back.numArcs(), g.numArcs());
    // An edge list cannot represent trailing isolated vertices, so the
    // loaded graph may be smaller — but never larger.
    ASSERT_LE(back.numVertices(), g.numVertices());
    // Degrees and weights survive byte-for-byte.
    for (VertexId v = 0; v < back.numVertices(); ++v) {
        ASSERT_EQ(back.outDegree(v), g.outDegree(v)) << v;
        const auto a = g.outWeights(v);
        const auto b = back.outWeights(v);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]);
    }
}

TEST_F(IoFiles, LoadAppliesBuildOptions)
{
    {
        std::ofstream os(path("dup.el"));
        os << "0 1 5\n0 1 9\n1 1 2\n1 2 3\n";
    }
    Graph g = loadGraphFile(path("dup.el"));
    // Dedup + self-loop removal by default.
    EXPECT_EQ(g.numArcs(), 2u);
    BuildOptions keep;
    keep.deduplicate = false;
    keep.remove_self_loops = false;
    Graph raw = loadGraphFile(path("dup.el"), keep);
    EXPECT_EQ(raw.numArcs(), 4u);
}

TEST_F(IoFiles, LoadSymmetrizes)
{
    {
        std::ofstream os(path("tri.el"));
        os << "0 1\n1 2\n2 0\n";
    }
    BuildOptions opts;
    opts.symmetrize = true;
    Graph g = loadGraphFile(path("tri.el"), opts);
    EXPECT_TRUE(g.symmetric());
    EXPECT_EQ(g.numArcs(), 6u);
    EXPECT_EQ(g.numEdges(), 3u);
}

TEST_F(IoFiles, SnapStyleCommentsAndBlankLines)
{
    {
        std::ofstream os(path("snap.el"));
        os << "# Directed graph (each unordered pair of nodes is saved "
              "once)\n"
           << "# FromNodeId\tToNodeId\n"
           << "\n"
           << "0\t5\n"
           << "5\t7\n";
    }
    Graph g = loadGraphFile(path("snap.el"));
    EXPECT_EQ(g.numVertices(), 8u);
    EXPECT_EQ(g.numArcs(), 2u);
}

TEST_F(IoFiles, EmptyFileYieldsEmptyGraph)
{
    {
        std::ofstream os(path("empty.el"));
        os << "# nothing here\n";
    }
    Graph g = loadGraphFile(path("empty.el"));
    EXPECT_EQ(g.numVertices(), 0u);
    EXPECT_EQ(g.numArcs(), 0u);
}

TEST_F(IoFiles, RoundTripPreservesIsolatedTrailingVertices)
{
    // The "# vertices N" header pins the count, so trailing vertices
    // with no edges survive a disk round trip.
    EdgeList edges;
    edges.push_back({0, 1, 1});
    Graph g = buildGraph(10, std::move(edges));
    saveGraphFile(path("iso.el"), g);
    Graph back = loadGraphFile(path("iso.el"));
    EXPECT_EQ(back.numVertices(), 10u);
    EXPECT_EQ(back.numArcs(), 1u);
}

TEST_F(IoFiles, RejectsNegativeVertexIds)
{
    {
        std::ofstream os(path("neg.el"));
        os << "0 1\n-3 2\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("neg.el")),
                 "invalid source vertex");
}

TEST_F(IoFiles, RejectsNonNumericTokens)
{
    {
        std::ofstream os(path("garbage.el"));
        os << "0 1\n2 banana\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("garbage.el")),
                 "invalid destination vertex");
}

TEST_F(IoFiles, RejectsTruncatedEdgeLine)
{
    {
        std::ofstream os(path("trunc.el"));
        os << "0 1\n7\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("trunc.el")),
                 "malformed edge list line 2");
}

TEST_F(IoFiles, RejectsOverflowingVertexIds)
{
    {
        std::ofstream os(path("huge.el"));
        // 2^64 overflows, and VertexId::max() itself is rejected because
        // numVertices = max_vertex + 1 would wrap to zero.
        os << "18446744073709551616 1\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("huge.el")),
                 "invalid source vertex");
    {
        std::ofstream os(path("wrap.el"));
        os << "0 4294967295\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("wrap.el")),
                 "invalid destination vertex");
}

TEST_F(IoFiles, RejectsOutOfRangeWeights)
{
    {
        std::ofstream os(path("weight.el"));
        os << "0 1 9999999999999\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("weight.el")),
                 "invalid weight");
}

TEST_F(IoFiles, RejectsTrailingGarbage)
{
    {
        std::ofstream os(path("extra.el"));
        os << "0 1 2 3\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("extra.el")),
                 "trailing token");
}

TEST_F(IoFiles, RejectsEdgeOutsideDeclaredRange)
{
    {
        std::ofstream os(path("oob.el"));
        os << "# vertices 4 arcs 2 directed\n"
           << "0 1\n"
           << "2 9\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("oob.el")),
                 "declares 4 vertices");
}

TEST_F(IoFiles, RejectsCorruptVertexHeader)
{
    {
        std::ofstream os(path("badhdr.el"));
        os << "# vertices -12 arcs 1 directed\n"
           << "0 1\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("badhdr.el")),
                 "invalid vertex count");
}

TEST_F(IoFiles, RejectsHugeDeclaredVertexCount)
{
    // Accepted by the header parser (it fits VertexId), but building
    // would allocate ~32 GiB of offsets for a one-edge graph.
    {
        std::ofstream os(path("hugehdr.el"));
        os << "# vertices 4294967295 arcs 1 directed\n"
           << "0 1\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("hugehdr.el")),
                 "too many vertices: 4294967295");
}

TEST_F(IoFiles, RejectsHugeImpliedVertexCount)
{
    // The largest id a line may name; n = id + 1 is out of bounds.
    {
        std::ofstream os(path("hugeid.el"));
        os << "0 4294967294\n";
    }
    EXPECT_DEATH((void)loadGraphFile(path("hugeid.el")),
                 "too many vertices: 4294967295");
}

TEST_F(IoFiles, NegativeWeightsAreValid)
{
    {
        std::ofstream os(path("negw.el"));
        os << "0 1 -5\n";
    }
    Graph g = loadGraphFile(path("negw.el"));
    ASSERT_EQ(g.numArcs(), 1u);
    EXPECT_EQ(g.outWeights(0)[0], -5);
}

TEST_F(IoFiles, LargeRoundTripPreservesDegreeDistribution)
{
    Rng rng(9);
    Graph g = buildGraph(1 << 12, generateRmat(12, 8, rng));
    saveGraphFile(path("big.el"), g);
    Graph back = loadGraphFile(path("big.el"));
    EdgeId max_in_a = 0;
    EdgeId max_in_b = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        max_in_a = std::max(max_in_a, g.inDegree(v));
    for (VertexId v = 0; v < back.numVertices(); ++v)
        max_in_b = std::max(max_in_b, back.inDegree(v));
    EXPECT_EQ(max_in_a, max_in_b);
}

} // namespace
} // namespace omega
