/**
 * @file
 * Tests for the source-vertex buffer (paper section V.C).
 */

#include <gtest/gtest.h>

#include "omega/source_vertex_buffer.hh"

namespace omega {
namespace {

TEST(Svb, MissThenHit)
{
    SourceVertexBuffer svb(4);
    EXPECT_FALSE(svb.lookupAndFill(10, 0));
    EXPECT_TRUE(svb.lookupAndFill(10, 0));
    EXPECT_EQ(svb.hits(), 1u);
    EXPECT_EQ(svb.misses(), 1u);
}

TEST(Svb, PropIndexDistinguishesEntries)
{
    SourceVertexBuffer svb(4);
    svb.lookupAndFill(10, 0);
    EXPECT_FALSE(svb.lookupAndFill(10, 1)); // different prop -> miss
    EXPECT_TRUE(svb.lookupAndFill(10, 1));
}

TEST(Svb, LruEviction)
{
    SourceVertexBuffer svb(2);
    svb.lookupAndFill(1, 0);
    svb.lookupAndFill(2, 0);
    svb.lookupAndFill(1, 0);       // touch 1: entry 2 is now LRU
    svb.lookupAndFill(3, 0);       // evicts 2
    EXPECT_TRUE(svb.contains(1, 0));
    EXPECT_FALSE(svb.contains(2, 0));
    EXPECT_TRUE(svb.contains(3, 0));
}

TEST(Svb, InvalidateAllPerIteration)
{
    SourceVertexBuffer svb(4);
    svb.lookupAndFill(5, 0);
    svb.invalidateAll();
    EXPECT_FALSE(svb.contains(5, 0));
    EXPECT_FALSE(svb.lookupAndFill(5, 0)); // misses again
}

TEST(Svb, ZeroCapacityAlwaysMisses)
{
    SourceVertexBuffer svb(0);
    EXPECT_FALSE(svb.lookupAndFill(1, 0));
    EXPECT_FALSE(svb.lookupAndFill(1, 0));
    EXPECT_EQ(svb.hits(), 0u);
    EXPECT_EQ(svb.misses(), 2u);
}

TEST(Svb, RepeatedSourceReadsMostlyHit)
{
    // The SSSP pattern: one source read per outgoing edge.
    SourceVertexBuffer svb(16);
    const int degree = 50;
    for (int e = 0; e < degree; ++e)
        svb.lookupAndFill(7, 0);
    EXPECT_EQ(svb.misses(), 1u);
    EXPECT_EQ(svb.hits(), static_cast<std::uint64_t>(degree - 1));
}

TEST(Svb, CapacityReported)
{
    SourceVertexBuffer svb(16);
    EXPECT_EQ(svb.capacity(), 16u);
}

} // namespace
} // namespace omega
