/**
 * @file
 * Unit tests for the set-associative cache array, under both row scans.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/cache.hh"
#include "tag_scan.hh"

namespace omega {
namespace {

using CacheArrayTest = EveryTagScan;

INSTANTIATE_TEST_SUITE_P(TagScan, CacheArrayTest, ::testing::Bool(),
                         [](const auto &info) {
                             return tagScanName(info.param);
                         });

TEST_P(CacheArrayTest, TakesTheRequestedRowScan)
{
    // Only an 8-way array can take the AVX2 scan, and only where the CPU
    // has AVX2 and the scalar scan is not forced.
    const CacheArray eight(32 * 1024, 8, 64);
    const CacheArray four(32 * 1024, 4, 64);
    RecordProperty("tag_scan", eight.tagScanKernel());
    const bool avx2 = !GetParam() && __builtin_cpu_supports("avx2");
    EXPECT_EQ(std::string(eight.tagScanKernel()), avx2 ? "avx2" : "scalar");
    EXPECT_EQ(std::string(four.tagScanKernel()), "scalar");
}

TEST_P(CacheArrayTest, GeometryFromSize)
{
    CacheArray c(32 * 1024, 8, 64);
    EXPECT_EQ(c.lineBytes(), 64u);
    EXPECT_EQ(c.numWays(), 8u);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.sizeBytes(), 32u * 1024u);
}

TEST_P(CacheArrayTest, TinySizeStillHasOneSet)
{
    CacheArray c(64, 8, 64);
    EXPECT_EQ(c.numSets(), 1u);
    EXPECT_EQ(c.sizeBytes(), 8u * 64u);
}

TEST_P(CacheArrayTest, MissThenHit)
{
    CacheArray c(4 * 1024, 4, 64);
    auto r1 = c.access(0x1000);
    EXPECT_FALSE(r1.hit);
    r1.line->state = LineState::Exclusive;
    auto r2 = c.access(0x1000);
    EXPECT_TRUE(r2.hit);
    // Same line, different byte offset.
    auto r3 = c.access(0x103F);
    EXPECT_TRUE(r3.hit);
    // Next line misses.
    auto r4 = c.access(0x1040);
    EXPECT_FALSE(r4.hit);
}

TEST_P(CacheArrayTest, LruEvictsOldest)
{
    // 2-way, 1 set: third distinct line evicts the least recently used.
    CacheArray c(128, 2, 64);
    c.access(0x0000).line->state = LineState::Exclusive;
    c.access(0x1000).line->state = LineState::Exclusive;
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(c.access(0x0000).hit);
    auto r = c.access(0x2000);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_addr, 0x1000u);
    r.line->state = LineState::Exclusive;
    EXPECT_TRUE(c.access(0x0000).hit);
    EXPECT_TRUE(c.access(0x2000).hit);
    EXPECT_FALSE(c.probe(0x1000));
}

TEST_P(CacheArrayTest, VictimSnapshotPreserved)
{
    CacheArray c(64, 1, 64);
    auto r1 = c.access(0x0000);
    r1.line->state = LineState::Modified;
    r1.line->sharers = 0x5;
    r1.line->dirty = true;
    auto r2 = c.access(0x4000);
    ASSERT_TRUE(r2.evicted);
    EXPECT_EQ(r2.victim.state, LineState::Modified);
    EXPECT_EQ(r2.victim.sharers, 0x5);
    EXPECT_TRUE(r2.victim.dirty);
    // The new line starts clean.
    EXPECT_EQ(r2.line->state, LineState::Invalid);
    EXPECT_EQ(r2.line->sharers, 0);
}

TEST_P(CacheArrayTest, InvalidateRemovesLine)
{
    CacheArray c(4 * 1024, 4, 64);
    c.access(0x40).line->state = LineState::Shared;
    EXPECT_TRUE(c.probe(0x40));
    c.invalidate(0x40);
    EXPECT_FALSE(c.probe(0x40));
    // Invalidating a missing line is a no-op.
    c.invalidate(0x9999940);
}

TEST_P(CacheArrayTest, ProbeDoesNotAllocate)
{
    CacheArray c(4 * 1024, 4, 64);
    EXPECT_EQ(c.probe(0x80), nullptr);
    EXPECT_EQ(c.probe(0x80), nullptr);
}

TEST_P(CacheArrayTest, InvalidWaysPreferredOverEviction)
{
    CacheArray c(256, 4, 64); // 1 set, 4 ways
    c.access(0x0000).line->state = LineState::Exclusive;
    c.access(0x1000).line->state = LineState::Exclusive;
    auto r = c.access(0x2000); // two ways still free
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted);
}

TEST_P(CacheArrayTest, FlushClearsAll)
{
    CacheArray c(1024, 2, 64);
    for (std::uint64_t a = 0; a < 8; ++a)
        c.access(a * 64).line->state = LineState::Shared;
    c.flush();
    for (std::uint64_t a = 0; a < 8; ++a)
        EXPECT_EQ(c.probe(a * 64), nullptr);
}

TEST_P(CacheArrayTest, LineAddrMasksOffset)
{
    CacheArray c(1024, 2, 64);
    EXPECT_EQ(c.lineAddr(0x1234), 0x1200u);
    EXPECT_EQ(c.lineAddr(0x1240), 0x1240u);
}

TEST_P(CacheArrayTest, SetIndexSeparatesLines)
{
    // 64 sets: addresses 64 B apart land in consecutive sets and never
    // evict each other until the capacity wraps.
    CacheArray c(32 * 1024, 8, 64); // 64 sets x 8 ways
    for (std::uint64_t i = 0; i < 64; ++i) {
        auto r = c.access(i * 64);
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.evicted);
        r.line->state = LineState::Exclusive;
    }
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_TRUE(c.access(i * 64).hit);
}

} // namespace
} // namespace omega
