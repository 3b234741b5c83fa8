/**
 * @file
 * Tests for the PISC engine: microcode occupancy, serialization and
 * queueing on a hot home scratchpad.
 */

#include <gtest/gtest.h>

#include "omega/pisc.hh"

namespace omega {
namespace {

TEST(Pisc, LoadMicrocodeSetsOccupancy)
{
    Pisc p;
    p.loadMicrocode(3, 6);
    EXPECT_EQ(p.programId(), 3u);
    EXPECT_EQ(p.programCycles(), 6u);
}

TEST(Pisc, ZeroLengthProgramClampedToOne)
{
    Pisc p;
    p.loadMicrocode(1, 0);
    EXPECT_EQ(p.programCycles(), 1u);
}

TEST(Pisc, ExecuteAdvancesBusyUntil)
{
    Pisc p;
    p.loadMicrocode(1, 4);
    EXPECT_EQ(p.execute(100), 104u);
    EXPECT_EQ(p.busyUntil(), 104u);
    EXPECT_EQ(p.ops(), 1u);
    EXPECT_EQ(p.busyCycles(), 4u);
}

TEST(Pisc, BackToBackExecutionsSerialize)
{
    Pisc p;
    p.loadMicrocode(1, 4);
    p.execute(100);
    // Arrives while busy: queues.
    EXPECT_EQ(p.execute(101), 108u);
    EXPECT_EQ(p.queueCycles(), 3u);
}

TEST(Pisc, IdleGapResetsQueueing)
{
    Pisc p;
    p.loadMicrocode(1, 4);
    p.execute(100);
    EXPECT_EQ(p.execute(200), 204u);
    EXPECT_EQ(p.queueCycles(), 0u);
}

TEST(Pisc, SaturationThroughputIsProgramLength)
{
    Pisc p;
    p.loadMicrocode(1, 5);
    Cycles done = 0;
    for (int i = 0; i < 100; ++i)
        done = p.execute(0);
    EXPECT_EQ(done, 500u);
    EXPECT_EQ(p.busyCycles(), 500u);
}

TEST(Pisc, ExtendBusyAddsToCurrentExecution)
{
    Pisc p;
    p.loadMicrocode(1, 4);
    p.execute(10);
    p.extendBusy(3);
    EXPECT_EQ(p.busyUntil(), 17u);
    EXPECT_EQ(p.busyCycles(), 7u);
}

} // namespace
} // namespace omega
