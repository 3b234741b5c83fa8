/**
 * @file
 * Tests for the DRAM channel model and crossbar accounting.
 */

#include <gtest/gtest.h>

#include "sim/crossbar.hh"
#include "sim/dram.hh"

namespace omega {
namespace {

MachineParams
params()
{
    return MachineParams::baseline();
}

TEST(Dram, UnloadedLatencyIsBasePlusTransfer)
{
    Dram d(params());
    const Cycles lat = d.read(1000, 0x0, 64);
    EXPECT_GE(lat, params().dram_latency);
    EXPECT_LE(lat, params().dram_latency + 16);
    EXPECT_EQ(d.reads(), 1u);
    EXPECT_EQ(d.readBytes(), 64u);
}

TEST(Dram, ChannelSelectionByLine)
{
    Dram d(params());
    // Consecutive lines hash to different channels -> no queueing.
    Cycles base = d.read(0, 0 * 64, 64);
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(d.read(0, i * 64, 64), base);
}

TEST(Dram, SameChannelQueues)
{
    Dram d(params());
    const Cycles l1 = d.read(0, 0x0, 64);
    // Same line address -> same channel, issued at the same time: the
    // second request waits for the first transfer slot.
    const Cycles l2 = d.read(0, 0x0, 64);
    EXPECT_GT(l2, l1);
    EXPECT_GT(d.queueCycles(), 0u);
}

TEST(Dram, BandwidthSaturationGrowsQueue)
{
    Dram d(params());
    // Hammer one channel far above its service rate.
    Cycles last = 0;
    for (int i = 0; i < 100; ++i)
        last = d.read(0, 0x0, 64);
    // 100 transfers of ~11 cycles each must push latency near 1100.
    EXPECT_GT(last, 500u);
}

TEST(Dram, LoadSpreadsWhenChannelsIdle)
{
    Dram d(params());
    // Issue at widely spaced times: no queueing.
    for (int i = 0; i < 10; ++i) {
        const Cycles lat = d.read(i * 10000, 0x0, 64);
        EXPECT_LE(lat, params().dram_latency + 16);
    }
    EXPECT_EQ(d.queueCycles(), 0u);
}

TEST(Dram, PostedWritesConsumeBandwidthOnly)
{
    Dram d(params());
    d.write(0, 0x0, 64);
    EXPECT_EQ(d.writes(), 1u);
    EXPECT_EQ(d.writeBytes(), 64u);
    // A read right after on the same channel queues behind the write.
    const Cycles lat = d.read(0, 0x0, 64);
    EXPECT_GT(lat, params().dram_latency);
}

TEST(Crossbar, LatencyHelpers)
{
    Crossbar x(params());
    EXPECT_EQ(x.oneWay(), params().xbar_latency);
    EXPECT_EQ(x.roundTrip(), 2 * params().xbar_latency + 1);
}

TEST(Crossbar, CacheLineTransferFlits)
{
    Crossbar x(params());
    x.recordTransfer(64); // 64 B + 8 B header = 72 B over 16 B flits = 5
    EXPECT_EQ(x.packets(), 1u);
    EXPECT_EQ(x.bytes(), 72u);
    EXPECT_EQ(x.flits(), 5u);
}

TEST(Crossbar, WordPacketIsSingleFlit)
{
    // The OMEGA word-granularity claim: an 8 B payload plus header fits
    // in one 16 B flit.
    Crossbar x(params());
    x.recordTransfer(8);
    EXPECT_EQ(x.flits(), 1u);
    EXPECT_EQ(x.bytes(), 16u);
}

TEST(Crossbar, ControlPacketsAreHeaderOnly)
{
    Crossbar x(params());
    x.recordControl();
    x.recordControl();
    EXPECT_EQ(x.packets(), 2u);
    EXPECT_EQ(x.bytes(), 16u);
    EXPECT_EQ(x.flits(), 2u);
}

TEST(Crossbar, LineVsWordTrafficRatio)
{
    // Fig-17 intuition: per access, a cache-line transfer costs ~4.5x the
    // bytes of a word packet.
    Crossbar line(params());
    Crossbar word(params());
    for (int i = 0; i < 100; ++i) {
        line.recordTransfer(64);
        word.recordTransfer(8);
    }
    EXPECT_GT(static_cast<double>(line.bytes()) /
                  static_cast<double>(word.bytes()),
              4.0);
}

} // namespace
} // namespace omega
