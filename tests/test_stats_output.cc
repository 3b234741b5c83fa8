/**
 * @file
 * Tests for StatsReport accumulation and the derived metrics the
 * bench harnesses depend on.
 */

#include <gtest/gtest.h>

#include "sim/stats_report.hh"
#include "util/json.hh"

namespace omega {
namespace {

StatsReport
sample()
{
    StatsReport r;
    r.cycles = 2'000'000;
    r.instructions = 800'000;
    r.l1_accesses = 1'000'000;
    r.l1_hits = 700'000;
    r.l2_accesses = 300'000;
    r.l2_hits = 150'000;
    r.sp_accesses = 50'000;
    r.dram_read_bytes = 12'000'000;
    r.dram_write_bytes = 4'000'000;
    r.compute_cycles = 100'000;
    r.mem_stall_cycles = 500'000;
    r.atomic_stall_cycles = 300'000;
    r.sync_stall_cycles = 100'000;
    r.vtxprop_accesses = 400'000;
    r.vtxprop_hot_accesses = 300'000;
    return r;
}

TEST(StatsReport, HitRates)
{
    const StatsReport r = sample();
    EXPECT_DOUBLE_EQ(r.l1HitRate(), 0.7);
    EXPECT_DOUBLE_EQ(r.l2HitRate(), 0.5);
    // Last-level storage counts scratchpad accesses as hits.
    EXPECT_DOUBLE_EQ(r.lastLevelHitRate(),
                     (150'000.0 + 50'000.0) / 350'000.0);
}

TEST(StatsReport, HitRatesZeroSafe)
{
    StatsReport r;
    EXPECT_DOUBLE_EQ(r.l1HitRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.lastLevelHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.dramBandwidthGBs(2.0), 0.0);
    EXPECT_DOUBLE_EQ(r.memoryBoundFraction(), 0.0);
}

TEST(StatsReport, BandwidthMath)
{
    const StatsReport r = sample();
    // 16 MB over 1 ms (2M cycles at 2 GHz) = 16 GB/s.
    EXPECT_NEAR(r.dramBandwidthGBs(2.0), 16.0, 0.1);
    MachineParams p = MachineParams::baseline(); // 4 x 12 GB/s peak
    EXPECT_NEAR(r.dramBandwidthUtilization(p), 16.0 / 48.0, 0.01);
}

TEST(StatsReport, MemoryBoundFraction)
{
    const StatsReport r = sample();
    EXPECT_DOUBLE_EQ(r.memoryBoundFraction(), 800'000.0 / 1'000'000.0);
}

TEST(StatsReport, HotFraction)
{
    const StatsReport r = sample();
    EXPECT_DOUBLE_EQ(r.hotVertexAccessFraction(), 0.75);
}

TEST(StatsReport, AccumulateSumsCountersNotCycles)
{
    StatsReport a = sample();
    const StatsReport b = sample();
    a.accumulate(b);
    EXPECT_EQ(a.l1_accesses, 2'000'000u);
    EXPECT_EQ(a.dram_read_bytes, 24'000'000u);
    EXPECT_EQ(a.vtxprop_hot_accesses, 600'000u);
    // cycles is a time, not a counter: accumulate leaves it alone.
    EXPECT_EQ(a.cycles, 2'000'000u);
}

TEST(StatsReport, AccumulateTakesMaxForHighWaterMarks)
{
    // Regression: accumulate used to drop pisc_max_busy_cycles and
    // dram_max_queue entirely (they are maxima, not sums, so the plain
    // += loop had skipped them). They must merge as max().
    StatsReport a;
    a.pisc_max_busy_cycles = 700;
    a.dram_max_queue = 40;
    StatsReport b;
    b.pisc_max_busy_cycles = 300;
    b.dram_max_queue = 90;
    a.accumulate(b);
    EXPECT_EQ(a.pisc_max_busy_cycles, 700u);
    EXPECT_EQ(a.dram_max_queue, 90u);
    // And the other direction: a smaller running value is overtaken.
    StatsReport c;
    c.pisc_max_busy_cycles = 9'000;
    a.accumulate(c);
    EXPECT_EQ(a.pisc_max_busy_cycles, 9'000u);
    EXPECT_EQ(a.dram_max_queue, 90u);
}

TEST(StatsReport, FieldsTableCoversTheWholeStruct)
{
    // Every std::uint64_t in StatsReport must be listed exactly once in
    // the reflection table; a forgotten field would silently drop out of
    // accumulate/deltaFrom/dump/writeJson.
    EXPECT_EQ(StatsReport::fields().size() * sizeof(std::uint64_t),
              sizeof(StatsReport));
    // ... and each member pointer must be distinct (member pointers are
    // not orderable, so compare every pair).
    const auto &fields = StatsReport::fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
        for (std::size_t j = i + 1; j < fields.size(); ++j) {
            EXPECT_FALSE(fields[i].member == fields[j].member)
                << fields[i].name << " aliases " << fields[j].name;
        }
    }
}

TEST(StatsReport, DeltaFromSubtractsSumsAndKeepsMaxima)
{
    StatsReport prev = sample();
    StatsReport cur = sample();
    cur.cycles = 3'000'000;
    cur.l1_accesses += 5'000;
    cur.dram_read_bytes += 64;
    cur.pisc_max_busy_cycles = 1'234;
    const StatsReport d = cur.deltaFrom(prev);
    EXPECT_EQ(d.cycles, 1'000'000u);
    EXPECT_EQ(d.l1_accesses, 5'000u);
    EXPECT_EQ(d.dram_read_bytes, 64u);
    EXPECT_EQ(d.l2_accesses, 0u);
    // Max fields carry the cumulative high-water mark through.
    EXPECT_EQ(d.pisc_max_busy_cycles, 1'234u);
}

TEST(StatsReport, DeltasSumBackToCumulative)
{
    // Chained snapshots: the sum of the deltas equals the last cumulative
    // report (the interval-series accounting identity).
    StatsReport s1;
    s1.cycles = 100;
    s1.l1_accesses = 10;
    StatsReport s2 = s1;
    s2.cycles = 250;
    s2.l1_accesses = 17;
    s2.dram_reads = 3;
    StatsReport total;
    total.accumulate(s1.deltaFrom(StatsReport{}));
    total.accumulate(s2.deltaFrom(s1));
    EXPECT_EQ(total.l1_accesses, s2.l1_accesses);
    EXPECT_EQ(total.dram_reads, s2.dram_reads);
}

} // namespace
} // namespace omega
