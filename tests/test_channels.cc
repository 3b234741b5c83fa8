/**
 * @file
 * Tests for the parameterized DRAM channel design space.
 *
 * The bench_channels sweep varies dram_channels across 1-16; these tests
 * pin the model properties the sweep's numbers rest on:
 *  - the address-to-channel mapping is a partition of the line address
 *    space (every line lands on exactly one valid channel, and the
 *    line-interleaved formula is honored for pow2 and non-pow2 counts);
 *  - per-channel busy/request accounting is conservative: it sums to the
 *    single-channel totals of the same request stream, and collapses to
 *    exactly those totals at 1 channel;
 *  - adding channels never slows the same workload down, open loop
 *    (fuzzed arrival stream through the raw Dram model) and closed loop
 *    (a full machine run, the bench_channels configuration).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.hh"
#include "sim/dram.hh"
#include "sim/params.hh"
#include "util/rng.hh"

namespace omega {
namespace {

MachineParams
paramsWithChannels(unsigned channels)
{
    MachineParams p = MachineParams::baseline();
    p.dram_channels = channels;
    return p;
}

/** Fuzzed open-loop request stream: non-decreasing issue times. */
struct Request
{
    Cycles now = 0;
    std::uint64_t addr = 0;
    bool is_write = false;
};

std::vector<Request>
fuzzedStream(std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<Request> reqs;
    Cycles now = 0;
    for (int i = 0; i < n; ++i) {
        now += rng.nextBounded(8);
        Request r;
        r.now = now;
        // Spread over many lines with some locality-free churn.
        r.addr = rng.nextBounded(1 << 20);
        r.is_write = rng.nextBool(0.25);
        reqs.push_back(r);
    }
    return reqs;
}

/** Replay @p reqs; returns the last data-return time (makespan). */
Cycles
replay(Dram &dram, const std::vector<Request> &reqs)
{
    Cycles makespan = 0;
    for (const Request &r : reqs) {
        if (r.is_write) {
            dram.write(r.now, r.addr, 64);
        } else {
            const Cycles lat = dram.read(r.now, r.addr, 64);
            makespan = std::max(makespan, r.now + lat);
        }
    }
    return makespan;
}

// ---------------------------------------------------------------------
// Partition property of the address-to-channel mapping.
// ---------------------------------------------------------------------

TEST(DramChannels, ChannelMappingIsAPartition)
{
    for (unsigned channels : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u}) {
        Dram dram(paramsWithChannels(channels));
        ASSERT_EQ(dram.numChannels(), channels);
        std::vector<std::uint64_t> lines_per_channel(channels, 0);
        Rng rng(0xBEEF ^ channels);
        for (int i = 0; i < 4096; ++i) {
            const std::uint64_t addr = rng.nextBounded(std::uint64_t(1)
                                                       << 32);
            const unsigned ch = dram.channelOf(addr);
            // In range, line-interleaved, and offset-independent: every
            // byte of a line maps where its line maps.
            ASSERT_LT(ch, channels);
            ASSERT_EQ(ch, (addr / 64) % channels);
            ASSERT_EQ(ch, dram.channelOf(addr & ~std::uint64_t{63}));
            ++lines_per_channel[ch];
        }
        // Round-robin interleave: no channel starves.
        for (unsigned ch = 0; ch < channels; ++ch)
            EXPECT_GT(lines_per_channel[ch], 0u) << channels << " channels";
    }
}

// ---------------------------------------------------------------------
// Per-channel accounting identities.
// ---------------------------------------------------------------------

TEST(DramChannels, BusyAccountingSumsToSingleChannelTotals)
{
    const auto reqs = fuzzedStream(0x5EED, 20000);

    // The reference: everything serialized on one channel.
    Dram one(paramsWithChannels(1));
    replay(one, reqs);
    ASSERT_EQ(one.channelBusyCycles().size(), 1u);
    ASSERT_EQ(one.channelRequests().size(), 1u);
    const Cycles total_busy = one.channelBusyCycles()[0];
    const std::uint64_t total_reqs = one.channelRequests()[0];
    EXPECT_EQ(total_reqs, one.reads() + one.writes());
    EXPECT_GT(total_busy, 0u);

    // Occupancy per transfer is a per-channel property (fixed GB/s per
    // channel), so distributing the same stream over any channel count
    // conserves both sums exactly.
    for (unsigned channels : {2u, 3u, 4u, 8u, 16u}) {
        Dram dram(paramsWithChannels(channels));
        replay(dram, reqs);
        Cycles busy_sum = 0;
        for (Cycles b : dram.channelBusyCycles())
            busy_sum += b;
        std::uint64_t req_sum = 0;
        for (std::uint64_t r : dram.channelRequests())
            req_sum += r;
        EXPECT_EQ(busy_sum, total_busy) << channels << " channels";
        EXPECT_EQ(req_sum, total_reqs) << channels << " channels";
        EXPECT_EQ(req_sum, dram.reads() + dram.writes());
    }
}

// ---------------------------------------------------------------------
// More channels never hurt.
// ---------------------------------------------------------------------

TEST(DramChannels, OpenLoopMakespanMonotoneNonIncreasing)
{
    // Doubling the channel count refines the partition (addr mod 2C
    // splits each addr mod C class), so each channel serves a
    // subsequence of the coarser stream and no request can start later.
    const auto reqs = fuzzedStream(0xF00D, 20000);
    Cycles prev_makespan = ~Cycles{0};
    Cycles prev_queue = ~Cycles{0};
    for (unsigned channels : {1u, 2u, 4u, 8u, 16u}) {
        Dram dram(paramsWithChannels(channels));
        const Cycles makespan = replay(dram, reqs);
        EXPECT_LE(makespan, prev_makespan) << channels << " channels";
        EXPECT_LE(dram.queueCycles(), prev_queue)
            << channels << " channels";
        prev_makespan = makespan;
        prev_queue = dram.queueCycles();
    }
}

TEST(DramChannels, SweepCyclesMonotoneNonIncreasingOnMachine)
{
    // Closed loop: the bench_channels configuration itself (PageRank on
    // the smallest power-law dataset, baseline machine). Latency relief
    // feeds back into issue times here, so this is the property the
    // sweep table's speedup column relies on.
    const DatasetSpec spec = *findDataset("sd");
    std::uint64_t prev_cycles = ~std::uint64_t{0};
    for (unsigned channels : {1u, 2u, 4u, 8u, 16u}) {
        const auto out = bench::runOn(
            spec, AlgorithmKind::PageRank, bench::MachineKind::Baseline,
            [channels](MachineParams &p) { p.dram_channels = channels; });
        EXPECT_LE(out.cycles, prev_cycles) << channels << " channels";
        prev_cycles = out.cycles;
    }
}

} // namespace
} // namespace omega
