/**
 * @file
 * Tests for the stream-prefetch model and its interaction with the DRAM
 * bandwidth feedback loop.
 */

#include <gtest/gtest.h>

#include "sim/baseline_machine.hh"
#include "sim/coherence.hh"
#include "sim/dram.hh"

namespace omega {
namespace {

/** Deliver one engine event, as the engine's live emits do. */
void
issue(MemorySystem &m, unsigned core, const EngineOp &op)
{
    m.replayOps(core, {&op, 1});
}

TEST(Prefetch, UnloadedStreamMissHidesBaseLatency)
{
    Dram d(MachineParams::baseline());
    const Cycles demand = d.read(0, 0x0, 64, /*prefetched=*/false);
    const Cycles stream = d.read(100000, 0x40000, 64, /*prefetched=*/true);
    EXPECT_GE(demand, MachineParams::baseline().dram_latency);
    EXPECT_LT(stream, 20u); // transfer time only
}

TEST(Prefetch, QueueingStillReachesPrefetchedReads)
{
    // Bandwidth is a hard bound: a prefetched read behind a busy channel
    // pays the queue even though the base latency is hidden.
    Dram d(MachineParams::baseline());
    for (int i = 0; i < 50; ++i)
        d.read(0, 0x0, 64, true); // hammer one channel at t=0
    const Cycles lat = d.read(0, 0x0, 64, true);
    EXPECT_GT(lat, 400u);
}

TEST(Prefetch, HierarchySequentialFlagPropagates)
{
    MachineParams p = MachineParams::baseline();
    p.l1d.size_bytes = 1024;
    p.l2.size_bytes = 16 * 1024;
    CacheHierarchy h(p);
    // Cold miss, non-sequential: pays DRAM base latency.
    const Cycles demand = h.access(0, 0x100000, false, 0, false);
    // Cold miss far away, sequential: base latency hidden.
    const Cycles stream = h.access(0, 0x200000, false, 1000000, true);
    EXPECT_GT(demand, p.dram_latency);
    EXPECT_LT(stream, p.dram_latency);
}

TEST(Prefetch, MachineRespectsStreamPrefetchSwitch)
{
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 64);
    MachineConfig cfg;
    cfg.num_vertices = 1;

    auto stream_time = [&](bool enabled) {
        MachineParams q = p;
        q.stream_prefetch = enabled;
        BaselineMachine m(q);
        m.configure(cfg);
        // Stream 4 MB of fresh lines through one core.
        for (std::uint64_t i = 0; i < 65536; ++i) {
            issue(m, 0,
                  EngineOp::load(0x10000000 + i * 64, 64,
                                 AccessClass::EdgeList, /*blocking=*/false,
                                 0, /*sequential=*/true));
        }
        m.barrier();
        return m.cycles();
    };
    const Cycles with = stream_time(true);
    const Cycles without = stream_time(false);
    EXPECT_LT(with, without);
    // Even prefetched, a single core cannot beat the per-channel
    // bandwidth bound: 4 MB spread over 4 channels.
    const double peak_bytes_per_cycle =
        p.dramBytesPerCycle() * p.dram_channels;
    EXPECT_GT(static_cast<double>(with),
              65536.0 * 64.0 / peak_bytes_per_cycle * 0.5);
}

TEST(Prefetch, BandwidthFeedbackBoundsTheQueue)
{
    // Sixteen cores streaming flat out must converge to a bounded queue
    // (cores throttle to the service rate), not a runaway.
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 64);
    BaselineMachine m(p);
    MachineConfig cfg;
    cfg.num_vertices = 1;
    m.configure(cfg);
    for (std::uint64_t i = 0; i < 16 * 8192; ++i) {
        issue(m, static_cast<unsigned>(i % 16),
              EngineOp::load(0x10000000 + i * 64, 64, AccessClass::EdgeList,
                             /*blocking=*/false, 0, /*sequential=*/true));
    }
    m.barrier();
    const StatsReport r = m.report();
    // Worst-case single-request queueing stays within a small multiple
    // of the all-cores-outstanding window (16 cores x 8 MSHRs x ~11
    // cycles per transfer / 4 channels ~= 350).
    EXPECT_LT(r.dram_max_queue, 4000u);
    EXPECT_GT(r.dramBytes(), 16u * 8192u * 64u - 1);
}

TEST(Prefetch, RandomAccessesNotAffectedBySwitch)
{
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 64);
    auto random_time = [&](bool enabled) {
        MachineParams q = p;
        q.stream_prefetch = enabled;
        BaselineMachine m(q);
        MachineConfig cfg;
        cfg.num_vertices = 1;
        m.configure(cfg);
        std::uint64_t addr = 0x10000000;
        for (int i = 0; i < 5000; ++i) {
            issue(m, 0, EngineOp::load(addr, 8, AccessClass::VertexProp));
            addr += 64 * 1021; // pseudo-random stride
        }
        m.barrier();
        return m.cycles();
    };
    EXPECT_EQ(random_time(true), random_time(false));
}

} // namespace
} // namespace omega
