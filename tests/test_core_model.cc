/**
 * @file
 * Tests for the per-core timing model: issue-width accounting, the
 * MSHR-bounded overlap window, blocking semantics and stall attribution,
 * parameter checks, snapshot hardening, and a reference-model check of
 * the fixed-array window against the plain vector-and-compaction window
 * it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/core_model.hh"
#include "util/rng.hh"

namespace omega {
namespace {

MachineParams
params(unsigned width = 8, unsigned mshrs = 4)
{
    MachineParams p = MachineParams::baseline();
    p.issue_width = width;
    p.mshrs = mshrs;
    return p;
}

TEST(CoreModel, ComputeAdvancesByIssueWidth)
{
    CoreModel c(params(8));
    c.compute(16);
    EXPECT_EQ(c.now(), 2u);
    EXPECT_EQ(c.instructions(), 16u);
    EXPECT_EQ(c.computeCycles(), 2u);
}

TEST(CoreModel, SubWidthOpsAccumulate)
{
    CoreModel c(params(8));
    for (int i = 0; i < 8; ++i)
        c.compute(1);
    EXPECT_EQ(c.now(), 1u);
    c.compute(4);
    EXPECT_EQ(c.now(), 1u); // residue of 4 ops, below a full cycle
    c.compute(4);
    EXPECT_EQ(c.now(), 2u);
}

TEST(CoreModel, BlockingLoadStallsFully)
{
    CoreModel c(params());
    c.issueMemory(100, /*blocking=*/true);
    EXPECT_EQ(c.now(), 100u);
    EXPECT_EQ(c.memStallCycles(), 100u);
}

TEST(CoreModel, NonBlockingLoadsOverlap)
{
    CoreModel c(params(8, 4));
    for (int i = 0; i < 4; ++i)
        c.issueMemory(100, false);
    // All four in flight: no stall yet.
    EXPECT_EQ(c.now(), 0u);
    EXPECT_EQ(c.memStallCycles(), 0u);
}

TEST(CoreModel, WindowFullStallsToOldest)
{
    CoreModel c(params(8, 2));
    c.issueMemory(100, false);
    c.issueMemory(100, false);
    c.issueMemory(100, false); // window full: waits for the first (t=100)
    EXPECT_EQ(c.now(), 100u);
    EXPECT_EQ(c.memStallCycles(), 100u);
}

TEST(CoreModel, DrainWaitsForAllOutstanding)
{
    CoreModel c(params(8, 4));
    c.issueMemory(50, false);
    c.issueMemory(200, false);
    c.drain();
    EXPECT_EQ(c.now(), 200u);
}

TEST(CoreModel, SerializeChargesAtomicBucket)
{
    CoreModel c(params());
    c.serialize(16);
    EXPECT_EQ(c.now(), 16u);
    EXPECT_EQ(c.atomicStallCycles(), 16u);
    EXPECT_EQ(c.memStallCycles(), 0u);
}

TEST(CoreModel, StallAttributionByKind)
{
    CoreModel c(params());
    c.issueMemory(10, true, StallKind::Atomic);
    EXPECT_EQ(c.atomicStallCycles(), 10u);
    c.issueMemory(10, true, StallKind::Memory);
    EXPECT_EQ(c.memStallCycles(), 10u);
}

TEST(CoreModel, SyncToChargesSyncStall)
{
    CoreModel c(params());
    c.compute(8);
    c.syncTo(50);
    EXPECT_EQ(c.now(), 50u);
    EXPECT_EQ(c.syncStallCycles(), 49u);
    // syncTo to the past is a no-op.
    c.syncTo(10);
    EXPECT_EQ(c.now(), 50u);
}

TEST(CoreModel, SyncToDrainsFirst)
{
    CoreModel c(params(8, 4));
    c.issueMemory(100, false);
    c.syncTo(20); // outstanding load completes at 100 > 20
    EXPECT_EQ(c.now(), 100u);
}

TEST(CoreModel, BusyCountsAsCompute)
{
    CoreModel c(params());
    c.busy(7);
    EXPECT_EQ(c.now(), 7u);
    EXPECT_EQ(c.computeCycles(), 7u);
    EXPECT_EQ(c.instructions(), 0u);
}

TEST(CoreModel, ShortOpsDontOccupyWindow)
{
    // Latency-1 hits never enter the window, so they can't cause
    // window-full stalls.
    CoreModel c(params(8, 1));
    for (int i = 0; i < 100; ++i)
        c.issueMemory(1, false);
    EXPECT_EQ(c.memStallCycles(), 0u);
}

TEST(CoreModel, ResetRestoresInitialState)
{
    CoreModel c(params());
    c.compute(80);
    c.issueMemory(100, true);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
    EXPECT_EQ(c.instructions(), 0u);
    EXPECT_EQ(c.memStallCycles(), 0u);
    EXPECT_EQ(c.computeCycles(), 0u);
}

TEST(CoreModel, ThroughputMatchesMlpModel)
{
    // With window K and latency L, N independent misses take about
    // N*L/K cycles once the pipe is full.
    CoreModel c(params(8, 8));
    const int N = 1000;
    for (int i = 0; i < N; ++i)
        c.issueMemory(80, false);
    c.drain();
    const double expected = N * 80.0 / 8.0;
    EXPECT_NEAR(static_cast<double>(c.now()), expected, expected * 0.05);
}

TEST(CoreModelDeathTest, RejectsZeroMshrs)
{
    // With no window slot the first non-blocking issue would stall the
    // clock to the empty-window sentinel, 2^64 - 1.
    EXPECT_DEATH(CoreModel(params(8, 0)), "MSHR count");
}

TEST(CoreModelDeathTest, RejectsZeroIssueWidth)
{
    // compute() divides by the issue width.
    EXPECT_DEATH(CoreModel(params(0, 4)), "issue width");
}

TEST(CoreModelDeathTest, RejectsMshrsAboveWindowCapacity)
{
    EXPECT_DEATH(CoreModel(params(8, CoreModel::kMaxMshrs + 1)),
                 "MSHR count");
    CoreModel c(params(8, CoreModel::kMaxMshrs)); // the capacity itself
    for (unsigned i = 0; i < CoreModel::kMaxMshrs; ++i)
        c.issueMemory(100, false);
    EXPECT_EQ(c.now(), 0u);
    c.issueMemory(100, false);
    EXPECT_EQ(c.now(), 100u);
}

// --- Snapshot hardening -------------------------------------------------

/** A CoreModel snapshot payload whose window holds @p window entries. */
std::vector<std::uint8_t>
snapshotWithWindow(std::uint64_t window)
{
    SnapshotWriter w;
    w.putU64(1000); // clock
    w.putU64(0);    // instruction residue
    w.putU64Vector(std::vector<std::uint64_t>(window, 2000));
    w.putU64(2000); // tracked oldest miss
    w.putU64(8000); // instructions
    w.putU64(1000); // compute cycles: the clock's whole decomposition
    for (int i = 0; i < 3; ++i)
        w.putU64(0); // memory, atomic and sync stall cycles
    return w.bytes();
}

TEST(CoreModel, RestoreRejectsWindowLongerThanMshrs)
{
    const MachineParams p = params(8, 4);
    for (const std::uint64_t n : {std::uint64_t{p.mshrs} + 1,
                                  std::uint64_t{1} << 20}) {
        CoreModel c(p);
        SnapshotReader r(snapshotWithWindow(n));
        EXPECT_THROW(c.restore(r), SnapshotStateError) << n << " entries";
    }
    // A full window is legal.
    CoreModel c(p);
    SnapshotReader r(snapshotWithWindow(p.mshrs));
    c.restore(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(c.now(), 1000u);
    c.issueMemory(50, false); // full: waits for the saved misses
    EXPECT_EQ(c.now(), 2000u);
}

TEST(CoreModel, SnapshotRoundTripsWindowCapturedMidStall)
{
    // Fill the window with distinct completion times, stall on the
    // oldest so the compaction leaves a partial, reordered window, then
    // save. A restored core must continue exactly like the original.
    CoreModel a(params(4, 4));
    const Cycles lats[] = {300, 40, 200, 40, 120, 90, 7};
    for (const Cycles lat : lats) {
        a.compute(3);
        a.issueMemory(lat, false);
    }
    ASSERT_GT(a.memStallCycles(), 0u);
    SnapshotWriter w;
    a.save(w);
    CoreModel b(params(4, 4));
    SnapshotReader r(w.bytes());
    b.restore(r);
    EXPECT_EQ(r.remaining(), 0u);
    SnapshotWriter again;
    b.save(again);
    EXPECT_EQ(w.bytes(), again.bytes());
    for (int i = 0; i < 40; ++i) {
        const Cycles lat = 5 + static_cast<Cycles>(i * 37 % 250);
        a.issueMemory(lat, false);
        b.issueMemory(lat, false);
        ASSERT_EQ(a.now(), b.now()) << "issue " << i;
    }
    a.drain();
    b.drain();
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.memStallCycles(), b.memStallCycles());
}

// --- Reference model ----------------------------------------------------

/**
 * The window as an obviously-correct std::vector with a compacting
 * stall: the representation CoreModel used before its fixed inline
 * array. Traces are left out; everything that moves a counter is kept.
 */
class ReferenceCoreModel
{
  public:
    explicit ReferenceCoreModel(const MachineParams &p)
        : issue_width_(p.issue_width), mshrs_(p.mshrs)
    {
    }

    Cycles now() const { return clock_; }

    void
    compute(std::uint64_t ops)
    {
        instructions_ += ops;
        op_residue_ += ops;
        const std::uint64_t cycles = op_residue_ / issue_width_;
        op_residue_ %= issue_width_;
        clock_ += cycles;
        compute_cycles_ += cycles;
    }

    void
    prepareIssue(StallKind kind)
    {
        if (inflight_.size() < mshrs_)
            return;
        stallUntil(oldest_inflight_, kind);
        std::size_t live = 0;
        Cycles oldest = std::numeric_limits<Cycles>::max();
        for (const Cycles t : inflight_) {
            if (t > clock_) {
                inflight_[live++] = t;
                oldest = std::min(oldest, t);
            }
        }
        inflight_.resize(live);
        oldest_inflight_ = oldest;
    }

    void
    issueMemory(Cycles latency, bool blocking, StallKind kind)
    {
        if (blocking) {
            stallUntil(clock_ + latency, kind);
            return;
        }
        prepareIssue(kind);
        issueMemoryPrepared(latency);
    }

    void
    issueMemoryPrepared(Cycles latency)
    {
        if (latency > 1) {
            const Cycles t = clock_ + latency;
            inflight_.push_back(t);
            if (t < oldest_inflight_)
                oldest_inflight_ = t;
        }
    }

    void serialize(Cycles cost, StallKind kind)
    {
        stallUntil(clock_ + cost, kind);
    }

    void
    drain()
    {
        std::sort(inflight_.begin(), inflight_.end());
        for (const Cycles t : inflight_)
            stallUntil(t, StallKind::Memory);
        inflight_.clear();
        oldest_inflight_ = std::numeric_limits<Cycles>::max();
    }

    void
    syncTo(Cycles t)
    {
        drain();
        stallUntil(t, StallKind::Sync);
    }

    std::uint64_t instructions_ = 0;
    std::uint64_t compute_cycles_ = 0;
    std::uint64_t mem_stall_cycles_ = 0;
    std::uint64_t atomic_stall_cycles_ = 0;
    std::uint64_t sync_stall_cycles_ = 0;

  private:
    void
    stallUntil(Cycles t, StallKind kind)
    {
        if (t <= clock_)
            return;
        const Cycles stall = t - clock_;
        clock_ = t;
        switch (kind) {
          case StallKind::Memory: mem_stall_cycles_ += stall; break;
          case StallKind::Atomic: atomic_stall_cycles_ += stall; break;
          case StallKind::Sync: sync_stall_cycles_ += stall; break;
        }
    }

    unsigned issue_width_;
    unsigned mshrs_;
    Cycles clock_ = 0;
    std::uint64_t op_residue_ = 0;
    std::vector<Cycles> inflight_;
    Cycles oldest_inflight_ = std::numeric_limits<Cycles>::max();
};

class CoreModelReference : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreModelReference, MatchesVectorWindowOnRandomStream)
{
    const unsigned mshrs = GetParam();
    for (const unsigned width : {8u, 3u}) {
        const MachineParams p = params(width, mshrs);
        CoreModel model(p);
        ReferenceCoreModel ref(p);
        Rng rng(0xC0FE + mshrs * 31 + width);
        for (int step = 0; step < 40000; ++step) {
            const Cycles lat = 1 + rng.nextBounded(400);
            const StallKind kind = rng.nextBool(0.3) ? StallKind::Atomic
                                                     : StallKind::Memory;
            const std::uint64_t op = rng.nextBounded(100);
            if (op < 40) {
                model.issueMemory(lat, false, kind);
                ref.issueMemory(lat, false, kind);
            } else if (op < 55) {
                // The prepared path: prepareIssue, then the push.
                model.prepareIssue(kind);
                ref.prepareIssue(kind);
                model.issueMemoryPrepared(lat);
                ref.issueMemoryPrepared(lat);
            } else if (op < 65) {
                model.issueMemory(lat, true, kind);
                ref.issueMemory(lat, true, kind);
            } else if (op < 88) {
                const std::uint64_t ops = rng.nextBounded(24);
                model.compute(ops);
                ref.compute(ops);
            } else if (op < 95) {
                model.serialize(lat / 8, kind);
                ref.serialize(lat / 8, kind);
            } else if (op < 98) {
                model.drain();
                ref.drain();
            } else {
                // Barriers both behind and ahead of the core's clock.
                const Cycles ahead = model.now() + rng.nextBounded(600);
                const Cycles t = ahead > 200 ? ahead - 200 : 0;
                model.syncTo(t);
                ref.syncTo(t);
            }
            ASSERT_EQ(model.now(), ref.now()) << "step " << step;
            ASSERT_EQ(model.instructions(), ref.instructions_);
            ASSERT_EQ(model.computeCycles(), ref.compute_cycles_);
            ASSERT_EQ(model.memStallCycles(), ref.mem_stall_cycles_);
            ASSERT_EQ(model.atomicStallCycles(), ref.atomic_stall_cycles_);
            ASSERT_EQ(model.syncStallCycles(), ref.sync_stall_cycles_);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Mshrs, CoreModelReference,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace omega
