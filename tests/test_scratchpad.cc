/**
 * @file
 * Tests for the scratchpad storage model and the scratchpad controller's
 * monitor / partition / index units (paper Fig 7).
 */

#include <algorithm>
#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "omega/scratchpad.hh"
#include "omega/scratchpad_controller.hh"
#include "sim/access.hh"

namespace omega {
namespace {

TEST(Scratchpad, LineCapacity)
{
    Scratchpad sp(1024 * 1024, 3);
    EXPECT_EQ(sp.latency(), 3u);
    // 9-byte lines (8 B prop + active byte): 116508 lines fit.
    const VertexId lines = sp.setLineBytes(9);
    EXPECT_EQ(lines, 1024u * 1024u / 9u);
    EXPECT_EQ(sp.numLines(), lines);
    EXPECT_EQ(sp.lineBytes(), 9u);
}

TEST(Scratchpad, AccessAccounting)
{
    Scratchpad sp(4096, 3);
    sp.setLineBytes(8);
    sp.recordRead(8);
    sp.recordWrite(4);
    sp.recordAtomic();
    EXPECT_EQ(sp.reads(), 1u);
    EXPECT_EQ(sp.writes(), 1u);
    EXPECT_EQ(sp.atomics(), 1u);
    EXPECT_EQ(sp.bytesRead(), 8u + 8u);
    EXPECT_EQ(sp.bytesWritten(), 4u + 8u);
}

class ControllerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PropSpec p0;
        p0.start_addr = 0x1000;
        p0.type_size = 8;
        p0.stride = 8;
        p0.count = 1000;
        PropSpec p1;
        p1.start_addr = 0x10000;
        p1.type_size = 4;
        p1.stride = 4;
        p1.count = 1000;
        ctrl_.configure({p0, p1}, /*resident=*/600);
    }

    ScratchpadController ctrl_{4, 16};
};

TEST_F(ControllerTest, MonitorMatchesFirstProp)
{
    auto r = ctrl_.route(0x1000 + 8 * 5);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->vertex, 5u);
    EXPECT_EQ(r->prop, 0u);
}

TEST_F(ControllerTest, MonitorMatchesSecondProp)
{
    auto r = ctrl_.route(0x10000 + 4 * 321);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->vertex, 321u);
    EXPECT_EQ(r->prop, 1u);
}

TEST_F(ControllerTest, UnmonitoredAddressFallsThrough)
{
    EXPECT_FALSE(ctrl_.route(0x500).has_value());
    EXPECT_FALSE(ctrl_.route(0x1000 + 8 * 1000).has_value()); // past count
    EXPECT_FALSE(ctrl_.route(0x9999999).has_value());
}

TEST_F(ControllerTest, NonResidentVertexFallsThrough)
{
    // Vertex 700 is monitored but beyond the resident boundary.
    EXPECT_FALSE(ctrl_.route(0x1000 + 8 * 700).has_value());
    EXPECT_TRUE(ctrl_.isResident(599));
    EXPECT_FALSE(ctrl_.isResident(600));
}

TEST_F(ControllerTest, StridedStructSkipsGaps)
{
    // A prop inside a struct: 4 valid bytes every 12.
    PropSpec p;
    p.start_addr = 0x2000;
    p.type_size = 4;
    p.stride = 12;
    p.count = 100;
    ScratchpadController c(4, 16);
    c.configure({p}, 100);
    EXPECT_TRUE(c.route(0x2000 + 12 * 3).has_value());
    EXPECT_TRUE(c.route(0x2000 + 12 * 3 + 3).has_value());
    // Offset 4..11 within the stride belongs to other struct fields.
    EXPECT_FALSE(c.route(0x2000 + 12 * 3 + 4).has_value());
    EXPECT_FALSE(c.route(0x2000 + 12 * 3 + 11).has_value());
}

TEST_F(ControllerTest, PartitionInterleavesByChunk)
{
    // chunk=16 over 4 scratchpads: vertices 0-15 -> sp0, 16-31 -> sp1...
    EXPECT_EQ(ctrl_.homeOf(0), 0u);
    EXPECT_EQ(ctrl_.homeOf(15), 0u);
    EXPECT_EQ(ctrl_.homeOf(16), 1u);
    EXPECT_EQ(ctrl_.homeOf(63), 3u);
    EXPECT_EQ(ctrl_.homeOf(64), 0u); // wraps around
}

TEST_F(ControllerTest, IndexUnitLineNumbers)
{
    // Vertex 64 is the first vertex of sp0's second chunk.
    EXPECT_EQ(ctrl_.lineOf(0), 0u);
    EXPECT_EQ(ctrl_.lineOf(15), 15u);
    EXPECT_EQ(ctrl_.lineOf(16), 0u);  // first line of sp1
    EXPECT_EQ(ctrl_.lineOf(64), 16u); // sp0, second chunk
    EXPECT_EQ(ctrl_.lineOf(65), 17u);
}

TEST_F(ControllerTest, RouteFillsHomeAndLine)
{
    auto r = ctrl_.route(0x1000 + 8 * 20);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->home, 1u);
    EXPECT_EQ(r->line, 4u);
}

TEST_F(ControllerTest, AtomicBlockingSerializesSameVertex)
{
    // Two atomics on the same vertex: the second waits.
    const Cycles s1 = ctrl_.beginAtomic(7, 100, 5);
    EXPECT_EQ(s1, 100u);
    const Cycles s2 = ctrl_.beginAtomic(7, 102, 5);
    EXPECT_EQ(s2, 105u);
    EXPECT_EQ(ctrl_.conflicts(), 1u);
    // A different vertex is unaffected.
    EXPECT_EQ(ctrl_.beginAtomic(8, 102, 5), 102u);
    EXPECT_EQ(ctrl_.conflicts(), 1u);
}

TEST_F(ControllerTest, VertexBusyWindow)
{
    ctrl_.beginAtomic(3, 50, 10);
    EXPECT_TRUE(ctrl_.isVertexBusy(3, 55));
    EXPECT_FALSE(ctrl_.isVertexBusy(3, 60));
    EXPECT_FALSE(ctrl_.isVertexBusy(4, 55));
}

TEST(ControllerDeathTest, OverlappingRangesAreRejected)
{
    // route() is first-match-wins; overlapping monitored ranges would
    // silently send the shared span to the wrong prop, so configure()
    // must refuse them.
    PropSpec a;
    a.start_addr = 0x1000;
    a.type_size = 8;
    a.stride = 8;
    a.count = 10;
    PropSpec b;
    b.start_addr = 0x1000;
    b.type_size = 8;
    b.stride = 8;
    b.count = 20;
    ScratchpadController c(2, 4);
    EXPECT_DEATH(c.configure({a, b}, 20), "overlapping monitored");
}

TEST(Controller, AdjacentRangesAreDisjoint)
{
    // Back-to-back ranges (b starts exactly where a ends) must still be
    // accepted: the registry bump-allocates exactly this layout.
    PropSpec a;
    a.start_addr = 0x1000;
    a.type_size = 8;
    a.stride = 8;
    a.count = 10;
    PropSpec b;
    b.start_addr = 0x1000 + 8 * 10;
    b.type_size = 8;
    b.stride = 8;
    b.count = 10;
    ScratchpadController c(2, 4);
    c.configure({a, b}, 10);
    auto r = c.route(b.start_addr);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->prop, 1u);
}

TEST_F(ControllerTest, MemoIsInvalidatedByReconfigure)
{
    // Warm every core's last-hit memo on the old register set...
    for (unsigned core = 0; core < 4; ++core) {
        ASSERT_TRUE(ctrl_.route(0x1000 + 8 * 5, core).has_value());
        ASSERT_TRUE(ctrl_.route(0x10000 + 4 * 5, core).has_value());
    }
    // ...then install registers where the same addresses mean something
    // else. A stale memo slot must not resolve against the old table.
    PropSpec p;
    p.start_addr = 0x10000;
    p.type_size = 8;
    p.stride = 8;
    p.count = 50;
    ctrl_.configure({p}, 50);
    for (unsigned core = 0; core < 4; ++core) {
        EXPECT_FALSE(ctrl_.route(0x1000 + 8 * 5, core).has_value());
        auto r = ctrl_.route(0x10000 + 8 * 5, core);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->vertex, 5u);
        EXPECT_EQ(r->prop, 0u);
    }
}

TEST_F(ControllerTest, MemoNeverChangesTheAnswer)
{
    // The per-core memo is pure acceleration: a core ping-ponging between
    // ranges (worst case for the memo) must see exactly what a fresh
    // controller reports for every probe.
    ScratchpadController fresh(4, 16);
    {
        PropSpec p0;
        p0.start_addr = 0x1000;
        p0.type_size = 8;
        p0.stride = 8;
        p0.count = 1000;
        PropSpec p1;
        p1.start_addr = 0x10000;
        p1.type_size = 4;
        p1.stride = 4;
        p1.count = 1000;
        fresh.configure({p0, p1}, 600);
    }
    for (VertexId v = 0; v < 700; ++v) {
        const std::uint64_t probes[] = {0x1000 + 8 * v, 0x10000 + 4 * v,
                                        0x800 + v};
        for (const std::uint64_t addr : probes) {
            // Same address through a warm memo (core 1) and a cold path
            // (fresh controller, rotating cores).
            auto warm = ctrl_.route(addr, 1);
            auto cold = fresh.route(addr, static_cast<unsigned>(v % 5));
            ASSERT_EQ(warm.has_value(), cold.has_value()) << addr;
            if (warm) {
                EXPECT_EQ(warm->vertex, cold->vertex);
                EXPECT_EQ(warm->prop, cold->prop);
                EXPECT_EQ(warm->home, cold->home);
                EXPECT_EQ(warm->line, cold->line);
            }
        }
    }
}

TEST(Controller, StrideBoundaries)
{
    // Pow2 and non-pow2 strides take different resolve() paths (shift vs.
    // divide); both must agree on the exact edges of a range.
    for (const std::uint32_t stride : {8u, 12u}) {
        PropSpec p;
        p.start_addr = 0x4000;
        p.type_size = 8;
        p.stride = stride;
        p.count = 33;
        ScratchpadController c(4, 16);
        c.configure({p}, 33);

        // First byte of the first vertex and last byte of the last one.
        ASSERT_TRUE(c.route(0x4000).has_value()) << stride;
        auto last = c.route(0x4000 + stride * 32 + 7);
        ASSERT_TRUE(last.has_value()) << stride;
        EXPECT_EQ(last->vertex, 32u);
        // One byte past the final monitored byte falls through. (For the
        // strided case the bytes 8..11 of the last entry are padding.)
        EXPECT_FALSE(c.route(0x4000 + stride * 32 + 8).has_value())
            << stride;
        EXPECT_FALSE(c.route(0x4000 + stride * 33).has_value()) << stride;
        // One byte below the range start falls through.
        EXPECT_FALSE(c.route(0x4000 - 1).has_value()) << stride;
    }
}

TEST(ControllerDeathTest, PartialOverlapInUnsortedOrderIsRejected)
{
    // configure() sorts the registers before the overlap scan; a partial
    // overlap arriving in descending address order must still die.
    PropSpec hi;
    hi.start_addr = 0x2000;
    hi.type_size = 8;
    hi.stride = 8;
    hi.count = 16;
    PropSpec lo;
    lo.start_addr = 0x2000 - 8 * 4;
    lo.type_size = 8;
    lo.stride = 8;
    lo.count = 8; // last 4 entries reach into hi's span
    ScratchpadController c(2, 4);
    EXPECT_DEATH(c.configure({hi, lo}, 16), "overlapping monitored");
}

TEST(Controller, FuzzedBusyTableMatchesMapReference)
{
    // Drive the epoch-stamped busy table and a naive map model with the
    // same deterministic request stream; every observable (start time,
    // busy window, live-entry count, conflicts) must agree.
    ScratchpadController c(4, 16);
    std::map<VertexId, Cycles> ref; // vertex -> busy-until
    std::uint64_t ref_conflicts = 0;

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    Cycles now = 0;
    for (int step = 0; step < 20000; ++step) {
        now += next() % 4;
        const VertexId v = static_cast<VertexId>(next() % 97);
        switch (next() % 8) {
          case 0: { // barrier-style retirement
            const Cycles t = now + next() % 32;
            c.retireCompleted(t);
            std::erase_if(ref, [t](const auto &kv) {
                return kv.second <= t;
            });
            break;
          }
          case 1: case 2: { // busy probe
            const auto it = ref.find(v);
            const bool ref_busy = it != ref.end() && it->second > now;
            EXPECT_EQ(c.isVertexBusy(v, now), ref_busy)
                << "step " << step << " vertex " << v;
            break;
          }
          default: { // atomic
            const Cycles duration = 1 + next() % 16;
            const Cycles start = c.beginAtomic(v, now, duration);
            auto [it, fresh] = ref.try_emplace(v, Cycles{0});
            Cycles ref_start = now;
            if (!fresh && it->second > now) {
                ref_start = it->second;
                ++ref_conflicts;
            }
            it->second = ref_start + duration;
            EXPECT_EQ(start, ref_start)
                << "step " << step << " vertex " << v;
            break;
          }
        }
        EXPECT_EQ(c.conflicts(), ref_conflicts) << "step " << step;
    }
    // The controller may keep already-expired entries until the next
    // retirement; the map model drops them eagerly, so compare after a
    // final barrier.
    c.retireCompleted(now + 1000);
    std::erase_if(ref, [&](const auto &kv) {
        return kv.second <= now + 1000;
    });
    EXPECT_EQ(c.busyTableSize(), ref.size());
    EXPECT_TRUE(ref.empty());
}

TEST_F(ControllerTest, RetireCompletedBoundsBusyTable)
{
    // Without pruning the busy table grows by one entry per vertex ever
    // touched by an atomic; retiring at a barrier must drop every entry
    // whose atomic already finished.
    for (VertexId v = 0; v < 100; ++v)
        ctrl_.beginAtomic(v, /*arrival=*/v, /*duration=*/10);
    EXPECT_EQ(ctrl_.busyTableSize(), 100u);

    // At cycle 50, vertices 0..40 (busy until v+10 <= 50) are done.
    ctrl_.retireCompleted(50);
    EXPECT_EQ(ctrl_.busyTableSize(), 59u);
    // Retired entries no longer serialize; in-flight ones still do.
    EXPECT_FALSE(ctrl_.isVertexBusy(0, 50));
    EXPECT_TRUE(ctrl_.isVertexBusy(99, 50));
    EXPECT_EQ(ctrl_.beginAtomic(0, 50, 5), 50u);

    // Once every atomic has drained, the table must be empty again.
    ctrl_.retireCompleted(1000);
    EXPECT_EQ(ctrl_.busyTableSize(), 0u);
}

} // namespace
} // namespace omega
