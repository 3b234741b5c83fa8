/**
 * @file
 * Tests for VertexSubset, the static scheduler and the Engine runtime
 * (functional behaviour + event emission).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "algorithms/bfs.hh"
#include "algorithms/pagerank.hh"
#include "framework/engine.hh"
#include "framework/scheduler.hh"
#include "framework/vertex_subset.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "sim/baseline_machine.hh"
#include "sim/machine_registry.hh"
#include "testing/fuzz.hh"
#include "util/rng.hh"

namespace omega {
namespace {

TEST(VertexSubset, SingleAndAll)
{
    auto s = VertexSubset::single(10, 3);
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.contains(3));
    EXPECT_FALSE(s.contains(4));
    auto a = VertexSubset::all(5);
    EXPECT_EQ(a.size(), 5u);
    EXPECT_TRUE(a.isDense());
    EXPECT_TRUE(a.contains(4));
}

TEST(VertexSubset, ConversionsPreserveMembership)
{
    auto s = VertexSubset::fromSparse(10, {1, 5, 9});
    EXPECT_FALSE(s.isDense());
    s.toDense();
    EXPECT_TRUE(s.isDense());
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.contains(4));
    s.toSparse();
    EXPECT_EQ(s.sparse().size(), 3u);
    EXPECT_EQ(s.sparse()[0], 1u);
    EXPECT_EQ(s.sparse()[2], 9u);
}

TEST(VertexSubset, FromDenseCountsActive)
{
    auto s = VertexSubset::fromDense({0, 1, 1, 0, 1});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.numVertices(), 5u);
}

TEST(VertexSubset, EmptyBehaviour)
{
    VertexSubset s(4);
    EXPECT_TRUE(s.empty());
    s.toDense();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
}

TEST(VertexSubset, FromSparseDeduplicatesKeepingOrder)
{
    auto s = VertexSubset::fromSparse(10, {5, 1, 5, 9, 1, 5});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.sparse(), (std::vector<VertexId>{5, 1, 9}));
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(1));
    EXPECT_TRUE(s.contains(9));
    EXPECT_FALSE(s.contains(0));
}

TEST(VertexSubset, SizeAgreesWithDensePopcountAfterSwitch)
{
    // Regression: duplicates used to survive fromSparse while toDense
    // kept the stale sparse count, so size() disagreed with the dense
    // popcount after a sparse -> dense switch.
    auto s = VertexSubset::fromSparse(8, {2, 2, 7, 2, 7});
    EXPECT_EQ(s.size(), 2u);
    s.toDense();
    VertexId popcount = 0;
    for (VertexId v = 0; v < s.numVertices(); ++v)
        popcount += s.dense()[v] != 0;
    EXPECT_EQ(s.size(), popcount);
    EXPECT_EQ(s.size(), 2u);
    s.toSparse();
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.sparse(), (std::vector<VertexId>{2, 7}));
}

TEST(VertexSubset, ContainsWorksAcrossConversions)
{
    auto s = VertexSubset::fromSparse(64, {3, 17, 40});
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(s.contains(v), v == 3 || v == 17 || v == 40);
    s.toDense();
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(s.contains(v), v == 3 || v == 17 || v == 40);
    s.toSparse();
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(s.contains(v), v == 3 || v == 17 || v == 40);
}

TEST(Scheduler, CoversAllItemsExactlyOnce)
{
    StaticScheduler sched(103, 4, 8);
    std::set<std::uint64_t> seen;
    while (!sched.done()) {
        for (unsigned c = 0; c < 4; ++c) {
            if (auto i = sched.next(c)) {
                EXPECT_TRUE(seen.insert(*i).second);
            }
        }
    }
    EXPECT_EQ(seen.size(), 103u);
}

TEST(Scheduler, ChunkAssignmentIsOpenMpStatic)
{
    // schedule(static, 4) over 3 cores: core 0 gets 0-3, 12-15, ...
    StaticScheduler sched(24, 3, 4);
    std::vector<std::uint64_t> core0;
    while (auto i = sched.next(0))
        core0.push_back(*i);
    EXPECT_EQ(core0,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 12, 13, 14, 15}));
}

TEST(Scheduler, PeekDoesNotConsume)
{
    StaticScheduler sched(10, 2, 2);
    EXPECT_EQ(*sched.peek(1), 2u);
    EXPECT_EQ(*sched.peek(1), 2u);
    EXPECT_EQ(*sched.next(1), 2u);
    EXPECT_EQ(*sched.peek(1), 3u);
}

TEST(Scheduler, RemainingCountsDown)
{
    StaticScheduler sched(5, 2, 2);
    EXPECT_EQ(sched.remaining(), 5u);
    sched.next(0);
    EXPECT_EQ(sched.remaining(), 4u);
}

// --- Engine tests -----------------------------------------------------

Graph
chainGraph(VertexId n)
{
    EdgeList edges;
    for (VertexId v = 0; v + 1 < n; ++v)
        edges.push_back({v, v + 1, 1});
    return buildGraph(n, std::move(edges));
}

TEST(Engine, FunctionalEdgeMapVisitsAllEdges)
{
    Graph g = chainGraph(50);
    PropertyRegistry props(50);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    int visits = 0;
    eng.edgeMap(VertexSubset::all(50),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    ++visits;
                    return EdgeUpdateResult{};
                },
                false);
    EXPECT_EQ(visits, 49);
}

TEST(Engine, SparseEdgeMapProducesNextFrontier)
{
    Graph g = chainGraph(10);
    PropertyRegistry props(10);
    Engine eng(g, props, bfsUpdateFn(), nullptr);
    auto next = eng.edgeMap(
        VertexSubset::single(10, 0),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_EQ(next.size(), 1u);
    EXPECT_TRUE(next.contains(1));
}

TEST(Engine, ActivationIsDeduplicated)
{
    // Two sources pointing at the same destination: one activation.
    EdgeList edges{{0, 2, 1}, {1, 2, 1}};
    Graph g = buildGraph(3, std::move(edges));
    PropertyRegistry props(3);
    Engine eng(g, props, bfsUpdateFn(), nullptr);
    auto next = eng.edgeMap(
        VertexSubset::fromSparse(3, {0, 1}),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_EQ(next.size(), 1u);
}

TEST(Engine, DenseSwitchOnLargeFrontier)
{
    // A frontier whose out-degree sum exceeds arcs/20 must process
    // dense and return a dense subset.
    Rng rng(3);
    Graph g = buildGraph(1 << 8, generateRmat(8, 8, rng));
    PropertyRegistry props(g.numVertices());
    Engine eng(g, props, bfsUpdateFn(), nullptr);
    std::vector<VertexId> half;
    for (VertexId v = 0; v < g.numVertices(); v += 2)
        half.push_back(v);
    auto next = eng.edgeMap(
        VertexSubset::fromSparse(g.numVertices(), half),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_TRUE(next.isDense());
}

TEST(Engine, DuplicateFrontierThroughDenseSwitch)
{
    // Regression: a frontier built with duplicate ids used to carry an
    // inflated size() across the sparse -> dense threshold switch, so
    // the dense pass disagreed with the deduplicated membership.
    Rng rng(3);
    Graph g = buildGraph(1 << 8, generateRmat(8, 8, rng));
    PropertyRegistry props(g.numVertices());
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < g.numVertices(); v += 2) {
        ids.push_back(v);
        ids.push_back(v); // every id twice
    }
    auto frontier = VertexSubset::fromSparse(g.numVertices(), ids);
    EXPECT_EQ(frontier.size(), g.numVertices() / 2);

    Engine dup_eng(g, props, bfsUpdateFn(), nullptr);
    std::uint64_t dup_visits = 0;
    auto next = dup_eng.edgeMap(
        std::move(frontier),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            ++dup_visits;
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_TRUE(next.isDense());

    // Same frontier without duplicates must see identical edge traffic
    // and produce the same next frontier.
    std::vector<VertexId> half;
    for (VertexId v = 0; v < g.numVertices(); v += 2)
        half.push_back(v);
    PropertyRegistry props2(g.numVertices());
    Engine ref_eng(g, props2, bfsUpdateFn(), nullptr);
    std::uint64_t ref_visits = 0;
    auto ref_next = ref_eng.edgeMap(
        VertexSubset::fromSparse(g.numVertices(), half),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            ++ref_visits;
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_EQ(dup_visits, ref_visits);
    EXPECT_EQ(next.size(), ref_next.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(next.contains(v), ref_next.contains(v));
}

/** Machine stub that records the MachineConfig it was handed. */
class ConfigCaptureMachine final : public MemorySystem
{
  public:
    ConfigCaptureMachine() : params_(MachineParams::baseline()) {}

    void configure(const MachineConfig &config) override
    {
        config_ = config;
        configured_ = true;
    }
    void replayOps(unsigned, std::span<const EngineOp>) override {}
    void barrier() override {}
    void endIteration() override {}
    Cycles coreNow(unsigned) const override { return 0; }
    Cycles cycles() const override { return 0; }
    StatsReport report() const override { return {}; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "config-capture"; }

    MachineConfig config_;
    bool configured_ = false;

  private:
    MachineParams params_;
};

TEST(Engine, HotBoundaryDefaultsClampToAtLeastOne)
{
    // 0.2 * n truncates to 0 for n < 5; the default must still mark at
    // least one vertex hot so an explicit 0 stays distinguishable.
    for (VertexId n : {1u, 2u, 3u, 4u}) {
        Graph g = chainGraph(n);
        PropertyRegistry props(n);
        ConfigCaptureMachine mach;
        Engine eng(g, props, pageRankUpdateFn(), &mach);
        eng.configureMachine();
        ASSERT_TRUE(mach.configured_);
        EXPECT_EQ(mach.config_.hot_boundary, 1u) << "n=" << n;
    }
    // Above the truncation regime the 20% cut is unchanged.
    Graph g = chainGraph(100);
    PropertyRegistry props(100);
    ConfigCaptureMachine mach;
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    eng.configureMachine();
    EXPECT_EQ(mach.config_.hot_boundary, 20u);
    // An explicit boundary passes through untouched.
    eng.configureMachine(7);
    EXPECT_EQ(mach.config_.hot_boundary, 7u);
}

TEST(Engine, VertexMapAppliesToSubsetOnly)
{
    Graph g = chainGraph(10);
    PropertyRegistry props(10);
    auto &val = props.create<std::int32_t>("val", 0);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    eng.vertexMap(VertexSubset::fromSparse(10, {2, 4}),
                  [&](unsigned, VertexId v) { val[v] = 1; });
    EXPECT_EQ(val[2], 1);
    EXPECT_EQ(val[4], 1);
    EXPECT_EQ(val[3], 0);
}

TEST(Engine, VertexHookRunsOncePerActiveVertex)
{
    Graph g = chainGraph(20);
    PropertyRegistry props(20);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    int hooks = 0;
    eng.edgeMap(VertexSubset::all(20),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    return EdgeUpdateResult{};
                },
                false, [&](unsigned, VertexId) { ++hooks; });
    EXPECT_EQ(hooks, 20);
}

TEST(Engine, MachineReceivesEvents)
{
    Graph g = chainGraph(64);
    PropertyRegistry props(64);
    auto &prop = props.create<double>("p", 0.0);
    MachineParams mp = MachineParams::baseline().scaledCapacities(1.0 / 64);
    BaselineMachine mach(mp);
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();
    eng.edgeMap(VertexSubset::all(64),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    EdgeUpdateResult r;
                    r.performed_atomic = true;
                    return r;
                },
                false);
    eng.finishIteration();
    const StatsReport r = mach.report();
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.atomics_total, 63u);
    EXPECT_GT(r.l1_accesses, 63u);
    EXPECT_GT(r.instructions, 0u);
}

TEST(Engine, FunctionalAndSimulatedAgree)
{
    // The same algorithm must produce identical functional results with
    // and without a machine attached.
    Rng rng(5);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng));
    auto func = runPageRank(g, nullptr, 3);
    MachineParams mp = MachineParams::baseline().scaledCapacities(1.0 / 64);
    BaselineMachine mach(mp);
    auto sim = runPageRank(g, &mach, 3);
    ASSERT_EQ(func.rank.size(), sim.rank.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(func.rank[v], sim.rank[v], 1e-12);
}

TEST(Engine, AddressBasesAreDisjointRegions)
{
    Graph g = chainGraph(10);
    PropertyRegistry props(10);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    EXPECT_GE(eng.outOffsetsBase(), addr_space::kEdgeBase);
    EXPECT_GT(eng.outArcsBase(), eng.outOffsetsBase());
    EXPECT_GE(eng.denseActiveBase(), addr_space::kActiveBase);
    EXPECT_GT(eng.sparseActiveBase(), eng.denseActiveBase());
}

TEST(Engine, IterationCounterAdvances)
{
    Graph g = chainGraph(4);
    PropertyRegistry props(4);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    EXPECT_EQ(eng.iterations(), 0u);
    eng.finishIteration();
    eng.finishIteration();
    EXPECT_EQ(eng.iterations(), 2u);
}

/**
 * Machine stub that records every op it is handed, tagged with its core
 * and the replayOps() call that carried it. Each core's clock advances
 * by one per access and by the instruction-equivalents of a compute, so
 * the engine's lowest-clock pick really interleaves the cores.
 */
class RecordingMachine final : public MemorySystem
{
  public:
    struct Event
    {
        unsigned core = 0;
        std::size_t call = 0;
        EngineOp op;
    };

    RecordingMachine()
        : params_(MachineParams::baseline()), clocks_(params_.num_cores, 0)
    {
    }

    void configure(const MachineConfig &) override {}
    void
    replayOps(unsigned core, std::span<const EngineOp> ops) override
    {
        for (const EngineOp &op : ops) {
            events.push_back({core, calls, op});
            clocks_[core] += op.kind == EngineOpKind::Compute ? op.arg : 1;
        }
        ++calls;
    }
    void
    barrier() override
    {
        const Cycles t = *std::max_element(clocks_.begin(), clocks_.end());
        std::fill(clocks_.begin(), clocks_.end(), t);
        barriers.push_back(events.size());
    }
    void endIteration() override {}
    Cycles coreNow(unsigned core) const override { return clocks_[core]; }
    Cycles cycles() const override { return clocks_[0]; }
    StatsReport report() const override { return {}; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "recording"; }

    std::vector<Event> events;
    /** events.size() at each barrier. */
    std::vector<std::size_t> barriers;
    std::size_t calls = 0;

  private:
    MachineParams params_;
    std::vector<Cycles> clocks_;
};

/** Every field of one recorded event, for stream equality. */
auto
eventKey(const RecordingMachine::Event &e)
{
    const EngineOp &op = e.op;
    return std::make_tuple(e.core, e.call, op.addr, op.vertex, op.arg,
                           op.kind, op.cls, op.flags, op.operand_bytes);
}

TEST(Engine, VertexMapLiveEmitLandsBetweenReadsAndWrites)
{
    // vertexMap's hook offset sits after the item's active-list and
    // property reads: a live emit from the functor must reach the
    // machine after those reads and before the item's writes and
    // per-vertex compute, each group in its own replay run.
    constexpr VertexId kN = 40;
    constexpr std::uint64_t kMarker = 0x7000000000ull;
    Graph g = chainGraph(kN);
    PropertyRegistry props(kN);
    auto &in = props.create<std::int32_t>("in", 0);
    auto &out = props.create<std::int32_t>("out", 0);
    const std::vector<VertexId> active = {3, 17, 30};

    for (const bool dense : {false, true}) {
        RecordingMachine mach;
        Engine eng(g, props, pageRankUpdateFn(), &mach);
        VertexSubset subset = VertexSubset::fromSparse(kN, active);
        if (dense)
            subset.toDense();
        eng.vertexMap(
            subset,
            [&](unsigned core, VertexId v) {
                eng.emitLoad(core, kMarker + v, 4, AccessClass::VertexProp);
            },
            {&in}, {&out});

        for (const VertexId v : active) {
            const auto it = std::find_if(
                mach.events.begin(), mach.events.end(), [&](const auto &e) {
                    return e.op.addr == kMarker + v;
                });
            ASSERT_NE(it, mach.events.end()) << "no live emit for " << v;
            const auto i = static_cast<std::size_t>(it - mach.events.begin());
            ASSERT_GE(i, 2u);
            ASSERT_LT(i + 2, mach.events.size());
            const auto &active_read = mach.events[i - 2];
            const auto &prop_read = mach.events[i - 1];
            const auto &live = mach.events[i];
            const auto &store = mach.events[i + 1];
            const auto &compute = mach.events[i + 2];
            EXPECT_EQ(active_read.op.kind, EngineOpKind::Load);
            EXPECT_EQ(active_read.op.cls, AccessClass::ActiveList);
            EXPECT_EQ(prop_read.op.kind, EngineOpKind::Load);
            EXPECT_EQ(prop_read.op.addr, in.addrOf(v));
            EXPECT_EQ(store.op.kind, EngineOpKind::Store);
            EXPECT_EQ(store.op.addr, out.addrOf(v));
            EXPECT_EQ(compute.op.kind, EngineOpKind::Compute);
            for (const auto *e : {&active_read, &prop_read, &store, &compute})
                EXPECT_EQ(e->core, live.core) << "v=" << v;
            // Reads, live emit, writes: three consecutive replay runs.
            EXPECT_EQ(active_read.call, live.call - 1);
            EXPECT_EQ(prop_read.call, live.call - 1);
            EXPECT_EQ(store.call, live.call + 1);
            EXPECT_EQ(compute.call, live.call + 1);
        }
    }
}

/** Run one plain parallel-for (or its scriptedFor spelling) whose body
 *  emits live events, and return the recorded stream. */
RecordingMachine
recordParallelFor(bool as_scripted, std::uint64_t total, unsigned chunk)
{
    Graph g = chainGraph(4);
    PropertyRegistry props(4);
    RecordingMachine mach;
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    auto body = [&eng](unsigned core, std::uint64_t i) {
        eng.emitLoad(core, 0x1000 + 64 * i, 8, AccessClass::EdgeList);
        eng.emitCompute(core, static_cast<std::uint32_t>(1 + i % 5));
    };
    if (as_scripted) {
        eng.scriptedFor(
            total, [](Engine::ScriptBuilder &, std::uint64_t) {}, body,
            chunk);
    } else {
        eng.parallelFor(total, body, chunk);
    }
    return mach;
}

TEST(Engine, ParallelForIsScriptedForWithEmptyGenerator)
{
    for (const unsigned chunk : {0u, 1u, 3u}) {
        const RecordingMachine plain = recordParallelFor(false, 300, chunk);
        const RecordingMachine scripted = recordParallelFor(true, 300, chunk);
        ASSERT_EQ(plain.events.size(), 600u);
        ASSERT_EQ(plain.events.size(), scripted.events.size());
        for (std::size_t i = 0; i < plain.events.size(); ++i) {
            ASSERT_EQ(eventKey(plain.events[i]), eventKey(scripted.events[i]))
                << "chunk " << chunk << ", event " << i;
        }
        EXPECT_EQ(plain.barriers, scripted.barriers);
        EXPECT_EQ(plain.barriers, std::vector<std::size_t>{600});
        // Every core dealt a chunk shows up in the stream.
        const unsigned k = chunk ? chunk : EngineOptions{}.chunk_size;
        std::set<unsigned> cores;
        for (const auto &e : plain.events)
            cores.insert(e.core);
        EXPECT_EQ(cores.size(), std::min(16u, (300 + k - 1) / k));
    }
}

TEST(Engine, PullPageRankMatchesFunctionalOnEveryMachine)
{
    // The pull gathers and apply run as the item hook, after the item's
    // ops: the ranks must equal the machine-less run's bit for bit.
    // Destinations stay within one edge task, so each one's additions
    // happen in the same (edge) order on both paths.
    for (const testing::FuzzSpec &spec :
         {testing::FuzzSpec{testing::FuzzFamily::Rmat, 7, 256, 8, true},
          testing::FuzzSpec{testing::FuzzFamily::RoadMesh, 11, 225, 4,
                            true}}) {
        const Graph g = spec.materialize();
        for (VertexId v = 0; v < g.numVertices(); ++v)
            ASSERT_LE(g.inDegree(v), EngineOptions{}.max_edges_per_task);
        const PageRankResult func = runPageRankPull(g, nullptr, 3);
        for (const std::string machine :
             {"baseline", "grasp", "omega", "omega-sp-only"}) {
            const MachineRegistryEntry &entry = machineEntry(machine);
            auto m = entry.make(entry.make_params());
            const PageRankResult sim = runPageRankPull(g, m.get(), 3);
            EXPECT_GT(m->cycles(), 0u) << machine;
            EXPECT_EQ(sim.iterations, func.iterations) << machine;
            EXPECT_EQ(sim.rank, func.rank)
                << machine << " / " << spec.describe();
        }
    }
}

} // namespace
} // namespace omega
