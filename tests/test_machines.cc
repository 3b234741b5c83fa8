/**
 * @file
 * Tests for the BaselineMachine and OmegaMachine memory systems, plus
 * per-registry-machine checks of the shared CMP frame: stat-root names,
 * the cold-vertex atomic's stall accounting, and pinned digests of every
 * armed artifact (stat tree, intervals, faults, trace, watchdog text,
 * access profile).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "omega/omega_machine.hh"
#include "sim/baseline_machine.hh"
#include "sim/fault.hh"
#include "sim/interval_stats.hh"
#include "sim/machine_registry.hh"
#include "sim/profile.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/trace.hh"

namespace omega {
namespace {

constexpr std::uint64_t kProp = addr_space::kPropBase;

MachineConfig
config(VertexId n = 1024, std::uint32_t entry = 8)
{
    MachineConfig c;
    c.num_vertices = n;
    PropSpec p;
    p.start_addr = kProp;
    p.type_size = entry;
    p.stride = entry;
    p.count = n;
    c.props = {p};
    c.dense_active_base = addr_space::kActiveBase;
    c.sparse_active_base = addr_space::kActiveBase + 0x10000;
    c.sparse_counter_addr = addr_space::kActiveBase + 0x20000;
    c.microcode_cycles = 4;
    c.hot_boundary = n / 5;
    return c;
}

/** Deliver one engine event, as the engine's live emits do. */
void
issue(MemorySystem &m, unsigned core, const EngineOp &op)
{
    m.replayOps(core, {&op, 1});
}

EngineOp
propLoad(VertexId v, std::uint32_t entry = 8)
{
    return EngineOp::load(kProp + std::uint64_t(v) * entry, entry,
                          AccessClass::VertexProp, /*blocking=*/false, v);
}

EngineOp
atomicOn(VertexId v, std::uint32_t entry = 8, bool activates_sparse = false)
{
    return EngineOp::atomic(v, kProp + std::uint64_t(v) * entry, entry,
                            /*operand_bytes=*/8, /*activates_dense=*/false,
                            activates_sparse);
}

EngineOp
srcRead(VertexId v)
{
    return EngineOp::srcProp(v, kProp + v * 8ull, 8);
}

// --- Baseline ---------------------------------------------------------

TEST(BaselineMachine, CountsHotVertexAccesses)
{
    BaselineMachine m(MachineParams::baseline());
    m.configure(config(1000)); // hot boundary = 200
    issue(m, 0, propLoad(10));
    issue(m, 0, propLoad(500));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.vtxprop_accesses, 2u);
    EXPECT_EQ(r.vtxprop_hot_accesses, 1u);
}

TEST(BaselineMachine, AtomicSerializesAndCounts)
{
    MachineParams p = MachineParams::baseline();
    BaselineMachine m(p);
    m.configure(config());
    issue(m, 0, atomicOn(5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_total, 1u);
    EXPECT_EQ(r.atomics_on_core, 1u);
    EXPECT_EQ(r.atomics_offloaded, 0u);
    EXPECT_GE(r.atomic_stall_cycles, p.atomic_serialize);
}

TEST(BaselineMachine, PlainAtomicAblationIsCheaper)
{
    MachineParams p = MachineParams::baseline();
    BaselineMachine normal(p);
    normal.configure(config());
    p.atomics_as_plain = true;
    BaselineMachine plain(p);
    plain.configure(config());
    for (int i = 0; i < 200; ++i) {
        issue(normal, 0, atomicOn(i % 64));
        issue(plain, 0, atomicOn(i % 64));
    }
    normal.barrier();
    plain.barrier();
    EXPECT_LT(plain.cycles(), normal.cycles());
}

TEST(BaselineMachine, BarrierSyncsAllCores)
{
    BaselineMachine m(MachineParams::baseline());
    m.configure(config());
    issue(m, 0, EngineOp::compute(800)); // core 0 races ahead
    m.barrier();
    for (unsigned c = 0; c < m.params().num_cores; ++c)
        EXPECT_EQ(m.coreNow(c), m.cycles());
    EXPECT_GE(m.cycles(), 100u);
}

TEST(BaselineMachine, SparseActivationTouchesCounter)
{
    BaselineMachine m(MachineParams::baseline());
    m.configure(config());
    issue(m, 0, atomicOn(3, 8, /*activates_sparse=*/true));
    m.barrier();
    const StatsReport r = m.report();
    // dst line + counter + append store.
    EXPECT_GE(r.l1_accesses, 3u);
}

// --- OMEGA ------------------------------------------------------------

MachineParams
omegaParams()
{
    // Scaled down so 1024 vertices fit partially: 16 cores x 4 KB = 64 KB
    // of scratchpad over 9-byte lines ~= 7281 lines.
    MachineParams p = MachineParams::omega();
    p.sp_total_bytes = 64 * 1024;
    p.l2.size_bytes = 256 * 1024;
    p.l1d.size_bytes = 1024;
    return p;
}

TEST(OmegaMachine, ResidencyFromCapacity)
{
    OmegaMachine m(omegaParams());
    m.configure(config(100000));
    // 64 KB / 9 B lines = 7281 lines; all vertices beyond stay in cache.
    EXPECT_GT(m.residentVertices(), 7000u);
    EXPECT_LT(m.residentVertices(), 7300u);
}

TEST(OmegaMachine, SmallGraphFitsEntirely)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    EXPECT_EQ(m.residentVertices(), 1000u);
}

TEST(OmegaMachine, ScratchpadCapacityCoversRemainder)
{
    // A total not divisible by the core count must not silently shrink:
    // the remainder bytes are spread over the first scratchpads so the
    // modeled capacity sums to exactly sp_total_bytes.
    MachineParams p = omegaParams();
    p.sp_total_bytes = 64 * 1024 + 7; // 16 cores: 4096 each + 7 left over
    OmegaMachine m(p);
    std::uint64_t total = 0;
    for (const Scratchpad &sp : m.scratchpads())
        total += sp.capacityBytes();
    EXPECT_EQ(total, p.sp_total_bytes);
    EXPECT_EQ(m.scratchpads().front().capacityBytes(), 4096u + 1u);
    EXPECT_EQ(m.scratchpads().back().capacityBytes(), 4096u);

    // Divisible totals keep the historical even split.
    OmegaMachine even(omegaParams());
    for (const Scratchpad &sp : even.scratchpads())
        EXPECT_EQ(sp.capacityBytes(), 4096u);
}

TEST(OmegaMachine, ResidentAccessUsesScratchpad)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    issue(m, 0, propLoad(5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.sp_accesses, 1u);
    EXPECT_EQ(r.l1_accesses, 0u);
}

TEST(OmegaMachine, NonResidentAccessUsesCache)
{
    OmegaMachine m(omegaParams());
    m.configure(config(100000));
    const VertexId cold = 50000;
    issue(m, 0, propLoad(cold));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.sp_accesses, 0u);
    EXPECT_EQ(r.l1_accesses, 1u);
}

TEST(OmegaMachine, LocalVsRemoteScratchpad)
{
    MachineParams p = omegaParams();
    OmegaMachine m(p);
    m.configure(config(1000));
    // Vertex 0 homes on scratchpad 0 (chunk 64): local for core 0,
    // remote for core 1.
    issue(m, 0, propLoad(0));
    issue(m, 1, propLoad(0));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.sp_local, 1u);
    EXPECT_EQ(r.sp_remote, 1u);
    // Remote word packets: control + <=8B payload, single flits.
    EXPECT_GT(r.onchip_packets, 0u);
}

TEST(OmegaMachine, AtomicsAreOffloadedToPisc)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    for (int i = 0; i < 10; ++i)
        issue(m, 0, atomicOn(5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_total, 10u);
    EXPECT_EQ(r.atomics_offloaded, 10u);
    EXPECT_EQ(r.atomics_on_core, 0u);
    EXPECT_EQ(r.pisc_ops, 10u);
    EXPECT_GT(r.pisc_busy_cycles, 0u);
    // Fire-and-forget: the core never pays atomic stall.
    EXPECT_EQ(r.atomic_stall_cycles, 0u);
}

TEST(OmegaMachine, ColdAtomicFallsBackToCore)
{
    OmegaMachine m(omegaParams());
    m.configure(config(100000));
    issue(m, 0, atomicOn(90000));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_offloaded, 0u);
    EXPECT_EQ(r.atomics_on_core, 1u);
}

TEST(OmegaMachine, BarrierWaitsForPiscs)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    // Queue many atomics on one home PISC; the barrier must cover their
    // completion even though the core fired and forgot.
    for (int i = 0; i < 100; ++i)
        issue(m, 0, atomicOn(5));
    m.barrier();
    EXPECT_GE(m.cycles(), 100u * 4u);
}

TEST(OmegaMachine, SvbCachesRemoteSourceReads)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    const VertexId v = 200; // homes on scratchpad 3 (chunk 64)
    // Core 0 reads it repeatedly, as SSSP does per out-edge.
    for (int i = 0; i < 20; ++i)
        issue(m, 0, srcRead(v));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.svb_misses, 1u);
    EXPECT_EQ(r.svb_hits, 19u);
    EXPECT_EQ(r.sp_remote, 1u);
}

TEST(OmegaMachine, SvbInvalidatedAtIterationEnd)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    const VertexId v = 200;
    issue(m, 0, srcRead(v));
    issue(m, 0, srcRead(v));
    m.endIteration();
    issue(m, 0, srcRead(v));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.svb_misses, 2u);
    EXPECT_EQ(r.svb_hits, 1u);
}

TEST(OmegaMachine, LocalSourceReadsBypassSvb)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    // Vertex 5 homes on scratchpad 0: local to core 0.
    issue(m, 0, srcRead(5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.svb_misses, 0u);
    EXPECT_EQ(r.sp_local, 1u);
}

TEST(OmegaMachine, SpOnlyModeExecutesAtomicsOnCore)
{
    MachineParams p = omegaParams();
    p.pisc_enabled = false; // section X.A ablation
    OmegaMachine m(p);
    m.configure(config(1000));
    issue(m, 0, atomicOn(5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_offloaded, 0u);
    EXPECT_EQ(r.atomics_on_core, 1u);
    EXPECT_GT(r.sp_accesses, 0u); // still word-level SP data movement
    EXPECT_GT(r.atomic_stall_cycles, 0u);
    EXPECT_EQ(m.name(), "omega-sp-only");
}

TEST(OmegaMachine, SameVertexAtomicConflictsCounted)
{
    OmegaMachine m(omegaParams());
    m.configure(config(1000));
    // Back-to-back atomics on one vertex arrive while the first is
    // still executing on the home PISC.
    issue(m, 0, atomicOn(7));
    issue(m, 0, atomicOn(7));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_GE(r.pisc_blocked_conflicts, 1u);
}

TEST(OmegaMachine, OnChipTrafficSmallerThanBaselinePerAtomic)
{
    // The headline Fig-17 mechanism: word packets vs line transfers.
    MachineParams bp = MachineParams::baseline();
    bp.l1d.size_bytes = 1024;
    bp.l2.size_bytes = 256 * 1024;
    BaselineMachine base(bp);
    base.configure(config(1000));
    OmegaMachine om(omegaParams());
    om.configure(config(1000));
    // Scatter atomics over many vertices from many cores.
    for (unsigned i = 0; i < 1000; ++i) {
        issue(base, i % 16, atomicOn((i * 37) % 1000));
        issue(om, i % 16, atomicOn((i * 37) % 1000));
    }
    base.barrier();
    om.barrier();
    EXPECT_LT(om.report().onchip_bytes, base.report().onchip_bytes / 2);
}

// --- Every registered machine --------------------------------------

/** One core's task: a span of ops that mixes every event kind. */
struct OpTask
{
    unsigned core;
    std::vector<EngineOp> ops;
};

std::vector<OpTask>
mixedTasks()
{
    // Hot vertices (< 1000) are scratchpad-resident on OMEGA at the
    // 1/256 capacity scale and read through the SVB from remote cores;
    // cold ones (>= 50000) take the cache path everywhere.
    std::vector<OpTask> tasks;
    for (unsigned t = 0; t < 256; ++t) {
        OpTask task{t % 16, {}};
        const VertexId hot = (t * 37) % 1000;
        const VertexId cold = 50000 + (t * 101) % 40000;
        auto prop = [](VertexId v) { return kProp + v * 8ull; };
        task.ops = {
            EngineOp::compute(8),
            EngineOp::load(addr_space::kEdgeBase + t * 64ull, 16,
                           AccessClass::EdgeList, /*blocking=*/false, 0,
                           /*sequential=*/true),
            EngineOp::load(prop(hot), 8, AccessClass::VertexProp,
                           /*blocking=*/true, hot),
            EngineOp::srcProp(hot, prop(hot), 8),
            EngineOp::srcProp(cold, prop(cold), 8),
            EngineOp::store(prop(cold), 8, AccessClass::VertexProp, cold),
            EngineOp::atomic(hot, prop(hot), 8, 8, /*dense=*/true,
                             /*sparse=*/false),
            EngineOp::atomic(cold, prop(cold), 8, 8, /*dense=*/false,
                             /*sparse=*/true),
            EngineOp::atomic(hot, prop(hot), 8, 8, /*dense=*/false,
                             /*sparse=*/true),
            EngineOp::srcProp(hot, prop(hot), 8),
            EngineOp::compute(4),
        };
        tasks.push_back(std::move(task));
    }
    return tasks;
}

/** What one delivery of the task list produced. */
struct ChunkedRun
{
    StatsReport report;
    /** report() and the stat tree, as JSON. */
    std::string json;
};

/**
 * Run the task list through a fresh machine, each task as one span or
 * one op per call.
 */
ChunkedRun
runTasks(const MachineRegistryEntry &entry, const std::vector<OpTask> &tasks,
         bool one_op_per_call)
{
    std::unique_ptr<MemorySystem> m =
        entry.make(entry.make_params().scaledCapacities(1.0 / 256));
    m->configure(config(100000));
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const OpTask &task = tasks[i];
        if (one_op_per_call) {
            for (const EngineOp &op : task.ops)
                issue(*m, task.core, op);
        } else {
            m->replayOps(task.core, task.ops);
        }
        if (i % 64 == 63)
            m->barrier();
        if (i == tasks.size() / 2)
            m->endIteration();
    }
    m->barrier();
    m->endIteration();

    ChunkedRun run{m->report(), {}};
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("report");
    run.report.writeJson(w);
    w.key("stat_tree");
    m->statTree()->writeJson(w);
    w.endObject();
    run.json = os.str();
    return run;
}

TEST(MachineRegistry, OpChunkingDoesNotChangeResults)
{
    // replayOps is the only event path: the engine hands whole task
    // spans to it from scripted phases and one-op spans from its live
    // emits, and its flush points rely on the split never mattering.
    const std::vector<OpTask> tasks = mixedTasks();
    for (const MachineRegistryEntry &entry : machineRegistry()) {
        const ChunkedRun spans = runTasks(entry, tasks, false);
        const ChunkedRun single = runTasks(entry, tasks, true);
        EXPECT_EQ(spans.json, single.json) << entry.name;
        // The stream really reaches every handler.
        EXPECT_EQ(spans.report.atomics_total, 3u * tasks.size())
            << entry.name;
        EXPECT_GT(spans.report.vtxprop_hot_accesses, 0u) << entry.name;
        if (std::string(entry.name).starts_with("omega")) {
            EXPECT_GT(spans.report.sp_accesses, 0u) << entry.name;
            EXPECT_GT(spans.report.svb_hits, 0u) << entry.name;
        }
    }
}

TEST(MachineRegistry, StatTreeRootIsTheMachineName)
{
    // The registry name labels every artifact of a run, stat roots
    // included (StatGroup::dump prefixes every line with it).
    for (const MachineRegistryEntry &entry : machineRegistry()) {
        auto m = entry.make(entry.make_params().scaledCapacities(1.0 / 256));
        ASSERT_NE(m->statTree(), nullptr) << entry.name;
        EXPECT_EQ(m->statTree()->name(), m->name()) << entry.name;
        EXPECT_EQ(m->name(), entry.name);
    }
}

TEST(MachineRegistry, PlainColdAtomicsChargeMemoryStalls)
{
    // Under the atomics_as_plain ablation a cold-vertex atomic is an
    // ordinary store through the caches on every machine: the same
    // cycles, and every stall charged to memory, sparse-list append
    // included.
    Cycles baseline_cycles = 0;
    for (const char *name : {"baseline", "omega", "omega-sp-only"}) {
        const MachineRegistryEntry &entry = machineEntry(name);
        MachineParams p = entry.make_params().scaledCapacities(1.0 / 256);
        p.atomics_as_plain = true;
        auto m = entry.make(p);
        m->configure(config(100000));
        for (VertexId i = 0; i < 400; ++i)
            issue(*m, 0, atomicOn(50000 + i, 8, /*activates_sparse=*/true));
        m->barrier();
        const StatsReport r = m->report();
        EXPECT_EQ(r.atomics_on_core, 400u) << name;
        EXPECT_EQ(r.atomic_stall_cycles, 0u) << name;
        EXPECT_GT(r.mem_stall_cycles, 0u) << name;
        if (baseline_cycles == 0)
            baseline_cycles = m->cycles();
        EXPECT_EQ(m->cycles(), baseline_cycles) << name;
    }
}

TEST(MachineRegistry, PlainResidentAtomicsChargeNoAtomicStalls)
{
    // On omega-sp-only a resident vertex's atomic runs on the core
    // against the scratchpad. Under atomics_as_plain it is a plain read
    // and write there too: no serialization, no atomic stalls, the
    // sparse-list append included.
    const MachineRegistryEntry &entry = machineEntry("omega-sp-only");
    MachineParams p = entry.make_params().scaledCapacities(1.0 / 256);
    p.atomics_as_plain = true;
    auto m = entry.make(p);
    m->configure(config(100000));
    for (VertexId i = 0; i < 400; ++i)
        issue(*m, 0, atomicOn(i, 8, /*activates_sparse=*/true));
    m->barrier();
    const StatsReport r = m->report();
    EXPECT_EQ(r.atomics_on_core, 400u);
    EXPECT_GE(r.sp_accesses, 800u); // every read and write is resident
    EXPECT_EQ(r.atomic_stall_cycles, 0u);
}

// --- Armed artifacts, pinned per machine ----------------------------

/** FNV-1a 64-bit over @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Digest of the JSON object {"v": <what @p write emits>}. */
template <typename Write>
std::uint64_t
jsonDigest(Write &&write)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("v");
    write(w);
    w.endObject();
    return fnv1a(os.str());
}

/** Digests of every artifact an armed run leaves behind. */
struct ArmedDigests
{
    std::uint64_t stat_tree = 0;
    std::uint64_t intervals = 0;
    std::uint64_t faults = 0;
    std::uint64_t trace = 0;
    std::uint64_t watchdog = 0;
    /** Stat tree plus profile document of a profiled run; depends on
     *  whether OMEGA_PROFILE is compiled in. */
    std::uint64_t profile = 0;
};

/** A fresh machine at 1/1024 capacity: the test graph then has both
 *  scratchpad-resident and cold vertices on OMEGA. */
std::unique_ptr<MemorySystem>
smallMachine(const MachineRegistryEntry &entry, bool armed)
{
    auto m = entry.make(entry.make_params().scaledCapacities(1.0 / 1024));
    if (armed) {
        std::string error;
        const auto plan =
            FaultPlan::parse("seed=7,ecc=0.01,nack=0.02,dram=0.02", &error);
        EXPECT_TRUE(plan.has_value()) << error;
        m->armFaults(*plan);
    }
    return m;
}

ArmedDigests
armedDigests(const MachineRegistryEntry &entry)
{
    static const Graph g =
        testing::FuzzSpec{testing::FuzzFamily::Rmat, 11, 4096, 8, true}
            .materialize();
    ArmedDigests d;
    {
        // Fault-armed, interval-sampled and traced: BFS, then PageRank.
        trace::TraceSink sink;
        trace::ScopedSink scope(&sink);
        IntervalRecorder rec(20'000);
        auto m = smallMachine(entry, /*armed=*/true);
        m->attachTracing();
        m->attachIntervalRecorder(&rec);
        runAlgorithmOnMachine(AlgorithmKind::BFS, g, m.get());
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, m.get());
        m->recordFinalSample();
        d.stat_tree =
            jsonDigest([&](JsonWriter &w) { m->statTree()->writeJson(w); });
        d.intervals = jsonDigest([&](JsonWriter &w) { rec.writeJson(w); });
        d.faults = jsonDigest(
            [&](JsonWriter &w) { m->faultInjector()->writeJson(w); });
        std::ostringstream os;
        sink.writeChromeTrace(os);
        d.trace = fnv1a(os.str());
    }
    {
        // A phase budget far below one BFS round forces a watchdog trip.
        auto m = smallMachine(entry, /*armed=*/true);
        EngineOptions opts;
        opts.watchdog_cycles = 5'000;
        try {
            runAlgorithmOnMachine(AlgorithmKind::BFS, g, m.get(), opts);
            ADD_FAILURE() << entry.name << ": the watchdog never tripped";
        } catch (const WatchdogError &e) {
            d.watchdog = fnv1a(e.what());
        }
    }
    {
        auto m = smallMachine(entry, /*armed=*/false);
        m->armProfile();
        runAlgorithmOnMachine(AlgorithmKind::BFS, g, m.get());
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, m.get());
        m->profiler()->finishRun(m->cycles());
        d.profile = jsonDigest([&](JsonWriter &w) {
            w.beginObject();
            w.key("stat_tree");
            m->statTree()->writeJson(w);
            w.key("profile");
            m->profiler()->writeJson(w);
            w.endObject();
        });
    }
    return d;
}

TEST(MachineRegistry, ArmedArtifactsArePinned)
{
    // Every arming, tracing and watchdog path of every machine, digested.
    // Any change to what a machine samples, traces, injects, reports or
    // dumps moves a pin. Pins taken before the machines shared one CMP
    // frame; the profile pins come from an OMEGA_PROFILE build.
    struct Pin
    {
        const char *machine;
        ArmedDigests digests;
        /** The profile digest of a build without OMEGA_PROFILE. */
        std::uint64_t profile_off;
    };
    const std::vector<Pin> pins = {
        {"baseline",
         {0x4a6e79d318bd2a8bull, 0xad2f002ab0fbfb7dull, 0x385ff07bc323891cull,
          0x2f549f905a8465d7ull, 0x3d379336acf3ac08ull, 0x1e8bed8134ba2f8cull},
         0x0a95a8d66adea4d4ull},
        {"grasp",
         {0xf2948e1220baa911ull, 0x68064b7261a6fc0eull, 0xce0fe22fe20951c7ull,
          0x996c93c0fe98ab90ull, 0xb3984496b1e9debcull, 0xb93f80fea0719601ull},
         0x961d1c350926a101ull},
        {"omega",
         {0xbdad9df38a7ea2a7ull, 0x2e87cef5c15915a4ull, 0x5b5d9f006383a485ull,
          0x128256744a1e9e6cull, 0xa4400dd192d01020ull, 0x296b794bd1b3f851ull},
         0xc20b19b2c0ae7acaull},
        {"omega-sp-only",
         {0x2fc9a5afea214c70ull, 0xd967541bdd49ed33ull, 0x5a3035f5d99eb299ull,
          0x0d4bd279a80b7d30ull, 0xe5c6185ab5d4595cull, 0x1f7a6121d3b45aaaull},
         0xfdb9245837d84aa9ull},
    };
    for (const Pin &pin : pins) {
        const ArmedDigests d = armedDigests(machineEntry(pin.machine));
        const auto hex = [](std::uint64_t v) {
            std::ostringstream os;
            os << "0x" << std::hex << v;
            return os.str();
        };
        SCOPED_TRACE(std::string(pin.machine) + " {" + hex(d.stat_tree) +
                     ", " + hex(d.intervals) + ", " + hex(d.faults) + ", " +
                     hex(d.trace) + ", " + hex(d.watchdog) + ", " +
                     hex(d.profile) + "}");
        EXPECT_EQ(d.stat_tree, pin.digests.stat_tree);
        EXPECT_EQ(d.intervals, pin.digests.intervals);
        EXPECT_EQ(d.faults, pin.digests.faults);
        if (trace::compiledIn()) {
            EXPECT_EQ(d.trace, pin.digests.trace);
        }
        EXPECT_EQ(d.watchdog, pin.digests.watchdog);
        EXPECT_EQ(d.profile, profile::compiledIn() ? pin.digests.profile
                                                   : pin.profile_off);
    }
}

} // namespace
} // namespace omega
