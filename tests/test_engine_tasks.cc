/**
 * @file
 * Tests for the engine's edge-task segmentation: hubs are split across
 * scheduling units (as Ligra parallelizes within high-degree vertices),
 * without changing functional behaviour, and the op stream pinned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "algorithms/bfs.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "framework/engine.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "sim/baseline_machine.hh"
#include "util/rng.hh"

namespace omega {
namespace {

/** A star graph: one hub pointing at n-1 spokes. */
Graph
starGraph(VertexId n)
{
    EdgeList edges;
    for (VertexId v = 1; v < n; ++v)
        edges.push_back({0, v, 1});
    return buildGraph(n, std::move(edges));
}

TEST(EngineTasks, UpdateRunsOncePerEdgeRegardlessOfTaskSize)
{
    Graph g = starGraph(1000); // hub degree 999 >> any task cap
    for (const unsigned cap : {8u, 64u, 256u, 4096u}) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        PropertyRegistry props(g.numVertices());
        Engine eng(g, props, pageRankUpdateFn(), nullptr, opts);
        std::map<VertexId, int> seen;
        eng.edgeMap(VertexSubset::all(g.numVertices()),
                    [&](unsigned, VertexId, VertexId d, std::int32_t) {
                        ++seen[d];
                        return EdgeUpdateResult{};
                    },
                    false);
        EXPECT_EQ(seen.size(), 999u) << "cap " << cap;
        for (const auto &[v, count] : seen)
            ASSERT_EQ(count, 1) << "cap " << cap << " dst " << v;
    }
}

TEST(EngineTasks, VertexHookRunsOncePerVertexEvenWhenSplit)
{
    Graph g = starGraph(5000);
    EngineOptions opts;
    opts.max_edges_per_task = 64; // hub split into ~78 segments
    PropertyRegistry props(g.numVertices());
    Engine eng(g, props, pageRankUpdateFn(), nullptr, opts);
    std::map<VertexId, int> hooks;
    eng.edgeMap(VertexSubset::all(g.numVertices()),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    return EdgeUpdateResult{};
                },
                false, [&](unsigned, VertexId u) { ++hooks[u]; });
    // Only the hub has out-edges but every vertex gets a first segment;
    // the hook fires once for each ACTIVE vertex.
    for (const auto &[v, count] : hooks)
        ASSERT_EQ(count, 1) << v;
    EXPECT_EQ(hooks.size(), g.numVertices());
}

TEST(EngineTasks, HubIsSharedAcrossCores)
{
    Graph g = starGraph(10000);
    EngineOptions opts;
    opts.max_edges_per_task = 64;
    PropertyRegistry props(g.numVertices());
    auto &prop = props.create<double>("p", 0.0);
    BaselineMachine mach(
        MachineParams::baseline().scaledCapacities(1.0 / 64));
    Engine eng(g, props, pageRankUpdateFn(), &mach, opts);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();

    std::set<unsigned> cores_used;
    eng.edgeMap(VertexSubset::all(g.numVertices()),
                [&](unsigned core, VertexId, VertexId, std::int32_t) {
                    cores_used.insert(core);
                    return EdgeUpdateResult{};
                },
                false);
    // One giant hub: without splitting, exactly one core would process
    // every edge.
    EXPECT_GT(cores_used.size(), 8u);
}

TEST(EngineTasks, SparseModeSplitsHubsToo)
{
    Graph g = starGraph(8000);
    EngineOptions opts;
    opts.max_edges_per_task = 64;
    // Keep the single-vertex frontier in sparse mode.
    opts.dense_threshold_denom = 1;
    PropertyRegistry props(g.numVertices());
    auto &prop = props.create<double>("p", 0.0);
    BaselineMachine mach(
        MachineParams::baseline().scaledCapacities(1.0 / 64));
    Engine eng(g, props, pageRankUpdateFn(), &mach, opts);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();

    std::set<unsigned> cores_used;
    int edges_seen = 0;
    eng.edgeMap(VertexSubset::single(g.numVertices(), 0),
                [&](unsigned core, VertexId, VertexId, std::int32_t) {
                    cores_used.insert(core);
                    ++edges_seen;
                    return EdgeUpdateResult{};
                },
                false);
    EXPECT_EQ(edges_seen, 7999);
    EXPECT_GT(cores_used.size(), 8u);
}

TEST(EngineTasks, FunctionalResultIndependentOfTaskSize)
{
    Rng rng(5);
    Graph g = buildGraph(1 << 9, generateRmat(9, 10, rng));
    const auto ref = refPageRank(g, 5, 0.85);
    for (const unsigned cap : {4u, 32u, 1024u}) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        auto pr = runPageRank(g, nullptr, 5, 0.85, 0.0, opts);
        for (VertexId v = 0; v < g.numVertices(); ++v)
            ASSERT_NEAR(pr.rank[v], ref[v], 1e-9) << "cap " << cap;
    }
}

TEST(EngineTasks, CyclesDeterministicPerTaskSize)
{
    Rng rng(6);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng));
    for (const unsigned cap : {16u, 256u}) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        Cycles c1;
        Cycles c2;
        {
            BaselineMachine m(
                MachineParams::baseline().scaledCapacities(1.0 / 64));
            runPageRank(g, &m, 1, 0.85, 0.0, opts);
            c1 = m.cycles();
        }
        {
            BaselineMachine m(
                MachineParams::baseline().scaledCapacities(1.0 / 64));
            runPageRank(g, &m, 1, 0.85, 0.0, opts);
            c2 = m.cycles();
        }
        EXPECT_EQ(c1, c2) << "cap " << cap;
    }
}

TEST(EngineTasks, SplittingReducesTailLatency)
{
    // With a giant hub, coarse tasks leave one core working alone; the
    // split version balances and finishes sooner.
    Graph g = starGraph(20000);
    auto run = [&](unsigned cap) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        BaselineMachine m(
            MachineParams::baseline().scaledCapacities(1.0 / 64));
        PropertyRegistry props(g.numVertices());
        auto &prop = props.create<double>("p", 0.0);
        Engine eng(g, props, pageRankUpdateFn(), &m, opts);
        eng.setAtomicTarget(&prop);
        eng.configureMachine();
        eng.edgeMap(VertexSubset::all(g.numVertices()),
                    [&](unsigned, VertexId, VertexId, std::int32_t) {
                        EdgeUpdateResult r;
                        r.performed_atomic = true;
                        return r;
                    },
                    false);
        eng.finishIteration();
        return m.cycles();
    };
    const Cycles split = run(64);
    const Cycles coarse = run(1u << 30);
    EXPECT_LT(split, coarse / 2);
}

/**
 * Machine stub that folds every (core, op) it is handed, and every
 * barrier, into one FNV-1a digest. Each core's clock advances by one per
 * access and by the instruction-equivalents of a compute, so the
 * engine's lowest-clock pick interleaves the cores as it would on a
 * timing machine.
 */
class DigestMachine final : public MemorySystem
{
  public:
    DigestMachine() : params_(MachineParams::baseline())
    {
        clocks_.assign(params_.num_cores, 0);
    }

    void configure(const MachineConfig &) override {}
    void
    replayOps(unsigned core, std::span<const EngineOp> ops) override
    {
        for (const EngineOp &op : ops) {
            mix(core);
            mix(op.addr);
            mix(op.vertex);
            mix(op.arg);
            mix(static_cast<std::uint64_t>(op.kind));
            mix(static_cast<std::uint64_t>(op.cls));
            mix(op.flags);
            mix(op.operand_bytes);
            clocks_[core] += op.kind == EngineOpKind::Compute ? op.arg : 1;
            ++ops_;
        }
    }
    void
    barrier() override
    {
        const Cycles t = *std::max_element(clocks_.begin(), clocks_.end());
        std::fill(clocks_.begin(), clocks_.end(), t);
        mix(~std::uint64_t{0});
    }
    void endIteration() override {}
    Cycles coreNow(unsigned core) const override { return clocks_[core]; }
    Cycles cycles() const override { return clocks_[0]; }
    StatsReport report() const override { return {}; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "digest"; }

    std::uint64_t digest() const { return hash_; }
    std::uint64_t ops() const { return ops_; }

  private:
    void
    mix(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (x >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    MachineParams params_;
    std::vector<Cycles> clocks_;
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
    std::uint64_t ops_ = 0;
};

TEST(EngineTasks, OpStreamPinned)
{
    // Task lists, hub slicing and graph storage are host-side choices:
    // none of them may move a single op. Hubs of this rMat graph have
    // far more than eight arcs, so every phase below has hub slices.
    Rng rng(11);
    const EdgeList edges = generateRmat(10, 8, rng);
    const Graph directed = buildGraph(1 << 10, edges);
    BuildOptions sym;
    sym.symmetrize = true;
    const Graph symmetric = buildGraph(1 << 10, edges, sym);
    ASSERT_GT(directed.outDegree(0), 8u);
    EngineOptions opts;
    opts.max_edges_per_task = 8;
    EngineOptions weighted = opts;
    weighted.weighted = true;

    struct Case
    {
        const char *name;
        std::function<void(MemorySystem *)> run;
        std::uint64_t ops;
        std::uint64_t digest;
    };
    const Case cases[] = {
        // Dense push edgeMap, then the dense vertexMap.
        {"push pagerank",
         [&](MemorySystem *m) { runPageRank(directed, m, 2, 0.85, 0, opts); },
         62638, 0xe5697f5e9a8a6509ull},
        // Sparse push from a hub root, and the sparse vertexMaps.
        {"bfs", [&](MemorySystem *m) { runBfs(directed, 0, m, opts); },
         29800, 0xeff122e5fe4c4b7full},
        {"weighted sssp",
         [&](MemorySystem *m) { runSssp(directed, 0, m, weighted); }, 49950,
         0x95ed4dfebe4c97b0ull},
        // Pull over the in-CSR, directed and symmetric.
        {"pull pagerank",
         [&](MemorySystem *m) { runPageRankPull(directed, m, 2, 0.85, opts); },
         56494, 0xc36361883a077bf9ull},
        {"symmetric pull pagerank",
         [&](MemorySystem *m) {
             runPageRankPull(symmetric, m, 2, 0.85, opts);
         },
         88660, 0xf021a4ed3bc231f5ull},
    };
    for (const Case &c : cases) {
        DigestMachine mach;
        c.run(&mach);
        EXPECT_EQ(mach.ops(), c.ops) << c.name;
        EXPECT_EQ(mach.digest(), c.digest)
            << c.name << ": digest 0x" << std::hex << mach.digest();
    }
}

} // namespace
} // namespace omega
