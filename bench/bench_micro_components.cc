/**
 * @file
 * Component microbenchmarks (google-benchmark): raw throughput of the
 * simulator building blocks. These guard the simulation speed that makes
 * the figure sweeps tractable.
 */

#include <benchmark/benchmark.h>

#include "algorithms/algorithms.hh"
#include "algorithms/pagerank.hh"
#include "framework/engine.hh"
#include "graph/builder.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "omega/pisc.hh"
#include "omega/scratchpad_controller.hh"
#include "omega/source_vertex_buffer.hh"
#include "sim/baseline_machine.hh"
#include "sim/cache.hh"
#include "sim/coherence.hh"
#include "sim/core_model.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace omega;

/**
 * Arg: row scan (0: the CPU's, 1: scalar forced). The label names the
 * scan the array took: "avx2" or "scalar".
 */
void
BM_CacheArrayAccess(benchmark::State &state)
{
    forceScalarTagScan(state.range(0) != 0);
    CacheArray cache(256 * 1024, 8, 64);
    forceScalarTagScan(false);
    state.SetLabel(cache.tagScanKernel());
    Rng rng(1);
    std::vector<std::uint64_t> addrs(4096);
    for (auto &a : addrs)
        a = rng.nextBounded(1 << 22) * 64;
    std::size_t i = 0;
    for (auto _ : state) {
        auto r = cache.access(addrs[i++ & 4095]);
        r.line->state = LineState::Exclusive;
        benchmark::DoNotOptimize(r.hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayAccess)->Arg(0)->Arg(1);

/** Arg and label as for BM_CacheArrayAccess; the label is the LLC's. */
void
BM_HierarchyAccessHit(benchmark::State &state)
{
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 32);
    forceScalarTagScan(state.range(0) != 0);
    CacheHierarchy h(p);
    forceScalarTagScan(false);
    state.SetLabel(h.llc().tagScanKernel());
    h.access(0, 0x1000, false, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(h.access(0, 0x1000, false, 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccessHit)->Arg(0)->Arg(1);

void
BM_HierarchyAccessRandom(benchmark::State &state)
{
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 32);
    CacheHierarchy h(p);
    Rng rng(2);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(static_cast<unsigned>(rng.nextBounded(16)),
                     rng.nextBounded(1 << 26), rng.nextBool(0.3), now));
        now += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccessRandom);

void
BM_ControllerRoute(benchmark::State &state)
{
    ScratchpadController ctrl(16, 64);
    PropSpec spec;
    spec.start_addr = 0x2'0000'0000ull;
    spec.type_size = 8;
    spec.stride = 8;
    spec.count = 1 << 20;
    ctrl.configure({spec}, 1 << 18);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctrl.route(
            spec.start_addr + rng.nextBounded(1 << 20) * 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerRoute);

void
BM_PiscExecute(benchmark::State &state)
{
    Pisc pisc;
    pisc.loadMicrocode(1, 4);
    Cycles t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(pisc.execute(t += 2));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiscExecute);

void
BM_SvbLookup(benchmark::State &state)
{
    SourceVertexBuffer svb(16);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(svb.lookupAndFill(
            static_cast<VertexId>(rng.nextBounded(64)), 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvbLookup);

/**
 * Args: scale, chunk count. Wall time, since chunks run on their own
 * threads; scale 16 runs at 1 chunk and at the host's core count. The
 * label names the kernel that ran: one chunk is the sequential scalar
 * loop, more take the host's chunk kernel ("lanes8" or "scalar").
 */
void
BM_RmatGeneration(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    const auto chunks = static_cast<unsigned>(state.range(1));
    state.SetLabel(chunks > 1 ? rmatChunkKernel() : "scalar");
    for (auto _ : state) {
        Rng rng(5);
        auto edges = generateRmat(scale, 8, rng, RmatParams{}, chunks);
        benchmark::DoNotOptimize(edges.data());
    }
    state.SetItemsProcessed(state.iterations() * (1ll << scale) * 8);
}
BENCHMARK(BM_RmatGeneration)
    ->Args({10, 1})
    ->Args({14, 1})
    ->Args({16, 1})
    ->Args({16, ThreadPool::hardwareJobs()})
    ->UseRealTime();

/**
 * Args: scale, chunk count. Wall time, since chunks run on their own
 * threads; scale 16 runs at 1 chunk and at the host's core count.
 */
void
BM_CsrBuild(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    const auto chunks = static_cast<unsigned>(state.range(1));
    Rng rng(6);
    const EdgeList edges = generateRmat(scale, 8, rng);
    for (auto _ : state) {
        auto g = buildGraph(VertexId(1) << scale, edges, {}, chunks);
        benchmark::DoNotOptimize(g.numArcs());
    }
    state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_CsrBuild)
    ->Args({12, 1})
    ->Args({16, 1})
    ->Args({16, ThreadPool::hardwareJobs()})
    ->UseRealTime();

/**
 * Args: scale, chunk count, kernel (0: the host's, 1: scalar forced).
 * A graph built straight from an RmatSource, which draws every chunk
 * twice and stores no edge list: BM_RmatGeneration plus BM_CsrBuild in
 * one, without the list. Wall time; the label names the chunk kernel.
 */
void
BM_RmatBuild(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    const auto chunks = static_cast<unsigned>(state.range(1));
    forceScalarRmatKernel(state.range(2) != 0);
    state.SetLabel(rmatChunkKernel());
    for (auto _ : state) {
        Rng rng(6);
        auto g = buildGraph(VertexId(1) << scale, RmatSource(scale, 8, rng),
                            {}, chunks);
        benchmark::DoNotOptimize(g.numArcs());
    }
    forceScalarRmatKernel(false);
    state.SetItemsProcessed(state.iterations() * (1ll << scale) * 8);
}
BENCHMARK(BM_RmatBuild)
    ->Args({12, 1, 0})
    ->Args({16, 1, 0})
    ->Args({16, ThreadPool::hardwareJobs(), 0})
    ->Args({16, ThreadPool::hardwareJobs(), 1})
    ->UseRealTime();

/**
 * Args: chunk count. A scale-16 R-MAT graph renumbered into its
 * in-degree order, every out-row gathered and sorted; wall time, as for
 * BM_CsrBuild.
 */
void
BM_Renumber(benchmark::State &state)
{
    const auto chunks = static_cast<unsigned>(state.range(0));
    Rng rng(9);
    const Graph g = buildGraph(1 << 16, generateRmat(16, 8, rng));
    const std::vector<VertexId> perm =
        buildReorderPermutation(g, ReorderKind::InDegreeNthElement);
    std::vector<VertexId> order(perm.size());
    for (VertexId v = 0; v < perm.size(); ++v)
        order[perm[v]] = v;
    for (auto _ : state) {
        auto r = g.renumbered(order, chunks);
        benchmark::DoNotOptimize(r.numArcs());
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_Renumber)
    ->Arg(1)
    ->Arg(ThreadPool::hardwareJobs())
    ->UseRealTime();

/**
 * Args: dataset (0 = rMat, 1 = wiki), chunk count. The one-time
 * transpose of a directed graph's out-CSR into its in-neighbors, which
 * its first pull read pays; both datasets are scale-16 R-MAT graphs,
 * renumbered hot-first as the figure harness loads them. Wall time, as
 * for BM_CsrBuild.
 */
void
BM_InArcs(benchmark::State &state)
{
    const char *name = state.range(0) == 0 ? "rMat" : "wiki";
    const auto chunks = static_cast<unsigned>(state.range(1));
    state.SetLabel(name);
    const Graph g =
        reorderGraph(buildDataset(name, 42), ReorderKind::InDegreeNthElement);
    for (auto _ : state) {
        auto in = g.transposedInNeighbors(chunks);
        benchmark::DoNotOptimize(in.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_InArcs)
    ->Args({0, 1})
    ->Args({0, ThreadPool::hardwareJobs()})
    ->Args({1, 1})
    ->Args({1, ThreadPool::hardwareJobs()})
    ->UseRealTime();

void
BM_ReorderNthElement(benchmark::State &state)
{
    Rng rng(7);
    Graph g = buildGraph(1 << 14, generateRmat(14, 8, rng));
    for (auto _ : state) {
        auto perm =
            buildReorderPermutation(g, ReorderKind::InDegreeNthElement);
        benchmark::DoNotOptimize(perm.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numVertices());
}
BENCHMARK(BM_ReorderNthElement);

void
BM_SimulatedPageRankIteration(benchmark::State &state)
{
    Rng rng(8);
    Graph g = reorderGraph(buildGraph(1 << 12, generateRmat(12, 8, rng)),
                           ReorderKind::InDegreeNthElement);
    for (auto _ : state) {
        BaselineMachine m(
            MachineParams::baseline().scaledCapacities(1.0 / 64));
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &m);
        benchmark::DoNotOptimize(m.cycles());
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_SimulatedPageRankIteration);

void
BM_CoreModelWindow(benchmark::State &state)
{
    // MLP-bound issue stream: mostly L1 hits with one DRAM-latency miss
    // in three, so the 8-entry window fills and stalls on its oldest
    // miss the way it does on graph kernels.
    const MachineParams p = MachineParams::baseline();
    CoreModel core(p);
    Rng rng(9);
    std::vector<Cycles> lats(4096);
    for (Cycles &lat : lats) {
        lat = rng.nextBounded(3) == 0 ? 100 + rng.nextBounded(120)
                                      : p.l1d.latency;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        core.compute(2);
        core.issueMemory(lats[i++ & 4095], /*blocking=*/false);
        benchmark::DoNotOptimize(core.now());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreModelWindow);

/** 16-core stub machine: a compute op advances its core's clock. */
class ClockStubMachine final : public MemorySystem
{
  public:
    ClockStubMachine() : params_(MachineParams::baseline())
    {
        clocks_.assign(params_.num_cores, 0);
    }

    void configure(const MachineConfig &) override {}
    void
    replayOps(unsigned core, std::span<const EngineOp> ops) override
    {
        for (const EngineOp &op : ops)
            clocks_[core] += op.kind == EngineOpKind::Compute ? op.arg : 0;
    }
    void barrier() override {}
    void endIteration() override {}
    Cycles coreNow(unsigned core) const override { return clocks_[core]; }
    Cycles cycles() const override { return clocks_[0]; }
    StatsReport report() const override { return {}; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "clock-stub"; }

  private:
    MachineParams params_;
    std::vector<Cycles> clocks_;
};

void
BM_ScriptedForPick(benchmark::State &state)
{
    // The engine's item loop alone: one compute op per item of a
    // pseudo-random 1-8 cycles, so the lowest-clock pick moves between
    // all 16 cores unpredictably.
    constexpr std::uint64_t kItems = 1 << 14;
    Graph g = buildGraph(4, EdgeList{{0, 1, 1}});
    PropertyRegistry props(4);
    ClockStubMachine mach;
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    for (auto _ : state) {
        eng.scriptedFor(
            kItems,
            [](Engine::ScriptBuilder &b, std::uint64_t idx) {
                b.push(EngineOp::compute(
                    1 + static_cast<std::uint32_t>(idx * 0x9E3779B1u >> 16 & 7)));
            },
            [](unsigned, std::uint64_t) {}, /*chunk=*/1);
        benchmark::DoNotOptimize(mach.coreNow(0));
    }
    state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_ScriptedForPick);

} // namespace
