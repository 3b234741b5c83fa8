/**
 * @file
 * PageRank implementation.
 */

#include "algorithms/pagerank.hh"

#include <cmath>
#include <memory>
#include <span>

#include "framework/properties.hh"
#include "framework/vertex_subset.hh"
#include "graph/slicing.hh"
#include "sim/checkpoint.hh"
#include "translate/codegen.hh"

namespace omega {

UpdateFn
pageRankUpdateFn()
{
    UpdateFn fn;
    fn.name = "pagerank-update";
    UpdateStep step;
    step.op = PiscAluOp::FpAdd;
    step.dst_prop = 0;
    step.operand = UpdateOperand::Incoming;
    fn.steps.push_back(step);
    fn.reads_src_prop = false; // contribution comes from the cached temp
    fn.operand_bytes = 8;
    return fn;
}

PageRankResult
runPageRank(const Graph &g, MemorySystem *mach, unsigned max_iters,
            double damping, double tolerance, EngineOptions opts)
{
    const VertexId n = g.numVertices();
    PageRankResult result;
    result.rank.assign(n, n ? 1.0 / n : 0.0);
    if (n == 0)
        return result;

    PropertyRegistry props(n);
    auto &next = props.create<double>("next_pagerank", 0.0);
    std::vector<double> &curr = result.rank;
    const std::uint64_t curr_base =
        props.allocOther(static_cast<std::uint64_t>(n) * 8);

    Engine eng(g, props, pageRankUpdateFn(), mach, opts);
    eng.setAtomicTarget(&next);
    eng.configureMachine();

    const VertexSubset all = VertexSubset::all(n);
    const double base_rank = (1.0 - damping) / n;

    // Checkpoint section: the functional state is curr (the host rank
    // array), next (the accumulator vtxProp), and the convergence
    // scalars; iteration progress lives in the engine section.
    CheckpointCoordinator *ck = opts.checkpoint;
    if (ck) {
        ck->registerSection("pagerank", [&](FieldVisitor &v) {
            v.state(std::as_writable_bytes(std::span(curr)));
            next.visit(v);
            v.state(result.iterations);
            v.state(result.last_delta);
        });
    }
    unsigned start = 0;
    bool converged = false;
    if (ck && ck->maybeRestore()) {
        start = result.iterations;
        // The snapshot may sit exactly on the iteration whose delta met
        // the tolerance: the uninterrupted run breaks before another
        // iteration, so the resumed run must too.
        converged = tolerance > 0.0 && result.last_delta < tolerance;
    }

    for (unsigned iter = start; !converged && iter < max_iters; ++iter) {
        // Scatter contributions along out-edges (Fig 2's inner loop).
        eng.edgeMap(
            all,
            [&](unsigned, VertexId u, VertexId d, std::int32_t) {
                EdgeUpdateResult r;
                r.performed_atomic = true;
                next[d] += curr[u] /
                           static_cast<double>(g.outDegree(u));
                return r;
            },
            /*want_output=*/false,
            [&](unsigned core, VertexId u) {
                // Per-source read of the cached current rank + degree.
                eng.emitLoad(core, curr_base + 8ull * u, 8,
                             AccessClass::NGraphData, false, 0,
                             /*sequential=*/true);
                eng.emitCompute(core, 2);
            });

        // next -> curr, with damping; reset next.
        double delta = 0.0;
        eng.vertexMap(
            all,
            [&](unsigned core, VertexId v) {
                const double nv = base_rank + damping * next[v];
                delta += std::abs(nv - curr[v]);
                curr[v] = nv;
                next[v] = 0.0;
                eng.emitStore(core, curr_base + 8ull * v, 8,
                              AccessClass::NGraphData, 0,
                              /*sequential=*/true);
            },
            {&next}, {&next});

        // Result scalars update BEFORE the iteration boundary so a
        // checkpoint taken there captures them.
        result.iterations = iter + 1;
        result.last_delta = delta;
        eng.finishIteration();
        if (tolerance > 0.0 && delta < tolerance)
            break;
    }
    return result;
}

PageRankResult
runPageRankSliced(const Graph &g, MemorySystem *mach,
                  const SlicingPlan &plan, unsigned max_iters,
                  double damping, EngineOptions opts)
{
    const VertexId n = g.numVertices();
    PageRankResult result;
    result.rank.assign(n, n ? 1.0 / n : 0.0);
    if (n == 0)
        return result;

    PropertyRegistry props(n);
    auto &next = props.create<double>("next_pagerank", 0.0);
    std::vector<double> &curr = result.rank;
    const std::uint64_t curr_base =
        props.allocOther(static_cast<std::uint64_t>(n) * 8);
    const UpdateFn fn = pageRankUpdateFn();

    // One engine per slice subgraph plus one over the full graph for the
    // merge/normalize pass.
    const std::vector<Graph> slices = sliceGraph(g, plan);
    std::vector<std::unique_ptr<Engine>> engines;
    engines.reserve(slices.size());
    for (const Graph &slice : slices) {
        engines.push_back(
            std::make_unique<Engine>(slice, props, fn, mach, opts));
        engines.back()->setAtomicTarget(&next);
    }
    Engine merge_engine(g, props, fn, mach, opts);
    merge_engine.setAtomicTarget(&next);

    const VertexSubset all = VertexSubset::all(n);
    const double base_rank = (1.0 - damping) / n;

    for (unsigned iter = 0; iter < max_iters; ++iter) {
        for (std::size_t s = 0; s < slices.size(); ++s) {
            Engine &eng = *engines[s];
            const auto [begin, end] = plan.ranges[s];
            if (mach) {
                // Re-target the monitor registers to this slice's
                // destination window (the per-slice reconfiguration the
                // paper's section VII describes).
                PropSpec spec = next.spec();
                spec.start_addr = next.addrOf(begin);
                spec.count = end - begin;
                MachineConfig cfg = buildMachineConfig(
                    n, {spec}, fn, eng.denseActiveBase(),
                    eng.sparseActiveBase(),
                    eng.sparseActiveBase() + 4ull * n,
                    static_cast<VertexId>(0.2 * n));
                mach->configure(cfg);
            }
            eng.edgeMap(
                all,
                [&](unsigned, VertexId u, VertexId d, std::int32_t) {
                    EdgeUpdateResult r;
                    r.performed_atomic = true;
                    // Contribution uses the FULL out-degree: slices
                    // partition destinations, not a vertex's fan-out.
                    next[d] += curr[u] /
                               static_cast<double>(g.outDegree(u));
                    return r;
                },
                /*want_output=*/false,
                [&](unsigned core, VertexId u) {
                    eng.emitLoad(core, curr_base + 8ull * u, 8,
                                 AccessClass::NGraphData, false, 0,
                                 /*sequential=*/true);
                    eng.emitCompute(core, 2);
                });
            eng.finishPhase();
        }

        // Merge pass over the full vertex set.
        merge_engine.configureMachine();
        merge_engine.vertexMap(
            all,
            [&](unsigned core, VertexId v) {
                const double nv = base_rank + damping * next[v];
                result.last_delta += std::abs(nv - curr[v]);
                curr[v] = nv;
                next[v] = 0.0;
                merge_engine.emitStore(core, curr_base + 8ull * v, 8,
                                       AccessClass::NGraphData, 0, true);
            },
            {&next}, {&next});
        merge_engine.finishIteration();
        result.iterations = iter + 1;
    }
    return result;
}

PageRankResult
runPageRankPull(const Graph &g, MemorySystem *mach, unsigned max_iters,
                double damping, EngineOptions opts)
{
    const VertexId n = g.numVertices();
    PageRankResult result;
    result.rank.assign(n, n ? 1.0 / n : 0.0);
    if (n == 0)
        return result;

    PropertyRegistry props(n);
    // In pull mode the RANDOM stream is the read of curr[src], so curr
    // is the monitored vtxProp; next is written once per destination.
    auto &curr = props.create<double>("curr_pagerank", 1.0 / n);
    auto &next = props.create<double>("next_pagerank", 0.0);

    // Pull has no atomic update; the update-fn still describes the ALU
    // work for Table-II-style characterization.
    UpdateFn fn = pageRankUpdateFn();
    fn.name = "pagerank-pull-update";

    Engine eng(g, props, fn, mach, opts);
    eng.configureMachine();

    const VertexSubset all = VertexSubset::all(n);
    const double base_rank = (1.0 - damping) / n;

    for (unsigned iter = 0; iter < max_iters; ++iter) {
        eng.edgeMapPullAll(
            curr, next,
            [&](unsigned, VertexId d, VertexId s) {
                next[d] += curr[s] / static_cast<double>(g.outDegree(s));
            },
            [&](unsigned, VertexId) {});

        double delta = 0.0;
        eng.vertexMap(
            all,
            [&](unsigned, VertexId v) {
                const double nv = base_rank + damping * next[v];
                delta += std::abs(nv - curr[v]);
                curr[v] = nv;
                next[v] = 0.0;
            },
            {&next}, {&curr, &next});
        eng.finishIteration();
        result.iterations = iter + 1;
        result.last_delta = delta;
    }
    for (VertexId v = 0; v < n; ++v)
        result.rank[v] = curr[v];
    return result;
}

} // namespace omega
