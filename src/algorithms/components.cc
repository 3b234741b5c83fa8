/**
 * @file
 * Connected components implementation.
 */

#include "algorithms/components.hh"

#include <algorithm>
#include <vector>

#include "framework/properties.hh"
#include "framework/vertex_subset.hh"
#include "sim/checkpoint.hh"

namespace omega {

UpdateFn
ccUpdateFn()
{
    UpdateFn fn;
    fn.name = "cc-update";
    UpdateStep step;
    step.op = PiscAluOp::SignedMin;
    step.dst_prop = 0;
    step.operand = UpdateOperand::Incoming;
    step.conditional_write = true;
    fn.steps.push_back(step);
    fn.sets_dense_active = true;
    fn.sets_sparse_active = true;
    fn.reads_src_prop = true; // the source's label, per edge
    fn.operand_bytes = 4;
    return fn;
}

CcResult
runComponents(const Graph &g, MemorySystem *mach, EngineOptions opts)
{
    const VertexId n = g.numVertices();

    PropertyRegistry props(n);
    auto &label = props.create<std::uint32_t>("component_id", 0);
    auto &prev = props.create<std::uint32_t>("prev_component_id", 0);
    for (VertexId v = 0; v < n; ++v) {
        label[v] = v;
        prev[v] = v;
    }

    Engine eng(g, props, ccUpdateFn(), mach, opts);
    eng.setAtomicTarget(&label);
    eng.setSrcProp(&label);
    eng.configureMachine();

    CcResult result;
    VertexSubset frontier = VertexSubset::all(n);

    // Checkpoint section: both label arrays, the frontier, and the
    // round counter.
    if (CheckpointCoordinator *ck = opts.checkpoint) {
        ck->registerSection("components", [&](FieldVisitor &v) {
            label.visit(v);
            prev.visit(v);
            visitVertexSubset(v, frontier);
            v.state(result.rounds);
        });
        ck->maybeRestore();
    }

    while (!frontier.empty()) {
        frontier = eng.edgeMap(
            frontier,
            [&](unsigned, VertexId u, VertexId d, std::int32_t) {
                EdgeUpdateResult r;
                r.performed_atomic = true; // writeMin attempt
                if (label[u] < label[d]) {
                    label[d] = label[u];
                    r.activated = true;
                }
                return r;
            });
        // Track the previous labels of changed vertices (Ligra keeps a
        // prevIDs array for its convergence/update logic).
        eng.vertexMap(
            frontier,
            [&](unsigned, VertexId v) { prev[v] = label[v]; }, {&label},
            {&prev});
        // Round counter updates BEFORE the iteration boundary so a
        // checkpoint taken there captures it.
        ++result.rounds;
        eng.finishIteration();
    }

    // Count distinct labels with sort+unique on a flat copy: one pass of
    // cache-friendly work instead of n hash insertions.
    std::vector<std::uint32_t> distinct(label.data());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    result.num_components = static_cast<VertexId>(distinct.size());
    result.label = label.data();
    return result;
}

} // namespace omega
