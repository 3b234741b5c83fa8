/**
 * @file
 * SSSP implementation.
 */

#include "algorithms/sssp.hh"

#include "framework/properties.hh"
#include "framework/vertex_subset.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace omega {

UpdateFn
ssspUpdateFn()
{
    UpdateFn fn;
    fn.name = "sssp-update";
    UpdateStep min_step;
    min_step.op = PiscAluOp::SignedMin;
    min_step.dst_prop = 0;
    min_step.operand = UpdateOperand::Incoming;
    min_step.conditional_write = true;
    fn.steps.push_back(min_step);
    UpdateStep visited_step;
    visited_step.op = PiscAluOp::BoolComp;
    visited_step.dst_prop = 1;
    visited_step.operand = UpdateOperand::Constant;
    visited_step.conditional_write = true;
    fn.steps.push_back(visited_step);
    fn.sets_dense_active = true;
    fn.sets_sparse_active = true;
    fn.reads_src_prop = true; // ShortestLen of the source, per edge
    fn.operand_bytes = 4;
    return fn;
}

SsspResult
runSssp(const Graph &g, VertexId root, MemorySystem *mach,
        EngineOptions opts)
{
    const VertexId n = g.numVertices();
    omega_assert(root < n, "sssp root out of range");
    opts.weighted = true;

    PropertyRegistry props(n);
    auto &dist = props.create<std::int32_t>("shortest_len", kSsspInfinity);
    auto &visited = props.create<std::int32_t>("visited", 0);
    dist[root] = 0;
    visited[root] = 1;

    Engine eng(g, props, ssspUpdateFn(), mach, opts);
    eng.setAtomicTarget(&dist);
    eng.setSrcProp(&dist);
    eng.configureMachine();

    SsspResult result;
    VertexSubset frontier = VertexSubset::single(n, root);

    // Checkpoint section: both property arrays, the frontier, and the
    // round counter (which doubles as the resumed loop index).
    CheckpointCoordinator *ck = opts.checkpoint;
    if (ck) {
        ck->registerSection("sssp", [&](FieldVisitor &v) {
            dist.visit(v);
            visited.visit(v);
            visitVertexSubset(v, frontier);
            v.state(result.rounds);
        });
        ck->maybeRestore();
    }

    // Bellman-Ford converges in at most n-1 relaxation rounds.
    for (VertexId round = result.rounds; round + 1 < n && !frontier.empty();
         ++round) {
        frontier = eng.edgeMap(
            frontier,
            [&](unsigned, VertexId u, VertexId d, std::int32_t w) {
                EdgeUpdateResult r;
                r.performed_atomic = true; // writeMin is a blind atomic
                const std::int32_t nd = dist[u] + w;
                if (nd < dist[d]) {
                    dist[d] = nd;
                    visited[d] = 1;
                    r.activated = true;
                }
                return r;
            });
        // Round counter updates BEFORE the iteration boundary so a
        // checkpoint taken there captures it.
        ++result.rounds;
        eng.finishIteration();
    }

    result.dist = dist.data();
    return result;
}

} // namespace omega
