/**
 * @file
 * BFS implementation.
 */

#include "algorithms/bfs.hh"

#include "framework/properties.hh"
#include "framework/vertex_subset.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace omega {

UpdateFn
bfsUpdateFn()
{
    UpdateFn fn;
    fn.name = "bfs-update";
    UpdateStep step;
    step.op = PiscAluOp::UnsignedComp;
    step.dst_prop = 0;
    step.operand = UpdateOperand::Incoming;
    step.conditional_write = true;
    fn.steps.push_back(step);
    fn.sets_dense_active = true;
    fn.sets_sparse_active = true;
    fn.reads_src_prop = false; // the operand is the source id itself
    fn.operand_bytes = 4;
    return fn;
}

BfsResult
runBfs(const Graph &g, VertexId root, MemorySystem *mach,
       EngineOptions opts)
{
    const VertexId n = g.numVertices();
    omega_assert(root < n, "bfs root out of range");

    PropertyRegistry props(n);
    auto &parent = props.create<std::int32_t>("parent", -1);
    parent[root] = static_cast<std::int32_t>(root);

    Engine eng(g, props, bfsUpdateFn(), mach, opts);
    eng.setAtomicTarget(&parent);
    eng.configureMachine();

    BfsResult result;
    VertexSubset frontier = VertexSubset::single(n, root);
    VertexId reached = 1;

    // Checkpoint section: parent array, the live frontier, and the
    // progress scalars. Restoring the frontier re-enters the while loop
    // exactly where the interrupted run left it.
    if (CheckpointCoordinator *ck = opts.checkpoint) {
        ck->registerSection("bfs", [&](FieldVisitor &v) {
            parent.visit(v);
            visitVertexSubset(v, frontier);
            v.state(reached);
            v.state(result.rounds);
        });
        ck->maybeRestore();
    }

    while (!frontier.empty()) {
        frontier = eng.edgeMap(
            frontier, [&](unsigned, VertexId u, VertexId d, std::int32_t) {
                EdgeUpdateResult r;
                r.read_dst = true; // Ligra checks parent before the CAS
                if (parent[d] == -1) {
                    parent[d] = static_cast<std::int32_t>(u);
                    r.performed_atomic = true;
                    r.activated = true;
                }
                return r;
            });
        // Progress scalars update BEFORE the iteration boundary so a
        // checkpoint taken there captures them.
        reached += frontier.size();
        ++result.rounds;
        eng.finishIteration();
    }

    result.parent = parent.data();
    result.reached = reached;
    return result;
}

} // namespace omega
