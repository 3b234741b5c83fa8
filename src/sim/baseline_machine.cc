/**
 * @file
 * Baseline machine implementation.
 */

#include "sim/baseline_machine.hh"

namespace omega {

BaselineMachine::BaselineMachine(const MachineParams &params)
    : BaselineMachine(params, "baseline")
{
    registerStats(stats_root_, *this);
}

void
BaselineMachine::visit(FieldVisitor &v)
{
    v.counter("cycles", global_cycles_, "global completed time");
    v.state(iteration_);
    v.state(last_barrier_cycles_);
    v.counter("atomics_total", atomics_total_,
              "atomic vtxProp updates issued");
    v.counter("vtxprop_accesses", vtxprop_accesses_, "vtxProp touches");
    v.counter("vtxprop_hot_accesses", vtxprop_hot_accesses_,
              "vtxProp touches on hot vertices");
    v.group("cache", hierarchy_);
    v.config("tiles", tiles_.size());
    visitEach(v, "core", tiles_);
    visitFaults(v);
}

void
BaselineMachine::replayOps(unsigned core, std::span<const EngineOp> ops)
{
    // One virtual dispatch per span, one handler per op kind. A source
    // read is a plain non-blocking vtxProp load here (no SVB). GraspMachine
    // inherits this loop unchanged.
    for (const EngineOp &op : ops) {
        switch (op.kind) {
          case EngineOpKind::Compute:
            tiles_[core].core.compute(op.arg);
            break;
          case EngineOpKind::Load:
          case EngineOpKind::Store:
            if (op.cls == AccessClass::VertexProp)
                countVertexAccess(op.vertex);
            cacheAccess(core, op.addr, op.kind == EngineOpKind::Store,
                        op.flags);
            break;
          case EngineOpKind::SrcProp:
            countVertexAccess(op.vertex);
            cacheAccess(core, op.addr, /*write=*/false);
            break;
          case EngineOpKind::Atomic:
            ++atomics_total_;
            countVertexAccess(op.vertex);
            cacheAtomic(op.toAtomicRequest(core));
            break;
        }
    }
}

StatsReport
BaselineMachine::report() const
{
    StatsReport r = CmpMachine::report();
    r.atomics_on_core = atomics_total_;
    return r;
}

} // namespace omega
