/**
 * @file
 * Engine non-template implementation.
 */

#include "framework/engine.hh"

#include "sim/checkpoint.hh"
#include "sim/field_visitor.hh"
#include "translate/codegen.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

Engine::Engine(const Graph &g, PropertyRegistry &props, UpdateFn fn,
               MemorySystem *mach, EngineOptions opts)
    : g_(g), props_(props), fn_(std::move(fn)), mach_(mach), opts_(opts),
      num_cores_(mach ? mach->params().num_cores : opts.functional_cores)
{
    omega_assert(props_.numVertices() == g_.numVertices(),
                 "property registry size mismatch");
    // CacheLine::sharers is a 16-bit mask, and scriptedFor picks the
    // next core from 16 packed (clock, id) keys.
    omega_assert(!mach_ || num_cores_ <= kMaxCores,
                 "a machine has at most ", kMaxCores, " cores");

    // Simulated layout of the edgeList region: out offsets then out arcs.
    edge_entry_bytes_ = opts_.weighted ? 8 : 4;
    out_offsets_base_ = addr_space::kEdgeBase;
    const std::uint64_t offsets_bytes =
        (static_cast<std::uint64_t>(g_.numVertices()) + 1) * 8;
    const std::uint64_t arcs_bytes =
        g_.numArcs() * static_cast<std::uint64_t>(edge_entry_bytes_);
    out_arcs_base_ = out_offsets_base_ + (offsets_bytes + 63) / 64 * 64;
    in_offsets_base_ = out_arcs_base_ + (arcs_bytes + 63) / 64 * 64;
    in_arcs_base_ = in_offsets_base_ + (offsets_bytes + 63) / 64 * 64;

    // Active-list region: dense byte map, sparse append array, sparse
    // read array (previous frontier), shared tail counter.
    const VertexId n = g_.numVertices();
    dense_active_base_ = addr_space::kActiveBase;
    sparse_active_base_ =
        dense_active_base_ + (static_cast<std::uint64_t>(n) + 63) / 64 * 64;
    sparse_read_base_ =
        sparse_active_base_ +
        (static_cast<std::uint64_t>(n) * 4 + 63) / 64 * 64;
    sparse_counter_addr_ =
        sparse_read_base_ +
        (static_cast<std::uint64_t>(n) * 4 + 63) / 64 * 64;

    // Checkpoint sections: the engine's progress counters, then the
    // machine's whole state tree. Registration order is serialization
    // order; the algorithm's own sections follow (it constructs after
    // the engine) and it calls maybeRestore() once initialized.
    if (opts_.checkpoint) {
        opts_.checkpoint->registerSection("engine", [this](FieldVisitor &v) {
            v.state(iterations_);
            v.state(phases_);
        });
        if (mach_) {
            opts_.checkpoint->registerSection(
                "machine", [this](FieldVisitor &v) { mach_->visit(v); });
        }
    }
}

void
Engine::configureMachine(VertexId hot_boundary)
{
    if (!mach_)
        return;
    if (hot_boundary == 0 && g_.numVertices() > 0) {
        // The paper's 20% cut. 0.2 * n truncates to 0 for n < 5, which
        // would silently re-trigger this "default" branch's semantics
        // downstream (no vertex counts as hot, and a later explicit 0
        // is indistinguishable from "use the default"): clamp to >= 1.
        hot_boundary = std::max<VertexId>(
            1, static_cast<VertexId>(
                   0.2 * static_cast<double>(g_.numVertices())));
    }
    MachineConfig config = buildMachineConfig(
        g_.numVertices(), props_.specs(), fn_, dense_active_base_,
        sparse_active_base_, sparse_counter_addr_, hot_boundary);
    config.watchdog_cycles = opts_.watchdog_cycles;
    mach_->configure(config);
}

void
Engine::emitStreaming(std::uint64_t base, std::uint64_t bytes, bool write,
                      AccessClass cls)
{
    if (!mach_ || bytes == 0)
        return;
    // One line-sized access per 64 B, spread across the cores exactly as
    // the static schedule would. Structurally pure, so it runs scripted.
    const std::uint64_t lines = (bytes + 63) / 64;
    scriptedFor(
        lines,
        [&](ScriptBuilder &b, std::uint64_t i) {
            if (write) {
                b.push(EngineOp::store(base + i * 64, 64, cls, 0,
                                       /*sequential=*/true));
            } else {
                b.push(EngineOp::load(base + i * 64, 64, cls, false, 0,
                                      /*sequential=*/true));
            }
            b.push(EngineOp::compute(8));
        },
        [](unsigned, std::uint64_t) {});
}

void
Engine::finishPhase()
{
    ++phases_;
    if (mach_) {
        mach_->barrier();
        if (const int pid = mach_->tracePid(); pid > 0) {
            trace::emitInstant("engine.phase", "engine", pid,
                               trace::kEngineTid, mach_->cycles(), "phase",
                               phases_);
        }
    }
}

void
Engine::finishIteration()
{
    if (mach_) {
        mach_->barrier();
        mach_->endIteration();
        if (const int pid = mach_->tracePid(); pid > 0) {
            trace::emitInstant("engine.iteration", "engine", pid,
                               trace::kEngineTid, mach_->cycles(),
                               "iteration", iterations_);
        }
    }
    ++iterations_;
    if (opts_.checkpoint)
        opts_.checkpoint->onIterationEnd(iterations_);
}

} // namespace omega
