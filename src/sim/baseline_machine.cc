/**
 * @file
 * Baseline machine implementation.
 */

#include "sim/baseline_machine.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

BaselineMachine::BaselineMachine(const MachineParams &params)
    : BaselineMachine(params, "baseline")
{
    registerStats(stats_root_, *this);
}

BaselineMachine::BaselineMachine(const MachineParams &params,
                                 std::string name)
    : params_(params), hierarchy_(params), name_(std::move(name)),
      stats_root_(name_)
{
    tiles_.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c)
        tiles_.emplace_back(params);
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
    for (std::size_t c = 0; c < tiles_.size(); ++c)
        v.group("core" + std::to_string(c), tiles_[c]);
    visitFaults(v);
}

void
BaselineMachine::visitFaults(FieldVisitor &v)
{
    v.config("fault campaign armed", injector_ != nullptr);
    if (injector_ != nullptr)
        v.group("faults", *injector_);
}

void
BaselineMachine::attachTracing()
{
    trace::TraceSink *s = trace::sink();
    if (s == nullptr)
        return;
    trace_pid_ = s->beginProcess(name());
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        tiles_[c].core.setTraceIds(trace_pid_, static_cast<int>(c));
        s->nameThread(static_cast<int>(c), "core" + std::to_string(c));
    }
    hierarchy_.dram().setTracePid(trace_pid_);
    for (unsigned ch = 0; ch < params_.dram_channels; ++ch) {
        s->nameThread(trace::kDramTidBase + static_cast<int>(ch),
                      "dram.ch" + std::to_string(ch));
    }
    s->nameThread(trace::kEngineTid, "engine");
}

void
BaselineMachine::takeSample(SampleKind kind)
{
    recorder_->take(kind, global_cycles_, iteration_, report(),
                    coreIntervals(tiles_));
}

void
BaselineMachine::configure(const MachineConfig &config)
{
    config_ = config;
    last_barrier_cycles_ = global_cycles_;
    refreshWatchdog();
    if (profiler_ != nullptr)
        profiler_->configure(config);
}

void
BaselineMachine::armFaults(const FaultPlan &plan)
{
    if (injector_ == nullptr) {
        injector_ = std::make_unique<FaultInjector>(plan);
        // Lazy stat registration: the "faults" group only exists on armed
        // runs, so the unarmed stat tree stays byte-identical.
        StatRegistrar registrar(stats_root_);
        visitFaults(registrar);
    } else {
        // Re-arm in place: the stat group holds pointers into the
        // injector's counters, so the object's address must not change.
        *injector_ = FaultInjector(plan);
    }
    hierarchy_.dram().setFaultInjector(injector_.get());
    refreshWatchdog();
}

void
BaselineMachine::armProfile()
{
    if (profiler_ == nullptr) {
        AccessProfiler::Config cfg;
        cfg.num_cores = params_.num_cores;
        cfg.l1_lines = params_.l1d.lines();
        cfg.llc_lines = params_.l2.lines();
        cfg.llc_sets = hierarchy_.llc().numSets();
        cfg.line_bytes = params_.l2.line_bytes;
        profiler_ = std::make_unique<AccessProfiler>(cfg);
        // Lazy stat registration, like armFaults(): the "profile" group
        // only exists on armed runs, so the unarmed stat tree — and the
        // pinned golden digests over it — stays byte-identical.
        profiler_->attachDramChannels(
            &hierarchy_.dram().channelBusyCycles(),
            &hierarchy_.dram().channelRequests());
        profiler_->addStats(stats_root_.addGroup("profile"));
    } else {
        // Re-arm in place: the stat group holds pointers into the
        // profiler's counters, so the object's address must not change.
        profiler_->reset();
    }
    profiler_->configure(config_);
    hierarchy_.setProfiler(profiler_.get());
}

void
BaselineMachine::refreshWatchdog()
{
    watchdog_cycles_ = config_.watchdog_cycles != 0
                           ? config_.watchdog_cycles
                           : (injector_ != nullptr
                                  ? injector_->plan().watchdog_cycles
                                  : 0);
}

std::string
BaselineMachine::debugDump() const
{
    std::ostringstream os;
    os << name() << " state @ cycle " << global_cycles_
       << " (iteration " << iteration_ << ", last barrier "
       << last_barrier_cycles_ << ")\n";
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        os << "  core" << c << ": clock=" << tiles_[c].core.now()
           << " instructions=" << tiles_[c].core.instructions() << "\n";
    }
    if (injector_ != nullptr)
        os << "  " << injector_->summary() << "\n";
    return os.str();
}

void
BaselineMachine::countVertexAccess(VertexId vertex)
{
    ++vtxprop_accesses_;
    if (vertex < config_.hot_boundary)
        ++vtxprop_hot_accesses_;
}

void
BaselineMachine::loadStore(unsigned core, const EngineOp &op)
{
    CoreModel &c = tiles_[core].core;
    if (op.cls == AccessClass::VertexProp)
        countVertexAccess(op.vertex);
    const bool blocking = (op.flags & EngineOp::kBlocking) != 0;
    // A non-blocking issue reserves its window slot first, so the DRAM
    // queues see the post-stall issue time; the slot is then known free
    // and issueMemoryPrepared skips the re-check.
    if (!blocking)
        c.prepareIssue();
    const bool prefetched =
        (op.flags & EngineOp::kSequential) && params_.stream_prefetch;
    const Cycles lat = hierarchy_.access(
        core, op.addr, op.kind == EngineOpKind::Store, c.now(), prefetched);
    if (blocking)
        c.issueMemory(lat, /*blocking=*/true);
    else
        c.issueMemoryPrepared(lat);
}

void
BaselineMachine::replayOps(unsigned core, std::span<const EngineOp> ops)
{
    // One virtual dispatch per span, one handler per op kind. A source
    // read is a plain non-blocking vtxProp load here (no SVB). GraspMachine
    // inherits this loop unchanged — it only overrides configure().
    for (const EngineOp &op : ops) {
        switch (op.kind) {
          case EngineOpKind::Compute:
            tiles_[core].core.compute(op.arg);
            break;
          case EngineOpKind::Load:
          case EngineOpKind::Store:
            loadStore(core, op);
            break;
          case EngineOpKind::SrcProp:
            loadStore(core, EngineOp::load(op.addr, op.arg,
                                           AccessClass::VertexProp,
                                           /*blocking=*/false, op.vertex));
            break;
          case EngineOpKind::Atomic:
            atomicUpdate(op.toAtomicRequest(core));
            break;
        }
    }
}

void
BaselineMachine::atomicUpdate(const AtomicRequest &request)
{
    CoreTile &tile = tiles_[request.core];
    CoreModel &core = tile.core;
    ++atomics_total_;
    countVertexAccess(request.vertex);

    // Acquire the destination line in Modified state.
    core.prepareIssue(params_.atomics_as_plain ? StallKind::Memory
                                               : StallKind::Atomic);
    const Cycles lat = hierarchy_.access(request.core, request.addr,
                                         /*write=*/true, core.now());
    if (params_.atomics_as_plain) {
        // Ablation: the same data movement, but no locked execution.
        core.issueMemory(lat, /*blocking=*/false);
        core.compute(2);
    } else {
        core.issueMemory(lat, /*blocking=*/false, StallKind::Atomic);
        core.serialize(params_.atomic_serialize, StallKind::Atomic);
    }

    // Active-list maintenance runs on the core (paper section V.B: on the
    // baseline there is no PISC to offload it to).
    if (request.activates_dense) {
        loadStore(request.core,
                  EngineOp::store(config_.dense_active_base + request.vertex,
                                  1, AccessClass::ActiveList));
    }
    if (request.activates_sparse) {
        // fetch_add on the shared tail counter, then the append store.
        core.prepareIssue(params_.atomics_as_plain ? StallKind::Memory
                                                   : StallKind::Atomic);
        const Cycles clat = hierarchy_.access(
            request.core, config_.sparse_counter_addr, true, core.now());
        if (params_.atomics_as_plain) {
            core.issueMemory(clat, false);
        } else {
            core.issueMemory(clat, false, StallKind::Atomic);
            core.serialize(params_.atomic_serialize, StallKind::Atomic);
        }
        loadStore(request.core,
                  EngineOp::store(config_.sparse_active_base +
                                      4 * (tile.sparse_appends++ *
                                               params_.num_cores +
                                           request.core),
                                  4, AccessClass::ActiveList));
    }
}

void
BaselineMachine::barrier()
{
    Cycles t = global_cycles_;
    for (auto &tile : tiles_) {
        tile.core.drain();
        t = std::max(t, tile.core.now());
    }
    for (auto &tile : tiles_)
        tile.core.syncTo(t);
    global_cycles_ = t;
    if (watchdog_cycles_ != 0 &&
        t - last_barrier_cycles_ > watchdog_cycles_) {
        std::ostringstream os;
        os << "watchdog: barrier phase took " << (t - last_barrier_cycles_)
           << " cycles (budget " << watchdog_cycles_ << ") [machine "
           << name() << ", cycle " << t << "]\n"
           << debugDump();
        throw WatchdogError(os.str());
    }
    last_barrier_cycles_ = t;
    if (recorder_ != nullptr && recorder_->cadenceDue(global_cycles_))
        takeSample(SampleKind::Cadence);
}

void
BaselineMachine::endIteration()
{
    // Nothing to invalidate on the baseline.
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->endPhase(global_cycles_);
    ++iteration_;
    if (recorder_ != nullptr)
        takeSample(SampleKind::Iteration);
}

void
BaselineMachine::recordFinalSample()
{
    if (recorder_ != nullptr)
        takeSample(SampleKind::Final);
}

Cycles
BaselineMachine::coreNow(unsigned core) const
{
    return tiles_[core].core.now();
}

Cycles
BaselineMachine::cycles() const
{
    return global_cycles_;
}

StatsReport
BaselineMachine::report() const
{
    StatsReport r;
    r.cycles = global_cycles_;
    hierarchy_.collect(r);
    for (const auto &tile : tiles_) {
        const CoreModel &core = tile.core;
        r.instructions += core.instructions();
        r.compute_cycles += core.computeCycles();
        r.mem_stall_cycles += core.memStallCycles();
        r.atomic_stall_cycles += core.atomicStallCycles();
        r.sync_stall_cycles += core.syncStallCycles();
    }
    r.atomics_total = atomics_total_;
    r.atomics_on_core = atomics_total_;
    r.vtxprop_accesses = vtxprop_accesses_;
    r.vtxprop_hot_accesses = vtxprop_hot_accesses_;
    return r;
}

} // namespace omega
