/**
 * @file
 * CMP frame implementation.
 */

#include "sim/cmp_machine.hh"

#include <algorithm>
#include <sstream>

#include "util/trace.hh"

namespace omega {

CmpMachine::CmpMachine(const MachineParams &params, std::string name)
    : params_(params), hierarchy_(params), name_(std::move(name)),
      stats_root_(name_)
{
    tiles_.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c)
        tiles_.emplace_back(params);
}

void
CmpMachine::visitFaults(FieldVisitor &v)
{
    v.config("fault campaign armed", injector_ != nullptr);
    if (injector_ != nullptr)
        v.group("faults", *injector_);
}

void
CmpMachine::attachTracing()
{
    trace::TraceSink *s = trace::sink();
    if (s == nullptr)
        return;
    trace_pid_ = s->beginProcess(name());
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        tiles_[c].core.setTraceIds(trace_pid_, static_cast<int>(c));
        s->nameThread(static_cast<int>(c), "core" + std::to_string(c));
    }
    nameEngineTracks(*s);
    hierarchy_.dram().setTracePid(trace_pid_);
    for (unsigned ch = 0; ch < params_.dram_channels; ++ch) {
        s->nameThread(trace::kDramTidBase + static_cast<int>(ch),
                      "dram.ch" + std::to_string(ch));
    }
    s->nameThread(trace::kEngineTid, "engine");
}

std::vector<CoreIntervalStats>
CmpMachine::coreIntervals() const
{
    std::vector<CoreIntervalStats> out;
    out.reserve(tiles_.size());
    for (const CoreTile &tile : tiles_)
        out.push_back(tile.core.intervalStats());
    return out;
}

void
CmpMachine::takeSample(SampleKind kind)
{
    recorder_->take(kind, global_cycles_, iteration_, report(),
                    coreIntervals());
}

void
CmpMachine::configure(const MachineConfig &config)
{
    config_ = config;
    last_barrier_cycles_ = global_cycles_;
    refreshWatchdog();
    if (profiler_ != nullptr)
        profiler_->configure(config);
}

void
CmpMachine::armFaults(const FaultPlan &plan)
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

AccessProfiler::Config
CmpMachine::profileConfig() const
{
    AccessProfiler::Config cfg;
    cfg.num_cores = params_.num_cores;
    cfg.l1_lines = params_.l1d.lines();
    cfg.llc_lines = params_.l2.lines();
    cfg.llc_sets = hierarchy_.llc().numSets();
    cfg.line_bytes = params_.l2.line_bytes;
    return cfg;
}

void
CmpMachine::armProfile()
{
    if (profiler_ == nullptr) {
        profiler_ = std::make_unique<AccessProfiler>(profileConfig());
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
CmpMachine::refreshWatchdog()
{
    watchdog_cycles_ = config_.watchdog_cycles != 0
                           ? config_.watchdog_cycles
                           : (injector_ != nullptr
                                  ? injector_->plan().watchdog_cycles
                                  : 0);
}

std::string
CmpMachine::debugDump() const
{
    std::ostringstream os;
    os << name() << " state @ cycle " << global_cycles_
       << " (iteration " << iteration_ << ", last barrier "
       << last_barrier_cycles_ << ")\n";
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        os << "  core" << c << ": clock=" << tiles_[c].core.now()
           << " instructions=" << tiles_[c].core.instructions() << "\n";
    }
    dumpEngines(os);
    if (injector_ != nullptr)
        os << "  " << injector_->summary() << "\n";
    return os.str();
}

std::string
CmpMachine::watchdogReport(const std::string &reason, Cycles now) const
{
    std::ostringstream os;
    os << "watchdog: " << reason << " [machine " << name() << ", cycle "
       << now << "]\n"
       << debugDump();
    return os.str();
}

void
CmpMachine::cacheAtomic(const AtomicRequest &request)
{
    CoreModel &core = tiles_[request.core].core;
    const bool plain = params_.atomics_as_plain;
    const StallKind kind = plain ? StallKind::Memory : StallKind::Atomic;

    // Acquire the destination line in Modified state.
    core.prepareIssue(kind);
    const Cycles lat = hierarchy_.access(request.core, request.addr,
                                         /*write=*/true, core.now());
    core.issueMemory(lat, /*blocking=*/false, kind);
    if (plain)
        core.compute(2); // ablation: same data movement, no locked execution
    else
        core.serialize(params_.atomic_serialize, StallKind::Atomic);

    // Active-list maintenance runs on the core (paper section V.B: there
    // is no PISC to offload it to).
    if (request.activates_dense) {
        cacheAccess(request.core, config_.dense_active_base + request.vertex,
                    /*write=*/true);
    }
    if (request.activates_sparse)
        appendSparse(request.core, kind);
}

void
CmpMachine::appendSparse(unsigned core, StallKind kind)
{
    CoreTile &tile = tiles_[core];
    tile.core.prepareIssue(kind);
    const Cycles lat = hierarchy_.access(core, config_.sparse_counter_addr,
                                         /*write=*/true, tile.core.now());
    tile.core.issueMemory(lat, /*blocking=*/false, kind);
    if (!params_.atomics_as_plain)
        tile.core.serialize(params_.atomic_serialize, StallKind::Atomic);
    cacheAccess(core,
                config_.sparse_active_base +
                    4 * (tile.sparse_appends++ * params_.num_cores + core),
                /*write=*/true);
}

Cycles
CmpMachine::joinCores(Cycles floor)
{
    Cycles t = std::max(global_cycles_, floor);
    for (auto &tile : tiles_) {
        tile.core.drain();
        t = std::max(t, tile.core.now());
    }
    for (auto &tile : tiles_)
        tile.core.syncTo(t);
    global_cycles_ = t;
    return t;
}

void
CmpMachine::closePhase(Cycles t)
{
    if (watchdog_cycles_ != 0 &&
        t - last_barrier_cycles_ > watchdog_cycles_) {
        std::ostringstream os;
        os << "barrier phase took " << (t - last_barrier_cycles_)
           << " cycles (budget " << watchdog_cycles_ << ")";
        throw WatchdogError(watchdogReport(os.str(), t));
    }
    last_barrier_cycles_ = t;
    if (recorder_ != nullptr && recorder_->cadenceDue(global_cycles_))
        takeSample(SampleKind::Cadence);
}

void
CmpMachine::barrier()
{
    closePhase(joinCores());
}

void
CmpMachine::endIteration()
{
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->endPhase(global_cycles_);
    ++iteration_;
    if (recorder_ != nullptr)
        takeSample(SampleKind::Iteration);
}

void
CmpMachine::recordFinalSample()
{
    if (recorder_ != nullptr)
        takeSample(SampleKind::Final);
}

StatsReport
CmpMachine::report() const
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
    r.vtxprop_accesses = vtxprop_accesses_;
    r.vtxprop_hot_accesses = vtxprop_hot_accesses_;
    return r;
}

} // namespace omega
