/**
 * @file
 * OMEGA machine implementation.
 */

#include "omega/omega_machine.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

OmegaMachine::OmegaMachine(const MachineParams &params)
    : CmpMachine(params, params.pisc_enabled ? "omega" : "omega-sp-only"),
      controller_(params.num_cores, params.sp_chunk_size)
{
    omega_assert(params.sp_total_bytes > 0,
                 "OmegaMachine needs scratchpad capacity; use "
                 "MachineParams::omega()");
    // Distribute the total capacity exactly: the first (total % cores)
    // scratchpads take one extra byte so no capacity is silently dropped
    // when the division truncates. Residency still uses the smallest
    // scratchpad's line count (see configure()) to keep the partition
    // unit's uniform vertex->home mapping valid.
    const std::uint64_t per_core = params.sp_total_bytes / params.num_cores;
    const std::uint64_t remainder =
        params.sp_total_bytes % params.num_cores;
    for (unsigned c = 0; c < params.num_cores; ++c) {
        svbs_.emplace_back(params.svb_entries);
        scratchpads_.emplace_back(per_core + (c < remainder ? 1 : 0),
                                  params.sp_latency);
        piscs_.emplace_back();
    }
    registerStats(stats_root_, *this);
}

void
OmegaMachine::visit(FieldVisitor &v)
{
    v.counter("cycles", global_cycles_, "global completed time");
    v.state(iteration_);
    v.state(last_barrier_cycles_);
    v.counter("atomics_total", atomics_total_,
              "atomic vtxProp updates issued");
    v.counter("atomics_offloaded", atomics_offloaded_,
              "atomics offloaded to PISCs");
    v.counter("atomics_on_core", atomics_on_core_,
              "atomics executed on the cores");
    v.counter("sp_local", sp_local_, "local scratchpad accesses");
    v.counter("sp_remote", sp_remote_, "remote scratchpad accesses");
    v.counter("vtxprop_accesses", vtxprop_accesses_, "vtxProp touches");
    v.counter("vtxprop_hot_accesses", vtxprop_hot_accesses_,
              "vtxProp touches on hot vertices");
    v.group("cache", hierarchy_);
    v.group("controller", controller_);
    // One tile, scratchpad, PISC and SVB per core (constructor).
    v.config("tiles", tiles_.size());
    visitEach(v, "core", tiles_);
    visitEach(v, "sp", scratchpads_);
    visitEach(v, "pisc", piscs_);
    visitEach(v, "svb", svbs_);
    visitFaults(v);
}

void
OmegaMachine::nameEngineTracks(trace::TraceSink &sink) const
{
    for (std::size_t c = 0; c < piscs_.size(); ++c) {
        sink.nameThread(trace::kPiscTidBase + static_cast<int>(c),
                        "pisc" + std::to_string(c));
    }
}

void
OmegaMachine::takeSample(SampleKind kind)
{
    std::vector<std::uint64_t> pisc_busy;
    pisc_busy.reserve(piscs_.size());
    for (const auto &pisc : piscs_)
        pisc_busy.push_back(pisc.busyCycles());
    std::vector<std::uint64_t> sp_accesses;
    sp_accesses.reserve(scratchpads_.size());
    for (const auto &sp : scratchpads_)
        sp_accesses.push_back(sp.accesses());
    recorder_->take(kind, global_cycles_, iteration_, report(),
                    coreIntervals(), std::move(pisc_busy),
                    std::move(sp_accesses));
}

void
OmegaMachine::configure(const MachineConfig &config)
{
    CmpMachine::configure(config);

    // Scratchpad line: all vtxProp entries of one vertex plus the dense
    // active-list bit (rounded up into one byte).
    std::uint32_t line_bytes = 1;
    for (const auto &p : config.props)
        line_bytes += p.type_size;

    // Uniform interleaving requires every home to hold the same number of
    // lines, so residency is bounded by the smallest scratchpad.
    VertexId lines_per_sp = 0;
    for (std::size_t c = 0; c < scratchpads_.size(); ++c) {
        const VertexId lines = scratchpads_[c].setLineBytes(line_bytes);
        lines_per_sp = c == 0 ? lines : std::min(lines_per_sp, lines);
    }

    const std::uint64_t total_lines =
        static_cast<std::uint64_t>(lines_per_sp) * params_.num_cores;
    const VertexId resident = static_cast<VertexId>(
        std::min<std::uint64_t>(total_lines, config.num_vertices));
    controller_.configure(config.props, resident);

    for (auto &pisc : piscs_)
        pisc.loadMicrocode(config.microcode_program,
                           config.microcode_cycles,
                           config.microcode_initiation);
}

void
OmegaMachine::armFaults(const FaultPlan &plan)
{
    CmpMachine::armFaults(plan);
    hierarchy_.xbar().setFaultInjector(injector_.get());
    for (std::size_t c = 0; c < piscs_.size(); ++c)
        piscs_[c].setFaultInjector(injector_.get(),
                                   static_cast<unsigned>(c));
}

AccessProfiler::Config
OmegaMachine::profileConfig() const
{
    AccessProfiler::Config cfg = CmpMachine::profileConfig();
    cfg.num_scratchpads = static_cast<unsigned>(scratchpads_.size());
    return cfg;
}

Cycles
OmegaMachine::scratchpadAccess(unsigned core, const SpRoute &route,
                               std::uint64_t addr, std::uint32_t bytes,
                               bool write)
{
    Scratchpad &sp = scratchpads_[route.home];
    if (write)
        sp.recordWrite(bytes);
    else
        sp.recordRead(bytes);
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->onScratchpadAccess(addr, bytes, write, route.home);

    if (route.home == core) {
        ++sp_local_;
        Cycles lat = sp.latency();
        if (injector_ != nullptr && !write)
            lat += spFaultPenalty(core, route, lat);
        return lat;
    }
    ++sp_remote_;
    // Word-granularity packets: the request carries the address (and the
    // store payload); the response carries the loaded word (or an ack).
    // With sp_word_granularity disabled (the section-IX "locked cache
    // lines" alternative) whole lines move instead, costing extra flits.
    const std::uint32_t payload =
        params_.sp_word_granularity ? bytes : params_.l2.line_bytes;
    if (write) {
        hierarchy_.xbar().recordTransfer(payload);
        hierarchy_.xbar().recordControl();
    } else {
        hierarchy_.xbar().recordControl();
        hierarchy_.xbar().recordTransfer(payload);
    }
    const Cycles serialization =
        (payload + params_.xbar_header_bytes + params_.xbar_flit_bytes -
         1) / params_.xbar_flit_bytes - 1;
    Cycles lat = sp.latency() + hierarchy_.xbar().roundTrip() +
                 serialization;
    if (injector_ != nullptr) {
        lat += hierarchy_.xbar().faultLatency(tiles_[core].core.now(),
                                              hierarchy_.xbar().roundTrip());
        if (!write)
            lat += spFaultPenalty(core, route, lat);
    }
    return lat;
}

Cycles
OmegaMachine::spFaultPenalty(unsigned core, const SpRoute &route,
                             Cycles base_latency)
{
    const Cycles now = tiles_[core].core.now();
    if (!injector_->spEccError(route.home, route.vertex, now))
        return 0;
    // The corrupted word may have been copied into the reader's SVB; drop
    // that entry so recovery re-fetches instead of serving stale data.
    svbs_[core].invalidate(route.vertex, route.prop);

    const FaultPlan &plan = injector_->plan();
    Cycles penalty = 0;
    bool recovered = false;
    if (plan.retries_enabled) {
        for (unsigned attempt = 0; attempt < plan.max_retries; ++attempt) {
            penalty += base_latency; // each retry repeats the access
            injector_->recordRetry(FaultKind::SpEccError, route.home,
                                   route.vertex, now + penalty);
            if (!injector_->spEccError(route.home, route.vertex,
                                       now + penalty)) {
                recovered = true;
                break;
            }
        }
    }
    const bool persistent = injector_->registerLineError(route.vertex);
    // Retry exhaustion means the line keeps erroring: treat as persistent.
    const bool exhausted = plan.retries_enabled && !recovered;
    if (!persistent && !exhausted) {
        if (recovered)
            return penalty;
        // Retries disabled: serve the read by re-fetching from memory.
        penalty += params_.dram_latency + hierarchy_.xbar().roundTrip();
        injector_->recordRefetch(route.home, route.vertex, now + penalty);
        return penalty;
    }

    // Persistent fault: poison the line so every later access takes the
    // cache path, demote the whole scratchpad once it accumulates enough
    // bad lines, and re-fetch the value from memory.
    controller_.poisonLine(route.vertex);
    injector_->recordLinePoisoned(route.home, route.vertex, now + penalty);
    if (injector_->registerScratchpadFault(route.home)) {
        controller_.demoteScratchpad(route.home);
        injector_->recordDemotion(route.home, now + penalty);
    }
    penalty += params_.dram_latency + hierarchy_.xbar().roundTrip();
    injector_->recordRefetch(route.home, route.vertex, now + penalty);
    return penalty;
}

void
OmegaMachine::memAccess(unsigned core, const EngineOp &op)
{
    const bool write = op.kind == EngineOpKind::Store;
    if (op.cls == AccessClass::VertexProp) {
        countVertexAccess(op.vertex);
        if (auto route = controller_.route(op.addr, core)) {
            const Cycles lat =
                scratchpadAccess(core, *route, op.addr, op.arg, write);
            tiles_[core].core.issueMemory(
                lat, (op.flags & EngineOp::kBlocking) != 0);
            return;
        }
    }
    cacheAccess(core, op.addr, write, op.flags);
}

void
OmegaMachine::readSrcProp(unsigned core, VertexId vertex,
                          std::uint64_t addr, std::uint32_t size)
{
    countVertexAccess(vertex);
    if (auto route = controller_.route(addr, core)) {
        // The buffer only caches remote data; a hit costs one cycle.
        const bool buffered = route->home != core &&
                              svbs_[core].lookupAndFill(vertex, route->prop);
        const Cycles lat =
            buffered ? 1 : scratchpadAccess(core, *route, addr, size, false);
        tiles_[core].core.issueMemory(lat, false);
        return;
    }
    cacheAccess(core, addr, /*write=*/false);
}

void
OmegaMachine::coreAtomic(const AtomicRequest &request,
                         const std::optional<SpRoute> &route)
{
    ++atomics_on_core_;
    if (!route) {
        cacheAtomic(request);
        return;
    }
    // Scratchpad-resident but no PISC (SP-only ablation): the core
    // performs the locked read-modify-write against the scratchpad at
    // word granularity. Under atomics_as_plain it is a plain read and
    // write, as on the cache path: no serialization, memory stalls.
    CoreModel &core = tiles_[request.core].core;
    const bool plain = params_.atomics_as_plain;
    const StallKind kind = plain ? StallKind::Memory : StallKind::Atomic;
    core.prepareIssue(kind);
    const Cycles rlat = scratchpadAccess(request.core, *route, request.addr,
                                         request.size, false);
    core.issueMemory(rlat, false, kind);
    if (plain)
        core.compute(2);
    else
        core.serialize(params_.atomic_serialize, StallKind::Atomic);
    const Cycles wlat = scratchpadAccess(request.core, *route, request.addr,
                                         request.size, true);
    core.issueMemory(wlat, false, kind);
    if (request.activates_dense) {
        // The dense bit lives in the vertex's scratchpad line.
        const Cycles blat =
            scratchpadAccess(request.core, *route, request.addr, 1, true);
        core.issueMemory(blat, false);
    }
    if (request.activates_sparse)
        appendSparse(request.core, kind);
}

std::optional<Cycles>
OmegaMachine::resolveOffloadFaults(const AtomicRequest &request,
                                   const SpRoute &route, Cycles arrival)
{
    Pisc &pisc = piscs_[route.home];
    if (!pisc.offerNack(request.vertex, arrival))
        return arrival;

    const FaultPlan &plan = injector_->plan();
    if (!plan.retries_enabled) {
        // Fire-and-forget with no retry: the update is LOST. Stamp the
        // vertex's busy entry never-retiring so the forward-progress
        // watchdog turns the silent corruption into a diagnosed failure.
        controller_.markLost(request.vertex);
        injector_->recordLostUpdate(route.home, request.vertex, arrival);
        return std::nullopt;
    }

    // Bounded retry with exponential backoff; every resend repeats the
    // offload packet.
    const bool remote = route.home != request.core;
    Cycles backoff = std::max<Cycles>(plan.retry_backoff, 1);
    for (unsigned attempt = 0; attempt < plan.max_retries; ++attempt) {
        arrival += backoff;
        if (backoff <= kNeverRetire / 2)
            backoff *= 2;
        if (remote) {
            hierarchy_.xbar().recordTransfer(request.operand_bytes + 4);
            arrival += hierarchy_.xbar().oneWay();
        }
        injector_->recordRetry(FaultKind::PiscNack, route.home,
                               request.vertex, arrival);
        if (!pisc.offerNack(request.vertex, arrival))
            return arrival;
        if (watchdog_cycles_ != 0 &&
            arrival - last_barrier_cycles_ > watchdog_cycles_) {
            throw WatchdogError(watchdogReport(
                "offload retry loop exceeded the watchdog budget",
                arrival));
        }
    }

    // Retry budget exhausted: the engine persistently refuses this
    // vertex. Degrade it to the cache path (poison first, so the fresh
    // route finds the line off the scratchpad path) and execute the
    // atomic on the core.
    controller_.poisonLine(request.vertex);
    injector_->recordLinePoisoned(route.home, request.vertex, arrival);
    if (injector_->registerScratchpadFault(route.home)) {
        controller_.demoteScratchpad(route.home);
        injector_->recordDemotion(route.home, arrival);
    }
    injector_->recordDegradedAtomic(route.home, request.vertex, arrival);
    coreAtomic(request, controller_.route(request.addr, request.core));
    return std::nullopt;
}

void
OmegaMachine::atomicUpdate(const AtomicRequest &request)
{
    ++atomics_total_;
    countVertexAccess(request.vertex);

    const auto route = controller_.route(request.addr, request.core);
    if (!route || !params_.pisc_enabled) {
        coreAtomic(request, route);
        return;
    }

    // Offload to the home PISC: fire-and-forget from the core.
    CoreModel &core = tiles_[request.core].core;
    core.busy(params_.pisc_send_cycles);

    Cycles arrival = core.now();
    if (route->home != request.core) {
        // Offload packet: operand word + destination id, single flit.
        hierarchy_.xbar().recordTransfer(request.operand_bytes + 4);
        arrival += hierarchy_.xbar().oneWay();
        arrival += hierarchy_.xbar().faultLatency(
            arrival, hierarchy_.xbar().oneWay());
    }

    if (injector_ != nullptr) {
        const auto resolved = resolveOffloadFaults(request, *route,
                                                   arrival);
        if (!resolved)
            return; // lost or degraded; bookkeeping done inside
        arrival = *resolved;
    }

    ++atomics_offloaded_;
    Pisc &pisc = piscs_[route->home];
    const Cycles start = controller_.beginAtomic(
        request.vertex, arrival, pisc.programCycles());
    if (injector_ != nullptr && start == kNeverRetire) {
        // Queued behind a lost update that will never complete: this
        // offload is stuck behind it (and the watchdog will report the
        // vertex at the next barrier).
        injector_->recordLostUpdate(route->home, request.vertex, arrival);
        return;
    }
    const Cycles completion = pisc.execute(start);
    if (trace_pid_ > 0) {
        // Dispatch-to-completion span on the home engine's track: the gap
        // before `start` is same-vertex blocking plus engine queueing.
        const Cycles dispatch = core.now();
        trace::emitComplete("pisc.atomic", "pisc", trace_pid_,
                            trace::kPiscTidBase +
                                static_cast<int>(route->home),
                            dispatch, completion - dispatch, "vertex",
                            request.vertex);
    }
    scratchpads_[route->home].recordAtomic();
    if (profile::compiledIn() && profiler_ != nullptr) {
        // A PISC atomic is one read-modify-write against the home line.
        profiler_->onScratchpadAccess(request.addr, request.size, true,
                                      route->home);
    }

    // Active-list maintenance is offloaded too (paper section V.B).
    if (request.activates_dense) {
        // Dense bit lives in the scratchpad line the PISC just wrote.
        scratchpads_[route->home].recordWrite(1);
        if (profile::compiledIn() && profiler_ != nullptr)
            profiler_->onScratchpadAccess(request.addr, 1, true,
                                          route->home);
    }
    if (request.activates_sparse) {
        // The PISC appends the vertex id via the home core's L1 D-cache.
        const std::uint64_t addr =
            config_.sparse_active_base +
            4 * (tiles_[route->home].sparse_appends++ *
                     params_.num_cores +
                 route->home);
        hierarchy_.access(route->home, addr, true, completion);
        pisc.extendBusy(2);
    }
}

void
OmegaMachine::barrier()
{
    // Offloaded atomics must complete before the next phase reads the
    // updated properties.
    Cycles piscs_done = 0;
    for (const auto &pisc : piscs_)
        piscs_done = std::max(piscs_done, pisc.lastCompletion());
    const Cycles t = joinCores(piscs_done);
    // Every core (and PISC) is now at t: busy entries that completed by t
    // can never block a later request, so drop them. Keeps the table
    // bounded by in-flight atomics across long multi-iteration runs.
    controller_.retireCompleted(t);
    if (watchdog_cycles_ != 0)
        checkStuckVertices(t);
    closePhase(t);
}

void
OmegaMachine::checkStuckVertices(Cycles now)
{
    // Everything has drained to `now`, so any surviving busy entry can
    // only be a never-retiring lost update: the atomic it models will
    // never complete, and every later same-vertex offload queues behind
    // it forever.
    const auto stuck = controller_.stuckVertices(now, 8);
    if (stuck.empty())
        return;
    std::ostringstream os;
    os << stuck.size() << (stuck.size() == 8 ? "+" : "")
       << " busy-table entr" << (stuck.size() == 1 ? "y" : "ies")
       << " will never retire (lost fire-and-forget update):";
    for (const VertexId v : stuck)
        os << " v" << v << "@sp" << controller_.homeOf(v);
    throw WatchdogError(watchdogReport(os.str(), now));
}

void
OmegaMachine::dumpEngines(std::ostream &os) const
{
    for (std::size_t c = 0; c < piscs_.size(); ++c) {
        os << "  pisc" << c << ": ops=" << piscs_[c].ops()
           << " busy_until=" << piscs_[c].busyUntil()
           << " last_completion=" << piscs_[c].lastCompletion() << "\n";
    }
    os << "  busy-table: " << controller_.busyTableSize()
       << " in-flight entries";
    const auto stuck = controller_.stuckVertices(global_cycles_, 8);
    if (!stuck.empty()) {
        os << ", stuck:";
        for (const VertexId v : stuck)
            os << " v" << v << "@sp" << controller_.homeOf(v);
    }
    os << "\n  degradation: " << controller_.poisonedLines()
       << " poisoned lines, " << controller_.demotedScratchpads()
       << " demoted scratchpads\n";
}

void
OmegaMachine::endIteration()
{
    for (auto &svb : svbs_)
        svb.invalidateAll();
    if (trace_pid_ > 0) {
        trace::emitInstant("svb.invalidate_all", "svb", trace_pid_,
                           trace::kEngineTid, global_cycles_, "iteration",
                           iteration_);
    }
    CmpMachine::endIteration();
}

StatsReport
OmegaMachine::report() const
{
    StatsReport r = CmpMachine::report();
    for (const auto &sp : scratchpads_)
        r.sp_accesses += sp.reads() + sp.writes() + sp.atomics();
    for (const auto &pisc : piscs_) {
        r.pisc_ops += pisc.ops();
        r.pisc_busy_cycles += pisc.busyCycles();
        r.pisc_max_busy_cycles =
            std::max<std::uint64_t>(r.pisc_max_busy_cycles,
                                    pisc.busyCycles());
    }
    for (const auto &svb : svbs_) {
        r.svb_hits += svb.hits();
        r.svb_misses += svb.misses();
    }
    r.sp_local = sp_local_;
    r.sp_remote = sp_remote_;
    r.pisc_blocked_conflicts = controller_.conflicts();
    r.atomics_offloaded = atomics_offloaded_;
    r.atomics_on_core = atomics_on_core_;
    return r;
}

} // namespace omega
