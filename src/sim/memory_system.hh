/**
 * @file
 * Abstract memory-system interface the framework runtime drives.
 *
 * The registry's timing machines all derive from the CMP frame
 * CmpMachine (sim/cmp_machine.hh): BaselineMachine (conventional MESI
 * cache hierarchy), GraspMachine (the baseline with a GRASP LLC policy)
 * and OmegaMachine (hybrid cache + scratchpad with PISC engines). The
 * framework is machine-agnostic: it registers its vtxProp
 * layout (the paper's address-monitoring-register configuration), then
 * emits compute, load/store, source-prop-read and atomic-update events;
 * each machine interprets them with its own timing and routing.
 */

#ifndef OMEGA_SIM_MEMORY_SYSTEM_HH
#define OMEGA_SIM_MEMORY_SYSTEM_HH

#include <span>
#include <string>
#include <vector>

#include "graph/types.hh"
#include "sim/access.hh"
#include "sim/engine_ops.hh"
#include "sim/params.hh"
#include "sim/snapshot.hh"
#include "sim/stats_report.hh"

namespace omega {

class AccessProfiler;
class FaultInjector;
class FieldVisitor;
struct FaultPlan;
class IntervalRecorder;
class StatGroup;

/**
 * One vtxProp range, as written into the scratchpad controller's
 * address-monitoring registers (paper Fig 7): base address, primitive
 * size, stride between consecutive vertices' entries.
 */
struct PropSpec
{
    std::uint64_t start_addr = 0;
    std::uint32_t type_size = 8;
    std::uint32_t stride = 8;
    VertexId count = 0;
};

/**
 * Per-run machine configuration produced by the framework/translation
 * layer: monitored vtxProp ranges, active-list placement, and the PISC
 * microcode program for the algorithm's atomic update.
 */
struct MachineConfig
{
    VertexId num_vertices = 0;
    std::vector<PropSpec> props;
    /** Dense active-list bitmap base (1 byte per vertex). */
    std::uint64_t dense_active_base = 0;
    /** Sparse active-list array base (4 bytes per appended id). */
    std::uint64_t sparse_active_base = 0;
    /** Shared sparse-list tail counter address. */
    std::uint64_t sparse_counter_addr = 0;
    /** Microcode program id (translate layer). */
    std::uint16_t microcode_program = 0;
    /** End-to-end latency of one atomic update on a PISC. */
    Cycles microcode_cycles = 4;
    /** Engine occupancy per atomic (pipelined sequencer). */
    Cycles microcode_initiation = 2;
    /** Vertices with id < hot_boundary count as "hot" in the stats. */
    VertexId hot_boundary = 0;
    /** Forward-progress budget per barrier phase; 0 disables the
     *  watchdog (wired from EngineOptions::watchdog_cycles). */
    Cycles watchdog_cycles = 0;
};

/**
 * Abstract machine. Engine events have one way in, replayOps(); the
 * remaining virtuals are synchronization (barrier, endIteration), clock
 * queries and observability. All methods are single-threaded: one run
 * drives one machine from one thread.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /** Install the run configuration (monitor registers + microcode). */
    virtual void configure(const MachineConfig &config) = 0;

    /**
     * Deliver a run of engine events for @p core — the machine's only
     * event entry point (engine_ops.hh). Compute, load/store, source-prop
     * reads and atomic vtxProp updates all arrive here, from scripted
     * task spans and live one-op emits alike, so a machine writes exactly
     * one handler per EngineOpKind. The run must be consecutive in
     * simulated order with no intervening machine events; machines must
     * give the same result for any split of a stream into runs.
     */
    virtual void replayOps(unsigned core, std::span<const EngineOp> ops) = 0;

    /** Join all cores (end of a parallel-for). */
    virtual void barrier() = 0;

    /** End of an algorithm iteration (invalidates source-vertex buffers). */
    virtual void endIteration() = 0;

    /** Local clock of @p core (engine scheduling + contention order). */
    virtual Cycles coreNow(unsigned core) const = 0;

    /** Global completed time (valid after barrier()). */
    virtual Cycles cycles() const = 0;

    /** Snapshot all counters. */
    virtual StatsReport report() const = 0;

    virtual const MachineParams &params() const = 0;
    virtual std::string name() const = 0;

    /** @name Observability @{ */
    /**
     * Attach an interval recorder (not owned). The machine feeds it a
     * sample whenever a cadence boundary is crossed at a barrier and at
     * every iteration end. Pass nullptr to detach.
     */
    void attachIntervalRecorder(IntervalRecorder *recorder)
    {
        recorder_ = recorder;
    }
    IntervalRecorder *intervalRecorder() const { return recorder_; }

    /**
     * Take a Final interval sample at the current time so the recorder's
     * sum-of-deltas matches the end-of-run report() exactly. No-op when
     * no recorder is attached.
     */
    virtual void recordFinalSample() {}

    /**
     * Root of the machine's StatGroup tree (dotted-path lookup over
     * every component counter), or nullptr if the machine has none.
     */
    virtual const StatGroup *statTree() const { return nullptr; }

    /**
     * Register this machine with the installed trace sink: allocate its
     * process track, name the per-core / per-engine / per-channel thread
     * tracks, and arm component-level event emission. No-op when no sink
     * is installed (or tracing was compiled out).
     */
    virtual void attachTracing() {}

    /** Trace process id of this machine (0 when tracing is detached). */
    virtual int tracePid() const { return 0; }
    /** @} */

    /** @name Fault injection @{ */
    /**
     * Arm a deterministic fault campaign. Default: no faults supported
     * (the plan is ignored). Machines that support injection construct
     * their FaultInjector here; arming resets any previous campaign.
     */
    virtual void armFaults(const FaultPlan &plan) { (void)plan; }

    /** The armed injector, or nullptr when no campaign is armed. */
    virtual const FaultInjector *faultInjector() const { return nullptr; }

    /**
     * Human-readable machine state (per-core clocks, busy-table summary,
     * campaign counters) — the body of watchdog diagnostics.
     */
    virtual std::string debugDump() const { return name() + ": no dump"; }
    /** @} */

    /** @name Access profiling @{ */
    /**
     * Arm memory-access profiling (reuse distance, 3C classification,
     * region/phase attribution — sim/profile.hh). Default: unsupported,
     * no-op. Machines that support it construct their AccessProfiler
     * lazily here; re-arming resets the previous profile in place.
     * Observation only starts once OMEGA_PROFILE is compiled in; arming
     * under a profile-less build leaves every counter at zero.
     */
    virtual void armProfile() {}

    /** The armed profiler, or nullptr when profiling is not armed. */
    virtual AccessProfiler *profiler() { return nullptr; }
    /** @} */

    /**
     * Declare every counter and every word of mutable machine state —
     * clocks, tile state, the spine (caches, crossbar, DRAM,
     * scratchpads), counters and any armed fault injector — once, for
     * the stat tree and for checkpoint save/restore (saveFields() /
     * restoreFields() in sim/field_visitor.hh). A snapshot is only
     * meaningful at an iteration boundary (cores drained through a
     * barrier), and restore needs a machine already configured for the
     * same run: configuration is re-derived on resume. Default:
     * unsupported — a machine that does not override it cannot be
     * checkpointed.
     */
    virtual void
    visit(FieldVisitor &v)
    {
        (void)v;
        throw SnapshotStateError("snapshot: machine \"" + name() +
                                 "\" does not support checkpointing");
    }

  protected:
    IntervalRecorder *recorder_ = nullptr;
};

} // namespace omega

#endif // OMEGA_SIM_MEMORY_SYSTEM_HH
