/**
 * @file
 * Baseline CMP: conventional MESI cache hierarchy, atomics on the cores.
 */

#ifndef OMEGA_SIM_BASELINE_MACHINE_HH
#define OMEGA_SIM_BASELINE_MACHINE_HH

#include <memory>
#include <vector>

#include "sim/coherence.hh"
#include "sim/fault.hh"
#include "sim/interval_stats.hh"
#include "sim/memory_system.hh"
#include "sim/tile.hh"
#include "util/stats.hh"

namespace omega {

/**
 * The paper's Table-III baseline: 16 OoO cores, private L1s, shared 32 MB
 * L2, crossbar, 4-channel DDR3. All graph data flows through the caches;
 * atomic updates execute on the issuing core with the line locked.
 */
class BaselineMachine : public MemorySystem
{
  public:
    explicit BaselineMachine(const MachineParams &params);

    void configure(const MachineConfig &config) override;
    void replayOps(unsigned core, std::span<const EngineOp> ops) final;
    void barrier() override;
    void endIteration() override;
    Cycles coreNow(unsigned core) const override;
    Cycles cycles() const override;
    StatsReport report() const override;
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return name_; }

    void recordFinalSample() override;
    const StatGroup *statTree() const override { return &stats_root_; }
    void attachTracing() override;
    int tracePid() const override { return trace_pid_; }

    void armFaults(const FaultPlan &plan) override;
    const FaultInjector *faultInjector() const override
    {
        return injector_.get();
    }
    std::string debugDump() const override;

    void armProfile() override;
    AccessProfiler *profiler() override { return profiler_.get(); }

    /**
     * Machine clocks/counters, the shared spine ("cache"), the tiles
     * ("coreN") and any armed fault injector ("faults"). Derived
     * machines (GRASP) extend it. Profiler state is deliberately out of
     * scope (checkpointing is rejected under --profile at the CLI).
     */
    void visit(FieldVisitor &v) override;

  protected:
    /**
     * Derived-machine constructor (GRASP): same hardware, a different
     * registry name — used verbatim as the stat-tree root and trace pid
     * label, so per-machine artifacts stay distinguishable in a sweep.
     * The derived constructor builds the stat tree once its own members
     * exist (registerStats(stats_root_, *this)).
     */
    BaselineMachine(const MachineParams &params, std::string name);

    MachineParams params_;
    MachineConfig config_;
    CacheHierarchy hierarchy_;
    /** Registry name; declared before stats_root_, which labels itself
     *  with it. */
    std::string name_;
    /** Stat tree: root -> {machine counters, cache.*, coreN.*}. */
    StatGroup stats_root_;

  private:
    /**
     * The one Load/Store handler: every core-issued cache access —
     * loads, stores, source-prop reads and active-list stores — issues
     * through here. Forced inline: the compiler otherwise keeps one
     * out-of-line copy, adding a call per load/store to the replayOps
     * loop (defined and only used in the .cc).
     */
    [[gnu::always_inline]] inline void loadStore(unsigned core,
                                                 const EngineOp &op);
    /** Atomic handler: locked RMW on the core plus active-list upkeep. */
    void atomicUpdate(const AtomicRequest &request);
    void countVertexAccess(VertexId vertex);
    /** The armed flag (config) and, when armed, the injector. */
    void visitFaults(FieldVisitor &v);
    void takeSample(SampleKind kind);
    void refreshWatchdog();
    /** Core-private tiles; everything cross-core lives in hierarchy_
     *  (the shared spine — see sim/tile.hh). */
    std::vector<CoreTile> tiles_;
    Cycles global_cycles_ = 0;
    std::uint64_t iteration_ = 0;
    int trace_pid_ = 0;

    /** Armed fault campaign (null on the fault-free fast path). All
     *  graph data flows through the caches here, so the baseline only
     *  models DRAM channel stalls — there is no scratchpad/PISC/packet
     *  surface to fault, and the coherence hot path stays untouched. */
    std::unique_ptr<FaultInjector> injector_;

    /** Armed access profiler (null on the profile-free fast path);
     *  lazily built with its stat group on the first armProfile(). */
    std::unique_ptr<AccessProfiler> profiler_;
    /** Effective forward-progress budget; 0 disables the watchdog. */
    Cycles watchdog_cycles_ = 0;
    Cycles last_barrier_cycles_ = 0;

    std::uint64_t atomics_total_ = 0;
    std::uint64_t vtxprop_accesses_ = 0;
    std::uint64_t vtxprop_hot_accesses_ = 0;
};

} // namespace omega

#endif // OMEGA_SIM_BASELINE_MACHINE_HH
