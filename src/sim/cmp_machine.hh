/**
 * @file
 * The CMP frame every simulated machine is built on.
 *
 * The paper's design points are one chip (Table III): 16 OoO cores with
 * private L1s, a shared L2 behind a crossbar, and DDR3 channels. The
 * baseline runs all graph data through that hierarchy, GRASP adds an
 * LLC policy, and OMEGA turns half of the L2 into scratchpads with PISCs
 * and routes vtxProp traffic there. CmpMachine is what they share:
 *
 *  - the per-core tiles (sim/tile.hh) and the cache hierarchy;
 *  - the global clock, the iteration count and the last barrier time;
 *  - the stat root, labelled with the machine's registry name;
 *  - fault and profile arming, the trace tracks, the phase-budget
 *    watchdog and the debugDump() header;
 *  - the report() fields and interval samples common to every machine;
 *  - the cache-path load/store and the core-executed atomic through
 *    the caches (the baseline's atomic and OMEGA's cold-vertex atomic).
 *
 * Each machine adds its replayOps() handlers, its visit() (snapshot and
 * stat-tree order are per machine) and whatever extra spine it has.
 * Machines count their vtxProp touches in their own handlers; the shared
 * cache path never does, so a fallback access is not counted twice.
 */

#ifndef OMEGA_SIM_CMP_MACHINE_HH
#define OMEGA_SIM_CMP_MACHINE_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/coherence.hh"
#include "sim/fault.hh"
#include "sim/interval_stats.hh"
#include "sim/memory_system.hh"
#include "sim/profile.hh"
#include "sim/tile.hh"
#include "util/stats.hh"

namespace omega {

namespace trace {
class TraceSink;
}

/** Cores, cache hierarchy, clocks and observability of one CMP. */
class CmpMachine : public MemorySystem
{
  public:
    void configure(const MachineConfig &config) override;
    void barrier() override;
    void endIteration() override;
    Cycles coreNow(unsigned core) const override
    {
        return tiles_[core].core.now();
    }
    Cycles cycles() const override { return global_cycles_; }
    /** Clock, hierarchy, core buckets and the shared counters. */
    StatsReport report() const override;
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return name_; }

    void recordFinalSample() override;
    const StatGroup *statTree() const override { return &stats_root_; }
    void attachTracing() override;
    int tracePid() const override { return trace_pid_; }

    /** Build or re-arm the injector and wire it into DRAM. */
    void armFaults(const FaultPlan &plan) override;
    const FaultInjector *faultInjector() const override
    {
        return injector_.get();
    }
    std::string debugDump() const override;

    void armProfile() override;
    AccessProfiler *profiler() override { return profiler_.get(); }

  protected:
    /**
     * @p name is the registry name; it labels the stat root and the
     * trace process. The most-derived constructor builds the stat tree
     * once its own members exist (registerStats(stats_root_, *this)).
     */
    CmpMachine(const MachineParams &params, std::string name);

    /** Count one vtxProp touch (hot below the configured boundary). */
    void
    countVertexAccess(VertexId vertex)
    {
        ++vtxprop_accesses_;
        if (vertex < config_.hot_boundary)
            ++vtxprop_hot_accesses_;
    }

    /**
     * Core-issued load or store through the caches. @p flags are the
     * EngineOp kBlocking/kSequential bits. Forced inline: it is the hot
     * path of every replayOps() loop, which GCC otherwise calls out of
     * line.
     */
    [[gnu::always_inline]] void
    cacheAccess(unsigned core, std::uint64_t addr, bool write,
                std::uint8_t flags = 0)
    {
        CoreModel &c = tiles_[core].core;
        const bool blocking = (flags & EngineOp::kBlocking) != 0;
        // A non-blocking issue reserves its window slot first, so the
        // DRAM queues see the post-stall issue time; the slot is then
        // known free and issueMemoryPrepared skips the re-check.
        if (!blocking)
            c.prepareIssue();
        const bool prefetched =
            (flags & EngineOp::kSequential) && params_.stream_prefetch;
        const Cycles lat =
            hierarchy_.access(core, addr, write, c.now(), prefetched);
        if (blocking)
            c.issueMemory(lat, /*blocking=*/true);
        else
            c.issueMemoryPrepared(lat);
    }

    /**
     * Atomic executed on the issuing core through the caches: a locked
     * read-modify-write of the destination line, then the active-list
     * upkeep on the core. Under atomics_as_plain the same data moves
     * without locking and every stall is charged to memory.
     */
    void cacheAtomic(const AtomicRequest &request);

    /** fetch_add on the shared sparse-list tail counter, then the
     *  append store; window stalls are charged to @p kind. */
    void appendSparse(unsigned core, StallKind kind);

    /**
     * Drain every core, then advance all of them and the global clock
     * to the latest of their clocks and @p floor. Returns that time.
     */
    Cycles joinCores(Cycles floor = 0);

    /** Phase-budget watchdog, then close the phase at @p t (last
     *  barrier time, cadence sample). */
    void closePhase(Cycles t);

    /** A WatchdogError message: @p reason, machine, cycle, debugDump(). */
    std::string watchdogReport(const std::string &reason, Cycles now) const;

    /** The armed flag (config) and, when armed, the injector. */
    void visitFaults(FieldVisitor &v);

    /** Visit items[i] as the group "<prefix>i". */
    template <typename Component>
    static void
    visitEach(FieldVisitor &v, const char *prefix,
              std::vector<Component> &items)
    {
        for (std::size_t i = 0; i < items.size(); ++i)
            v.group(prefix + std::to_string(i), items[i]);
    }

    /** Record one interval sample (OMEGA adds its per-bank series). */
    virtual void takeSample(SampleKind kind);
    /** Every tile's TMAM buckets, for an interval sample. */
    std::vector<CoreIntervalStats> coreIntervals() const;

    /** Name the trace tracks between the core and DRAM tracks. */
    virtual void nameEngineTracks(trace::TraceSink &sink) const
    {
        (void)sink;
    }
    /** debugDump() lines between the cores and the fault summary. */
    virtual void dumpEngines(std::ostream &os) const { (void)os; }
    /** Profiler geometry of this machine. */
    virtual AccessProfiler::Config profileConfig() const;

    MachineParams params_;
    MachineConfig config_;
    CacheHierarchy hierarchy_;
    /** Core-private tiles; everything cross-core is spine. */
    std::vector<CoreTile> tiles_;
    /** Registry name; declared before stats_root_, which it labels. */
    std::string name_;
    StatGroup stats_root_;
    Cycles global_cycles_ = 0;
    std::uint64_t iteration_ = 0;
    Cycles last_barrier_cycles_ = 0;
    int trace_pid_ = 0;

    /** Armed fault campaign (null on the fault-free fast path). Its
     *  "faults" stat group is attached lazily, so the unarmed stat tree
     *  (and the golden digests over it) stays unchanged. */
    std::unique_ptr<FaultInjector> injector_;
    /** Armed access profiler with its lazily attached "profile" group. */
    std::unique_ptr<AccessProfiler> profiler_;
    /** Effective forward-progress budget; 0 disables the watchdog. */
    Cycles watchdog_cycles_ = 0;

    std::uint64_t atomics_total_ = 0;
    std::uint64_t vtxprop_accesses_ = 0;
    std::uint64_t vtxprop_hot_accesses_ = 0;

  private:
    /** Recompute the effective watchdog budget (config overrides plan). */
    void refreshWatchdog();
};

} // namespace omega

#endif // OMEGA_SIM_CMP_MACHINE_HH
