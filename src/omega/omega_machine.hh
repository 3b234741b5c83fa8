/**
 * @file
 * The OMEGA machine: hybrid cache/scratchpad memory subsystem.
 *
 * Relative to the baseline, half of the L2 capacity is re-purposed as
 * per-core scratchpads holding the vtxProp of the most-connected vertices
 * (ids below the residency boundary after in-degree reordering). Requests
 * are filtered by the scratchpad controller's monitor registers:
 *
 *  - monitored vtxProp accesses to resident vertices go to the home
 *    scratchpad at word granularity (local: sp_latency; remote: plus a
 *    crossbar round trip with a single-flit packet);
 *  - atomic updates to resident vertices are offloaded to the home PISC,
 *    fire-and-forget from the core;
 *  - source-vertex reads consult the per-core source-vertex buffer;
 *  - everything else (edgeList, nGraphData, cold vtxProp, active lists)
 *    uses the regular MESI cache hierarchy, exactly as on the baseline.
 */

#ifndef OMEGA_OMEGA_OMEGA_MACHINE_HH
#define OMEGA_OMEGA_OMEGA_MACHINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "omega/pisc.hh"
#include "omega/scratchpad.hh"
#include "omega/scratchpad_controller.hh"
#include "omega/source_vertex_buffer.hh"
#include "sim/coherence.hh"
#include "sim/fault.hh"
#include "sim/interval_stats.hh"
#include "sim/memory_system.hh"
#include "sim/tile.hh"
#include "util/stats.hh"

namespace omega {

/**
 * OMEGA's per-core tile: the common private state plus the core's
 * source-vertex buffer (only the owning core reads and fills it). The
 * scratchpads and PISCs stay OFF the tile: they are home-indexed and
 * reached by every core through the controller, i.e. shared spine.
 */
struct OmegaCoreTile : CoreTile
{
    OmegaCoreTile(const MachineParams &params, unsigned svb_entries)
        : CoreTile(params), svb(svb_entries)
    {
    }

    SourceVertexBuffer svb;
};

/** OMEGA node (paper Fig 6 right side). */
class OmegaMachine : public MemorySystem
{
  public:
    explicit OmegaMachine(const MachineParams &params);

    void configure(const MachineConfig &config) override;
    void
    replayOps(unsigned core, std::span<const EngineOp> ops) final
    {
        // One virtual dispatch per span, one handler per op kind. Every
        // handler runs the full routed path: scratchpad / SVB / cache
        // decisions are per access.
        for (const EngineOp &op : ops) {
            switch (op.kind) {
              case EngineOpKind::Compute:
                tiles_[core].core.compute(op.arg);
                break;
              case EngineOpKind::Load:
              case EngineOpKind::Store:
                memAccess(op.toMemAccess(core));
                break;
              case EngineOpKind::SrcProp:
                readSrcProp(core, op.vertex, op.addr, op.arg);
                break;
              case EngineOpKind::Atomic:
                atomicUpdate(op.toAtomicRequest(core));
                break;
            }
        }
    }
    void barrier() override;
    void endIteration() override;
    Cycles coreNow(unsigned core) const override;
    Cycles cycles() const override;
    StatsReport report() const override;
    const MachineParams &params() const override { return params_; }
    std::string name() const override
    {
        return params_.pisc_enabled ? "omega" : "omega-sp-only";
    }

    /** Number of vertices resident in the scratchpads this run. */
    VertexId residentVertices() const
    {
        return controller_.residentVertices();
    }
    const ScratchpadController &controller() const { return controller_; }
    /** Per-core scratchpads (capacity accounting, tests). */
    const std::vector<Scratchpad> &scratchpads() const
    {
        return scratchpads_;
    }

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
     * Machine clocks/counters, the spine ("cache", "controller"), the
     * tiles ("coreN", "svbN"), scratchpads ("spN"), PISCs ("piscN") and
     * any armed injector ("faults"), in stat-tree order. Configuration
     * (monitor registers, microcode, residency) is re-derived by
     * configure() before restore.
     */
    void visit(FieldVisitor &v) override;

  private:
    /** @name Event handlers (replayOps) @{ */
    /** Load/Store: resident vtxProp to the home scratchpad, the rest
     *  through the caches. */
    void memAccess(const MemAccess &access);
    /** Source-vtxProp read (paper section V.C): local scratchpad, the
     *  core's source-vertex buffer, or a remote scratchpad read. */
    void readSrcProp(unsigned core, VertexId vertex, std::uint64_t addr,
                     std::uint32_t size);
    /** Atomic vtxProp update: offloaded to the home PISC when resident. */
    void atomicUpdate(const AtomicRequest &request);
    /** @} */
    void countVertexAccess(VertexId vertex);
    /** The armed flag (config) and, when armed, the injector. */
    void visitFaults(FieldVisitor &v);
    void takeSample(SampleKind kind);
    /**
     * Scratchpad word access from @p core; returns core-visible latency.
     * @param addr byte address of the access (profiler attribution; the
     *        route carries only vertex/home/line coordinates).
     */
    Cycles scratchpadAccess(unsigned core, const SpRoute &route,
                            std::uint64_t addr, std::uint32_t bytes,
                            bool write);
    /** Fall back to the regular cache path. */
    void cacheAccess(const MemAccess &access);
    /** Core-executed atomic through the caches (cold vertices). */
    void coreAtomic(const AtomicRequest &request);

    /**
     * Resolve injected delivery faults of one offload arriving at
     * @p arrival: NACK retries with backoff, degradation after retry
     * exhaustion (executed on the core), or a lost update (retries
     * disabled). Returns the resolved arrival time, or nullopt when the
     * offload will not execute on the PISC (all bookkeeping done).
     */
    std::optional<Cycles> resolveOffloadFaults(const AtomicRequest &request,
                                               const SpRoute &route,
                                               Cycles arrival);
    /**
     * ECC fault handling of one scratchpad read of @p route costing
     * @p base_latency: retry reads, then poison + memory re-fetch once
     * the line's persistent threshold is crossed. Returns the extra
     * latency (0 when no error fires). Only called with an armed
     * injector.
     */
    Cycles spFaultPenalty(unsigned core, const SpRoute &route,
                          Cycles base_latency);
    /** Recompute the effective watchdog budget (config overrides plan). */
    void refreshWatchdog();
    /** Barrier-time watchdog: stuck busy entries and the phase budget. */
    void checkForwardProgress(Cycles now);
    /** Compose a WatchdogError message: reason + state dump. */
    std::string watchdogReport(const std::string &reason,
                               Cycles now) const;

    MachineParams params_;
    MachineConfig config_;
    CacheHierarchy hierarchy_;
    /** Core-private tiles (core model, SVB, sparse-append counter). */
    std::vector<OmegaCoreTile> tiles_;
    /** Home-indexed shared spine components (reached cross-core). */
    std::vector<Scratchpad> scratchpads_;
    std::vector<Pisc> piscs_;
    ScratchpadController controller_;
    Cycles global_cycles_ = 0;
    std::uint64_t iteration_ = 0;
    int trace_pid_ = 0;

    /** Armed fault campaign (null on the fault-free fast path). Its
     *  "faults" stat group is attached lazily — only armed runs report
     *  it, keeping the unarmed stat tree (and the golden digest)
     *  unchanged. */
    std::unique_ptr<FaultInjector> injector_;

    /** Armed access profiler + its lazily attached "profile" group
     *  (same arming pattern as the fault campaign). */
    std::unique_ptr<AccessProfiler> profiler_;
    /** Effective forward-progress budget; 0 disables the watchdog. */
    Cycles watchdog_cycles_ = 0;
    Cycles last_barrier_cycles_ = 0;

    std::uint64_t atomics_total_ = 0;
    std::uint64_t atomics_offloaded_ = 0;
    std::uint64_t atomics_on_core_ = 0;
    std::uint64_t sp_local_ = 0;
    std::uint64_t sp_remote_ = 0;
    std::uint64_t vtxprop_accesses_ = 0;
    std::uint64_t vtxprop_hot_accesses_ = 0;

    /** Stat tree: root -> {machine counters, cache.*, controller.*,
     *  coreN.*, spN.*, piscN.*, svbN.*}. */
    StatGroup stats_root_{"omega"};
};

} // namespace omega

#endif // OMEGA_OMEGA_OMEGA_MACHINE_HH
