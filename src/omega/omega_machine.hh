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
 *    takes the CMP frame's cache path (sim/cmp_machine.hh), the same
 *    code the baseline runs; a cold-vertex atomic is the frame's
 *    core-executed atomic.
 */

#ifndef OMEGA_OMEGA_OMEGA_MACHINE_HH
#define OMEGA_OMEGA_OMEGA_MACHINE_HH

#include <optional>
#include <vector>

#include "omega/pisc.hh"
#include "omega/scratchpad.hh"
#include "omega/scratchpad_controller.hh"
#include "omega/source_vertex_buffer.hh"
#include "sim/cmp_machine.hh"

namespace omega {

/**
 * OMEGA node (paper Fig 6 right side): the CMP frame plus a scratchpad,
 * a PISC and a source-vertex buffer per core behind the scratchpad
 * controller's routing. The SVBs are core-private (only the owning core
 * reads and fills one) but sit beside the frame's tiles rather than in
 * them; the scratchpads and PISCs are home-indexed shared spine.
 */
class OmegaMachine : public CmpMachine
{
  public:
    explicit OmegaMachine(const MachineParams &params);

    /** Frame configure, then scratchpad residency and PISC microcode. */
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
                memAccess(core, op);
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
    /** Joins the PISCs too, retires completed busy entries and checks
     *  for stuck vertices before the frame's phase budget. */
    void barrier() override;
    /** Invalidates every source-vertex buffer, then the frame's
     *  iteration end. */
    void endIteration() override;
    /** Frame report plus the scratchpad, PISC and SVB counters. */
    StatsReport report() const override;
    /** Frame wiring plus the crossbar and every PISC. */
    void armFaults(const FaultPlan &plan) override;

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

    /**
     * Machine clocks/counters, the spine ("cache", "controller"), the
     * tiles ("coreN"), scratchpads ("spN"), PISCs ("piscN"), SVBs
     * ("svbN") and any armed injector ("faults"), in stat-tree order.
     * Configuration (monitor registers, microcode, residency) is
     * re-derived by configure() before restore.
     */
    void visit(FieldVisitor &v) override;

  protected:
    void takeSample(SampleKind kind) override;
    void nameEngineTracks(trace::TraceSink &sink) const override;
    void dumpEngines(std::ostream &os) const override;
    AccessProfiler::Config profileConfig() const override;

  private:
    /** @name Event handlers (replayOps) @{ */
    /** Load/Store: resident vtxProp to the home scratchpad, the rest
     *  through the caches. */
    void memAccess(unsigned core, const EngineOp &op);
    /** Source-vtxProp read (paper section V.C): local scratchpad, the
     *  core's source-vertex buffer, or a remote scratchpad read. */
    void readSrcProp(unsigned core, VertexId vertex, std::uint64_t addr,
                     std::uint32_t size);
    /** Atomic vtxProp update: offloaded to the home PISC when resident. */
    void atomicUpdate(const AtomicRequest &request);
    /** @} */
    /**
     * Scratchpad word access from @p core; returns core-visible latency.
     * @param addr byte address of the access (profiler attribution; the
     *        route carries only vertex/home/line coordinates).
     */
    Cycles scratchpadAccess(unsigned core, const SpRoute &route,
                            std::uint64_t addr, std::uint32_t bytes,
                            bool write);
    /** Core-executed atomic: against the scratchpad when @p route says
     *  resident (the SP-only ablation), otherwise the frame's
     *  cache-path atomic. */
    void coreAtomic(const AtomicRequest &request,
                    const std::optional<SpRoute> &route);

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
    /** Barrier-time watchdog: busy entries that will never retire. */
    void checkStuckVertices(Cycles now);

    /** Core-private source-vertex buffers, one per tile. */
    std::vector<SourceVertexBuffer> svbs_;
    /** Home-indexed shared spine components (reached cross-core). */
    std::vector<Scratchpad> scratchpads_;
    std::vector<Pisc> piscs_;
    ScratchpadController controller_;

    std::uint64_t atomics_offloaded_ = 0;
    std::uint64_t atomics_on_core_ = 0;
    std::uint64_t sp_local_ = 0;
    std::uint64_t sp_remote_ = 0;
};

} // namespace omega

#endif // OMEGA_OMEGA_OMEGA_MACHINE_HH
