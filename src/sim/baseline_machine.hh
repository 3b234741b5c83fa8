/**
 * @file
 * Baseline CMP: conventional MESI cache hierarchy, atomics on the cores.
 */

#ifndef OMEGA_SIM_BASELINE_MACHINE_HH
#define OMEGA_SIM_BASELINE_MACHINE_HH

#include <string>

#include "sim/cmp_machine.hh"

namespace omega {

/**
 * The paper's Table-III baseline: 16 OoO cores, private L1s, shared 32 MB
 * L2, crossbar, 4-channel DDR3. All graph data flows through the caches;
 * atomic updates execute on the issuing core with the line locked. The
 * CMP frame is the whole machine: this class only adds the event
 * handlers and the snapshot order.
 */
class BaselineMachine : public CmpMachine
{
  public:
    explicit BaselineMachine(const MachineParams &params);

    void replayOps(unsigned core, std::span<const EngineOp> ops) final;
    /** Frame report; every atomic runs on a core. */
    StatsReport report() const override;

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
     * registry name. The derived constructor builds the stat tree once
     * its own members exist (registerStats(stats_root_, *this)).
     */
    BaselineMachine(const MachineParams &params, std::string name)
        : CmpMachine(params, std::move(name))
    {
    }
};

} // namespace omega

#endif // OMEGA_SIM_BASELINE_MACHINE_HH
