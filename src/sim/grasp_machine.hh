/**
 * @file
 * GRASP machine: the baseline CMP with domain-specialized LLC management.
 *
 * Third simulated design point (after the plain-cache baseline and
 * OMEGA): identical cores, coherence, crossbar and DRAM, but the shared
 * L2 runs the GRASP insertion/promotion policy (Faldu et al., PAPERS.md)
 * built from the same software-provided property-range bounds and
 * hot-first reordering cut that OMEGA's scratchpad monitors consume.
 * Where OMEGA spends half the L2 capacity on scratchpads plus PISC
 * engines, GRASP is pure replacement policy — zero capacity or datapath
 * cost — which is exactly the comparison the design-space sweeps need.
 */

#ifndef OMEGA_SIM_GRASP_MACHINE_HH
#define OMEGA_SIM_GRASP_MACHINE_HH

#include <memory>

#include "sim/baseline_machine.hh"
#include "sim/cache_policy.hh"

namespace omega {

/** Baseline hardware + GRASP LLC insertion/promotion. Everything else,
 *  event handlers included, is BaselineMachine on the CMP frame. */
class GraspMachine final : public BaselineMachine
{
  public:
    /**
     * Warm tier extent: vertices with id in [hot_boundary,
     * kWarmFactor * hot_boundary) insert at distant priority but may
     * earn promotion. Fixed rather than a MachineParams knob so the
     * parameter JSON (and with it the pinned golden digests) is
     * untouched by this machine's existence.
     */
    static constexpr unsigned kWarmFactor = 4;

    explicit GraspMachine(const MachineParams &params);

    /** Base configure, then rebuild the policy's protection map from
     *  the run's monitored property ranges and hot boundary. */
    void configure(const MachineConfig &config) override;

    const GraspPolicy &policy() const { return *policy_; }

    /** Base machine fields plus the policy's decision counters
     *  ("policy"). */
    void visit(FieldVisitor &v) override;

  private:
    /** Owned by the machine, installed on the hierarchy's L2; must be
     *  heap-allocated so its address outlives stat registration. */
    std::unique_ptr<GraspPolicy> policy_;
};

} // namespace omega

#endif // OMEGA_SIM_GRASP_MACHINE_HH
