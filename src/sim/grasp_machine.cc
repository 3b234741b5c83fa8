/**
 * @file
 * GRASP machine implementation.
 */

#include "sim/grasp_machine.hh"

namespace omega {

GraspMachine::GraspMachine(const MachineParams &params)
    : BaselineMachine(params, "grasp"),
      policy_(std::make_unique<GraspPolicy>())
{
    hierarchy_.setLlcPolicy(policy_.get());
    registerStats(stats_root_, *this);
}

void
GraspMachine::configure(const MachineConfig &config)
{
    BaselineMachine::configure(config);
    policy_->setRegions(
        GraspPolicy::regionsFromConfig(config, kWarmFactor));
}

void
GraspMachine::visit(FieldVisitor &v)
{
    BaselineMachine::visit(v);
    v.group("policy", *policy_);
}

} // namespace omega
