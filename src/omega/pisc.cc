/**
 * @file
 * PISC implementation.
 */

#include "omega/pisc.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "util/check.hh"

namespace omega {

void
Pisc::loadMicrocode(std::uint16_t program_id, Cycles program_cycles,
                    Cycles initiation)
{
    program_id_ = program_id;
    program_cycles_ = std::max<Cycles>(program_cycles, 1);
    initiation_ = initiation == 0 ? program_cycles_
                                  : std::min(initiation, program_cycles_);
    omega_check(initiation_ >= 1 && initiation_ <= program_cycles_,
                "initiation interval must be within 1..program_cycles");
}

Cycles
Pisc::execute(Cycles start)
{
    // Serialize behind any in-flight initiation on this engine.
    const Cycles actual_start = std::max(start, busy_until_);
    queue_cycles_ += actual_start - start;
    [[maybe_unused]] const Cycles prev_busy_until = busy_until_;
    busy_until_ = actual_start + initiation_;
    last_completion_ = actual_start + program_cycles_;
    ++ops_;
    busy_cycles_ += initiation_;
    // Pipelined initiation must never travel backwards in time, and an
    // op cannot complete before its engine frees the issue slot.
    omega_check(busy_until_ > prev_busy_until,
                "PISC busy horizon moved backwards");
    omega_check(last_completion_ >= busy_until_,
                "PISC op completes before its initiation interval ends");
    return last_completion_;
}

bool
Pisc::offerNackSlow(VertexId vertex, Cycles now)
{
    return fault_inj_->piscNack(fault_id_, vertex, now);
}

void
Pisc::extendBusy(Cycles extra)
{
    busy_until_ += extra;
    last_completion_ = std::max(last_completion_, busy_until_);
    busy_cycles_ += extra;
}

void
Pisc::visit(FieldVisitor &v)
{
    v.state(busy_until_);
    v.state(last_completion_);
    v.counter("ops", ops_, "offloaded atomics executed");
    v.counter("busy_cycles", busy_cycles_,
              "cycles the sequencer was occupied");
    v.counter("queue_cycles", queue_cycles_,
              "cycles offloads waited behind the engine");
}

} // namespace omega
