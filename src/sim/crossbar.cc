/**
 * @file
 * Crossbar accounting implementation.
 */

#include "sim/crossbar.hh"

#include "sim/fault.hh"

namespace omega {

Crossbar::Crossbar(const MachineParams &params)
    : one_way_(params.xbar_latency),
      flit_bytes_(params.xbar_flit_bytes),
      header_bytes_(params.xbar_header_bytes)
{
}

Cycles
Crossbar::faultLatencySlow(Cycles now, Cycles retransmit_cycles)
{
    return fault_inj_->xbarPacketFaults(now, retransmit_cycles);
}

void
Crossbar::visit(FieldVisitor &v)
{
    v.counter("bytes", bytes_, "on-chip bytes moved");
    v.counter("flits", flits_, "flits traversing the crossbar");
    v.counter("packets", packets_, "packets (data + control)");
}

} // namespace omega
