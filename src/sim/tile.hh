/**
 * @file
 * Per-core tile: the core-private half of a machine.
 *
 * A machine splits into per-core tiles and a shared spine. A tile
 * bundles the state only the owning core's events touch: its timing
 * model and its sparse-append counter. Every machine holds one vector of
 * these tiles in the CMP frame (sim/cmp_machine.hh); OMEGA keeps its
 * per-core source-vertex buffers in a vector of their own beside it.
 * Everything mutated across cores — caches, crossbar, DRAM, the
 * scratchpad controller and its home-indexed scratchpads and PISCs —
 * stays outside, on the spine. The grouping is the unit a future
 * multi-chip sharding would distribute.
 */

#ifndef OMEGA_SIM_TILE_HH
#define OMEGA_SIM_TILE_HH

#include <cstdint>

#include "sim/core_model.hh"
#include "sim/params.hh"

namespace omega {

/** Core-private state of every machine. */
struct CoreTile
{
    explicit CoreTile(const MachineParams &params) : core(params) {}

    void
    visit(FieldVisitor &v)
    {
        core.visit(v);
        v.state(sparse_appends);
    }

    CoreModel core;
    /** Sparse active-list appends attributed to this tile — the issuing
     *  core on the core path, the home engine for OMEGA's PISC path
     *  (address generation for the interleaved append layout). */
    std::uint64_t sparse_appends = 0;
};

} // namespace omega

#endif // OMEGA_SIM_TILE_HH
