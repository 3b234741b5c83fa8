/**
 * @file
 * Compact engine->machine event records: the one event path into a
 * machine, for scripted spans and live single events alike.
 *
 * An EngineOp is one engine event — compute, load/store, source-prop
 * read or atomic vtxProp update — flattened into a 24-byte POD, and a
 * span of them is the only way events reach a machine:
 * MemorySystem::replayOps(). Scripted and buffered phases hand a whole
 * task over in one call (one virtual dispatch per task instead of three
 * to five per edge); the engine's live emits (Engine::emitLoad and
 * friends) hand over one-op spans. Each machine therefore implements a
 * single devirtualized switch with one handler per op kind.
 *
 * For structurally pure phases (Engine::scriptedFor) an item's ops are
 * generated into a reused arena and replayed at once, split only at
 * the item's functional hook (DESIGN.md "Fused item loop").
 */

#ifndef OMEGA_SIM_ENGINE_OPS_HH
#define OMEGA_SIM_ENGINE_OPS_HH

#include <cstdint>

#include "graph/types.hh"
#include "sim/access.hh"

namespace omega {

/** Event type of one EngineOp. */
enum class EngineOpKind : std::uint8_t {
    /** Advance the core clock by @c arg instruction-equivalents. */
    Compute,
    /** Core load. */
    Load,
    /** Core store. */
    Store,
    /** Source-vtxProp read (SVB-eligible on OMEGA). */
    SrcProp,
    /** Atomic vtxProp update (AtomicRequest). */
    Atomic,
};

/**
 * One flattened engine event. Field use by kind:
 *  - Compute: arg = instruction-equivalents.
 *  - Load/Store: addr, arg = size, cls, vertex, kBlocking/kSequential.
 *  - SrcProp: addr, arg = size, vertex.
 *  - Atomic: addr, arg = size, vertex, operand_bytes, kActivates*.
 */
struct EngineOp
{
    /** Ops with kBlocking stall the core until the access completes. */
    static constexpr std::uint8_t kBlocking = 1u << 0;
    /** Sequential (stream-prefetchable) access pattern. */
    static constexpr std::uint8_t kSequential = 1u << 1;
    /** Atomic also sets the dense active-list byte. */
    static constexpr std::uint8_t kActivatesDense = 1u << 2;
    /** Atomic also appends to the sparse active list. */
    static constexpr std::uint8_t kActivatesSparse = 1u << 3;

    std::uint64_t addr = 0;
    VertexId vertex = 0;
    std::uint32_t arg = 0;
    EngineOpKind kind = EngineOpKind::Compute;
    AccessClass cls = AccessClass::VertexProp;
    std::uint8_t flags = 0;
    std::uint8_t operand_bytes = 0;

    static EngineOp
    compute(std::uint64_t ops)
    {
        EngineOp op;
        op.kind = EngineOpKind::Compute;
        op.arg = static_cast<std::uint32_t>(ops);
        return op;
    }

    static EngineOp
    load(std::uint64_t addr, std::uint32_t size, AccessClass cls,
         bool blocking = false, VertexId vertex = 0, bool sequential = false)
    {
        EngineOp op;
        op.kind = EngineOpKind::Load;
        op.addr = addr;
        op.arg = size;
        op.cls = cls;
        op.vertex = vertex;
        op.flags = static_cast<std::uint8_t>(
            (blocking ? kBlocking : 0) | (sequential ? kSequential : 0));
        return op;
    }

    static EngineOp
    store(std::uint64_t addr, std::uint32_t size, AccessClass cls,
          VertexId vertex = 0, bool sequential = false)
    {
        EngineOp op;
        op.kind = EngineOpKind::Store;
        op.addr = addr;
        op.arg = size;
        op.cls = cls;
        op.vertex = vertex;
        op.flags = sequential ? kSequential : std::uint8_t{0};
        return op;
    }

    static EngineOp
    srcProp(VertexId vertex, std::uint64_t addr, std::uint32_t size)
    {
        EngineOp op;
        op.kind = EngineOpKind::SrcProp;
        op.addr = addr;
        op.arg = size;
        op.vertex = vertex;
        return op;
    }

    static EngineOp
    atomic(VertexId vertex, std::uint64_t addr, std::uint32_t size,
           std::uint8_t operand_bytes, bool activates_dense,
           bool activates_sparse)
    {
        EngineOp op;
        op.kind = EngineOpKind::Atomic;
        op.addr = addr;
        op.arg = size;
        op.vertex = vertex;
        op.operand_bytes = operand_bytes;
        op.flags = static_cast<std::uint8_t>(
            (activates_dense ? kActivatesDense : 0) |
            (activates_sparse ? kActivatesSparse : 0));
        return op;
    }

    /** Expand an Atomic op into the AtomicRequest form machines route
     *  internally. */
    AtomicRequest
    toAtomicRequest(unsigned core) const
    {
        AtomicRequest r;
        r.core = core;
        r.vertex = vertex;
        r.addr = addr;
        r.size = arg;
        r.operand_bytes = operand_bytes;
        r.activates_dense = (flags & kActivatesDense) != 0;
        r.activates_sparse = (flags & kActivatesSparse) != 0;
        return r;
    }
};

static_assert(sizeof(EngineOp) <= 24, "EngineOp must stay compact");

} // namespace omega

#endif // OMEGA_SIM_ENGINE_OPS_HH
