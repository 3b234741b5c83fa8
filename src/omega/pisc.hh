/**
 * @file
 * PISC — Processing-In-SCratchpad engine (paper section V.B).
 *
 * One PISC per scratchpad. It is a microcoded ALU: at configuration time
 * the framework writes the algorithm's atomic-update microcode (produced
 * by the translate layer) into the microcode registers; at run time the
 * sequencer executes one offloaded atomic at a time — read the vertex's
 * vtxProp line from the scratchpad, run the ALU micro-ops, write the
 * result back, optionally set the dense active bit or append to the
 * sparse active list. The engine is a single server; occupancy equals the
 * microcode length, and queueing on hot home scratchpads is modeled by
 * the busy-until clock.
 */

#ifndef OMEGA_OMEGA_PISC_HH
#define OMEGA_OMEGA_PISC_HH

#include <cstdint>

#include "graph/types.hh"
#include "sim/field_visitor.hh"
#include "sim/params.hh"

namespace omega {

class FaultInjector;

/** ALU operation classes supported by a PISC (paper Fig 9 / Table II). */
enum class PiscAluOp : std::uint8_t
{
    FpAdd,        ///< PageRank, BC accumulation
    UnsignedComp, ///< BFS parent compare-and-set
    SignedMin,    ///< SSSP / CC / Radii min-updates
    SignedAdd,    ///< TC / KC counters
    BitOr,        ///< Radii visited-mask or
    BoolComp,     ///< visited-flag compare
};

/** One scratchpad's compute engine. */
class Pisc
{
  public:
    Pisc() = default;

    /**
     * Load the microcode program for the run.
     *
     * @param program_id identifier from the microcode compiler.
     * @param program_cycles end-to-end latency of one execution.
     * @param initiation engine occupancy per execution (pipelined
     *        sequencer; defaults to the full latency if 0).
     */
    void loadMicrocode(std::uint16_t program_id, Cycles program_cycles,
                       Cycles initiation = 0);

    /**
     * Execute one offloaded atomic arriving at @p arrival (the start may
     * be deferred by the controller's same-vertex blocking — pass the
     * resolved start time). Returns the completion time (start +
     * latency); the engine is free again after the initiation interval.
     */
    Cycles execute(Cycles start);

    /** Extend the current execution (active-list append via the L1). */
    void extendBusy(Cycles extra);

    /** Next time the engine can initiate a new execution. */
    Cycles busyUntil() const { return busy_until_; }
    /** Completion time of the most recent execution (barrier bound). */
    Cycles lastCompletion() const { return last_completion_; }
    std::uint16_t programId() const { return program_id_; }
    Cycles programCycles() const { return program_cycles_; }
    Cycles initiation() const { return initiation_; }

    std::uint64_t ops() const { return ops_; }
    std::uint64_t busyCycles() const { return busy_cycles_; }
    std::uint64_t queueCycles() const { return queue_cycles_; }

    /** Arm (or disarm with nullptr) NACK injection on this engine. */
    void setFaultInjector(FaultInjector *injector, unsigned engine_id)
    {
        fault_inj_ = injector;
        fault_id_ = engine_id;
    }

    /**
     * Does delivery of an offload for @p vertex arriving at @p now NACK?
     * Always false when no injector is armed.
     */
    bool
    offerNack(VertexId vertex, Cycles now)
    {
        if (fault_inj_ == nullptr)
            return false;
        return offerNackSlow(vertex, now);
    }

    /** Engine clocks and counters; the microcode program is run
     *  configuration, re-loaded before restore. */
    void visit(FieldVisitor &v);

  private:
    bool offerNackSlow(VertexId vertex, Cycles now);

    std::uint16_t program_id_ = 0;
    Cycles program_cycles_ = 4;
    Cycles initiation_ = 4;
    Cycles busy_until_ = 0;
    Cycles last_completion_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t busy_cycles_ = 0;
    std::uint64_t queue_cycles_ = 0;
    FaultInjector *fault_inj_ = nullptr;
    unsigned fault_id_ = 0;
};

} // namespace omega

#endif // OMEGA_OMEGA_PISC_HH
