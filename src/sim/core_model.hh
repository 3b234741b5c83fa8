/**
 * @file
 * Per-core timing model.
 *
 * Each logical core carries its own cycle clock. Instruction-equivalents
 * advance the clock by 1/issue_width each. Memory operations either block
 * (the value feeds control flow or the paper's blocking-atomic semantics)
 * or enter an overlap window bounded by the MSHR count — the OoO engine's
 * ability to keep ~mshrs independent misses in flight across loop
 * iterations. When the window is full the core stalls until the oldest
 * miss completes. Stall cycles are attributed to memory / atomic / sync
 * buckets for the Fig-3 TMAM-style breakdown.
 */

#ifndef OMEGA_SIM_CORE_MODEL_HH
#define OMEGA_SIM_CORE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <limits>

#include "sim/field_visitor.hh"
#include "sim/interval_stats.hh"
#include "sim/params.hh"
#include "util/check.hh"

namespace omega {

/** Stall attribution buckets. */
enum class StallKind : std::uint8_t { Memory, Atomic, Sync };

/** One logical core's clock and cycle accounting. */
class CoreModel
{
  public:
    /** Capacity of the inline MSHR window; params.mshrs may not exceed
     *  it. */
    static constexpr unsigned kMaxMshrs = 16;

    /** Panics unless 1 <= params.mshrs <= kMaxMshrs and
     *  params.issue_width >= 1. */
    explicit CoreModel(const MachineParams &params);

    /** Current local time. */
    Cycles now() const { return clock_; }

    /** Retire @p ops instruction-equivalents. */
    void
    compute(std::uint64_t ops)
    {
        instructions_ += ops;
        op_residue_ += ops;
        // One call per simulated edge: for the usual power-of-two issue
        // width the divide/mod pair reduces to shift/mask.
        std::uint64_t cycles;
        if (issue_shift_ != kNoIssueShift) {
            cycles = op_residue_ >> issue_shift_;
            op_residue_ &= issue_width_ - 1;
        } else {
            cycles = op_residue_ / issue_width_;
            op_residue_ %= issue_width_;
        }
        clock_ += cycles;
        compute_cycles_ += cycles;
        omega_check(op_residue_ < issue_width_,
                    "instruction residue must stay below the issue width");
    }

    /** Occupy the pipeline for @p cycles of useful (non-stall) work. */
    void busy(Cycles cycles)
    {
        clock_ += cycles;
        compute_cycles_ += cycles;
    }

    /**
     * Reserve an issue slot for an upcoming non-blocking memory
     * operation: if the overlap window is full, stall until the oldest
     * outstanding miss completes. Call BEFORE probing the memory system
     * so shared resources (DRAM queues) see the post-stall issue time.
     */
    void
    prepareIssue(StallKind kind = StallKind::Memory)
    {
        if (inflight_count_ < mshrs_)
            return; // free slot: the dominant case
        stallForOldest(kind);
    }

    /**
     * Issue a memory operation whose hierarchy latency is @p latency.
     *
     * @param latency cycles until data returns.
     * @param blocking stall the core until completion.
     * @param kind stall bucket charged for any stall incurred.
     */
    void
    issueMemory(Cycles latency, bool blocking,
                StallKind kind = StallKind::Memory)
    {
        if (blocking) {
            stallUntil(clock_ + latency, kind);
            return;
        }
        prepareIssue(kind);
        issueMemoryPrepared(latency);
    }

    /**
     * issueMemory() for a non-blocking operation whose caller already
     * ran prepareIssue() and has pushed nothing since: the window is
     * known to have a free slot, so the redundant re-check is skipped.
     * Bit-identical to issueMemory(latency, false, kind) under that
     * precondition (the second prepareIssue() would be a no-op).
     */
    void
    issueMemoryPrepared(Cycles latency)
    {
        // Branch-free push: the free slot is always written, and only a
        // miss (latency > 1) claims it and can lower the tracked minimum.
        omega_check(inflight_count_ < mshrs_,
                    "push into a full overlap window");
        const Cycles t = clock_ + latency;
        const bool miss = latency > 1;
        inflight_[inflight_count_] = t;
        inflight_count_ += miss;
        oldest_inflight_ = std::min(oldest_inflight_, miss ? t : kNoMiss);
    }

    /** Charge a fixed pipeline-hold cost (atomic serialization). */
    void serialize(Cycles cost, StallKind kind = StallKind::Atomic);

    /** Wait for all outstanding operations to complete. */
    void drain();

    /** Barrier: jump forward to @p t, charging sync stall. */
    void syncTo(Cycles t);

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t computeCycles() const { return compute_cycles_; }
    std::uint64_t memStallCycles() const { return mem_stall_cycles_; }
    std::uint64_t atomicStallCycles() const
    {
        return atomic_stall_cycles_;
    }
    std::uint64_t syncStallCycles() const { return sync_stall_cycles_; }
    /** The four TMAM buckets, for an interval sample. */
    CoreIntervalStats
    intervalStats() const
    {
        return {compute_cycles_, mem_stall_cycles_, atomic_stall_cycles_,
                sync_stall_cycles_};
    }

    /**
     * Identify this core for event tracing (machine pid, core-index tid).
     * Until called, the core emits no trace events.
     */
    void setTraceIds(int pid, int tid)
    {
        trace_pid_ = pid;
        trace_tid_ = tid;
    }

    /**
     * Counters, the clock and the MSHR window's live completion times in
     * their exact (unordered) slot order — future window compactions
     * scan that order, so it must survive a round trip verbatim. A
     * restored window longer than the MSHR count is rejected before a
     * slot is written. Issue width and MSHR count are constructor state.
     */
    void visit(FieldVisitor &v);

  private:
    /** Advance the clock to @p t, charging the gap to @p kind. */
    void
    stallUntil(Cycles t, StallKind kind)
    {
        if (t <= clock_)
            return; // already past the completion time: no stall
        stallSlow(t, kind);
    }
    /** Stall bookkeeping (trace event + bucket attribution). */
    void stallSlow(Cycles t, StallKind kind);
    /** Full overlap window: wait for the oldest miss, drop completed. */
    void stallForOldest(StallKind kind);

    unsigned issue_width_;
    unsigned mshrs_;
    /** log2(issue_width_), or kNoIssueShift when it is not a pow2. */
    static constexpr std::uint8_t kNoIssueShift = 0xFF;
    std::uint8_t issue_shift_ = kNoIssueShift;
    int trace_pid_ = 0;
    int trace_tid_ = 0;
    Cycles clock_ = 0;
    /** Fractional instruction residue (sub-cycle issue accounting). */
    std::uint64_t op_residue_ = 0;
    /** Sentinel completion time: no outstanding miss. */
    static constexpr Cycles kNoMiss = std::numeric_limits<Cycles>::max();
    /**
     * Completion times of outstanding misses in slots
     * [0, inflight_count_), unordered. Bounded by mshrs_ (single
     * digits), so linear scans beat a heap; a fixed inline array keeps
     * every push and compaction free of allocation and size checks.
     */
    Cycles inflight_[kMaxMshrs] = {};
    unsigned inflight_count_ = 0;
    /** Minimum of the live slots, or kNoMiss when empty — kept in step
     *  by every push/compaction so a full window stalls without a
     *  scan. */
    Cycles oldest_inflight_ = kNoMiss;
    std::uint64_t instructions_ = 0;
    std::uint64_t compute_cycles_ = 0;
    std::uint64_t mem_stall_cycles_ = 0;
    std::uint64_t atomic_stall_cycles_ = 0;
    std::uint64_t sync_stall_cycles_ = 0;
};

} // namespace omega

#endif // OMEGA_SIM_CORE_MODEL_HH
