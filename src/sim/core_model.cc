/**
 * @file
 * Core timing model implementation.
 */

#include "sim/core_model.hh"

#include <algorithm>
#include <bit>

#include "util/check.hh"
#include "util/trace.hh"

namespace omega {

namespace {

const char *
stallEventName(StallKind kind)
{
    switch (kind) {
      case StallKind::Memory: return "stall.memory";
      case StallKind::Atomic: return "stall.atomic";
      case StallKind::Sync: return "stall.sync";
    }
    return "stall";
}

} // namespace

CoreModel::CoreModel(const MachineParams &params)
    : issue_width_(params.issue_width), mshrs_(params.mshrs)
{
    // A zero-MSHR window would stall the first non-blocking issue to the
    // kNoMiss sentinel, and a zero issue width divides by zero.
    omega_assert(mshrs_ >= 1 && mshrs_ <= kMaxMshrs,
                 "core MSHR count must be in [1, ", kMaxMshrs, "], got ",
                 mshrs_);
    omega_assert(issue_width_ >= 1, "core issue width must be at least 1");
    if (std::has_single_bit(static_cast<std::uint64_t>(issue_width_))) {
        issue_shift_ = static_cast<std::uint8_t>(
            std::countr_zero(static_cast<std::uint64_t>(issue_width_)));
    }
}

void
CoreModel::stallSlow(Cycles t, StallKind kind)
{
    const Cycles stall = t - clock_;
    if (trace_pid_ > 0) {
        trace::emitComplete(stallEventName(kind), "stall", trace_pid_,
                            trace_tid_, clock_, stall);
    }
    clock_ = t;
    switch (kind) {
      case StallKind::Memory:
        mem_stall_cycles_ += stall;
        break;
      case StallKind::Atomic:
        atomic_stall_cycles_ += stall;
        break;
      case StallKind::Sync:
        sync_stall_cycles_ += stall;
        break;
    }
    // The clock only ever advances by attributed cycles, so the buckets
    // must reconstruct it exactly — a broken stall attribution shows up
    // here at the first mischarged cycle, not in the end-of-run report.
    omega_check(clock_ == compute_cycles_ + mem_stall_cycles_ +
                              atomic_stall_cycles_ + sync_stall_cycles_,
                "core clock diverged from its stall-bucket decomposition");
}

void
CoreModel::stallForOldest(StallKind kind)
{
    // Window full: wait for the oldest outstanding miss (tracked
    // incrementally at push time), then drop every completion the stall
    // covered (there may be several at equal times) in one stable
    // compacting pass that also recomputes the tracked minimum. The pass
    // is branch-free — every entry is written to the live cursor, which
    // advances only past entries still in flight — because whether a
    // given miss has completed is data-dependent and mispredicts often.
    stallUntil(oldest_inflight_, kind);
    unsigned live = 0;
    Cycles oldest = kNoMiss;
    for (unsigned i = 0; i < inflight_count_; ++i) {
        const Cycles t = inflight_[i];
        const bool pending = t > clock_;
        inflight_[live] = t;
        live += pending;
        oldest = std::min(oldest, pending ? t : kNoMiss);
    }
    inflight_count_ = live;
    oldest_inflight_ = oldest;
    omega_check(inflight_count_ < mshrs_,
                "overlap window still full after stalling for the "
                "oldest miss");
}

void
CoreModel::serialize(Cycles cost, StallKind kind)
{
    stallUntil(clock_ + cost, kind);
}

void
CoreModel::drain()
{
    // Stall through completions oldest-first so the trace shows the same
    // stall segments the ordered queue produced.
    Cycles *const end = inflight_ + inflight_count_;
    std::sort(inflight_, end);
    for (const Cycles *t = inflight_; t != end; ++t)
        stallUntil(*t, StallKind::Memory);
    inflight_count_ = 0;
    oldest_inflight_ = kNoMiss;
}

void
CoreModel::syncTo(Cycles t)
{
    drain();
    omega_check(inflight_count_ == 0,
                "outstanding misses survived the pre-barrier drain");
    stallUntil(t, StallKind::Sync);
    omega_check(clock_ >= t, "core clock behind the barrier time");
}

void
CoreModel::visit(FieldVisitor &v)
{
    v.state(clock_);
    v.state(op_residue_);
    v.state(std::span<Cycles>(inflight_, mshrs_), inflight_count_);
    v.state(oldest_inflight_);
    v.counter("instructions", instructions_,
              "instruction-equivalents retired");
    v.counter("compute_cycles", compute_cycles_, "cycles doing useful work");
    v.counter("mem_stall_cycles", mem_stall_cycles_,
              "cycles stalled on memory");
    v.counter("atomic_stall_cycles", atomic_stall_cycles_,
              "cycles stalled on atomics");
    v.counter("sync_stall_cycles", sync_stall_cycles_,
              "cycles stalled at barriers");
}

} // namespace omega
