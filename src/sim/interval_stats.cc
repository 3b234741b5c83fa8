/**
 * @file
 * IntervalRecorder implementation.
 */

#include "sim/interval_stats.hh"

#include <string>
#include <utility>

#include "util/json.hh"

namespace omega {

const char *
sampleKindName(SampleKind kind)
{
    switch (kind) {
      case SampleKind::Cadence: return "cadence";
      case SampleKind::Iteration: return "iteration";
      case SampleKind::Final: return "final";
    }
    return "?";
}

IntervalRecorder::IntervalRecorder(Cycles cadence_cycles)
    : cadence_(cadence_cycles), next_cadence_(cadence_cycles)
{
}

void
IntervalRecorder::take(SampleKind kind, Cycles t, std::uint64_t iteration,
                       const StatsReport &cum,
                       std::vector<CoreIntervalStats> cores,
                       std::vector<std::uint64_t> pisc_busy_cycles,
                       std::vector<std::uint64_t> sp_accesses)
{
    IntervalSample s;
    s.t = t;
    s.kind = kind;
    s.iteration = iteration;
    s.cum = cum;
    s.delta = cum.deltaFrom(prev_cum_);
    s.cores = std::move(cores);
    s.pisc_busy_cycles = std::move(pisc_busy_cycles);
    s.sp_accesses = std::move(sp_accesses);
    samples_.push_back(std::move(s));
    prev_cum_ = cum;

    if (cadence_ != 0 && t >= next_cadence_) {
        // Jump past t: a long barrier can cross several cadence points,
        // which yields one sample (there was no intermediate state).
        next_cadence_ = (t / cadence_ + 1) * cadence_;
    }
}

StatsReport
IntervalRecorder::deltaTotals() const
{
    StatsReport total;
    for (const IntervalSample &s : samples_) {
        total.accumulate(s.delta);
        total.cycles += s.delta.cycles;
    }
    return total;
}

void
IntervalRecorder::writeJson(JsonWriter &w) const
{
    w.beginArray();
    for (const IntervalSample &s : samples_) {
        w.beginObject();
        w.field("t", s.t);
        w.field("kind", sampleKindName(s.kind));
        w.field("iteration", s.iteration);
        w.key("cum");
        s.cum.writeJson(w);
        w.key("delta");
        s.delta.writeJson(w);
        if (!s.cores.empty()) {
            w.key("cores").beginArray();
            for (const CoreIntervalStats &c : s.cores) {
                w.beginObject();
                w.field("compute_cycles", c.compute_cycles);
                w.field("mem_stall_cycles", c.mem_stall_cycles);
                w.field("atomic_stall_cycles", c.atomic_stall_cycles);
                w.field("sync_stall_cycles", c.sync_stall_cycles);
                w.endObject();
            }
            w.endArray();
        }
        if (!s.pisc_busy_cycles.empty()) {
            w.key("pisc_busy_cycles").beginArray();
            for (std::uint64_t v : s.pisc_busy_cycles)
                w.value(v);
            w.endArray();
        }
        if (!s.sp_accesses.empty()) {
            w.key("sp_accesses").beginArray();
            for (std::uint64_t v : s.sp_accesses)
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
}

void
IntervalRecorder::save(SnapshotWriter &w) const
{
    w.putU64(cadence_);
    w.putU64(next_cadence_);
    prev_cum_.save(w);
    w.putU64(samples_.size());
    for (const IntervalSample &s : samples_) {
        w.putU64(s.t);
        w.putU8(static_cast<std::uint8_t>(s.kind));
        w.putU64(s.iteration);
        s.cum.save(w);
        s.delta.save(w);
        w.putU64(s.cores.size());
        for (const CoreIntervalStats &c : s.cores) {
            w.putU64(c.compute_cycles);
            w.putU64(c.mem_stall_cycles);
            w.putU64(c.atomic_stall_cycles);
            w.putU64(c.sync_stall_cycles);
        }
        w.putU64Vector(s.pisc_busy_cycles);
        w.putU64Vector(s.sp_accesses);
    }
}

void
IntervalRecorder::restore(SnapshotReader &r)
{
    const Cycles cadence = r.getU64();
    if (cadence != cadence_) {
        throw SnapshotStateError(
            "snapshot: interval cadence mismatch (snapshot " +
            std::to_string(cadence) + " cycles, run configured for " +
            std::to_string(cadence_) + ")");
    }
    next_cadence_ = r.getU64();
    prev_cum_.restore(r);
    samples_.clear();
    // Counts are bounded by the bytes left before anything is reserved:
    // a sample holds at least its t, kind, iteration and three counts.
    const std::uint64_t count = r.getCount(8 + 1 + 8 + 3 * 8);
    samples_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        IntervalSample s;
        s.t = r.getU64();
        const std::uint8_t kind = r.getU8();
        if (kind > static_cast<std::uint8_t>(SampleKind::Final)) {
            throw SnapshotStateError("snapshot: unknown interval sample "
                                     "kind " + std::to_string(kind));
        }
        s.kind = static_cast<SampleKind>(kind);
        s.iteration = r.getU64();
        s.cum.restore(r);
        s.delta.restore(r);
        const std::uint64_t cores = r.getCount(4 * 8);
        s.cores.reserve(cores);
        for (std::uint64_t c = 0; c < cores; ++c) {
            CoreIntervalStats core;
            core.compute_cycles = r.getU64();
            core.mem_stall_cycles = r.getU64();
            core.atomic_stall_cycles = r.getU64();
            core.sync_stall_cycles = r.getU64();
            s.cores.push_back(core);
        }
        s.pisc_busy_cycles = r.getU64Vector();
        s.sp_accesses = r.getU64Vector();
        samples_.push_back(std::move(s));
    }
}

} // namespace omega
