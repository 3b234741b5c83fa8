/**
 * @file
 * IntervalRecorder implementation.
 */

#include "sim/interval_stats.hh"

#include <string>
#include <utility>

#include "sim/field_visitor.hh"
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
CoreIntervalStats::visit(FieldVisitor &v)
{
    v.state(compute_cycles);
    v.state(mem_stall_cycles);
    v.state(atomic_stall_cycles);
    v.state(sync_stall_cycles);
}

void
IntervalSample::visit(FieldVisitor &v)
{
    v.state(t);
    v.custom(
        [this](SnapshotWriter &w) {
            w.putU8(static_cast<std::uint8_t>(kind));
        },
        [this](SnapshotReader &r) {
            const std::uint8_t k = r.getU8();
            if (k > static_cast<std::uint8_t>(SampleKind::Final)) {
                throw SnapshotStateError("snapshot: unknown interval sample "
                                         "kind " + std::to_string(k));
            }
            kind = static_cast<SampleKind>(k);
        });
    v.state(iteration);
    cum.visit(v);
    delta.visit(v);
    v.list(cores);
    v.state(pisc_busy_cycles);
    v.state(sp_accesses);
}

void
IntervalRecorder::visit(FieldVisitor &v)
{
    v.config("interval cadence", cadence_);
    v.state(next_cadence_);
    prev_cum_.visit(v);
    v.list(samples_);
}

} // namespace omega
