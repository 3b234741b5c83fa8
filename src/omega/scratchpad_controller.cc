/**
 * @file
 * Scratchpad controller implementation.
 */

#include "omega/scratchpad_controller.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/fault.hh"
#include "util/logging.hh"

namespace omega {

namespace {

/** log2 of a power of two, or the sentinel for everything else. */
std::uint8_t
shiftOf(std::uint64_t v, std::uint8_t sentinel)
{
    if (v == 0 || !std::has_single_bit(v))
        return sentinel;
    return static_cast<std::uint8_t>(std::countr_zero(v));
}

} // namespace

ScratchpadController::ScratchpadController(unsigned num_scratchpads,
                                           unsigned chunk_size)
    : num_scratchpads_(num_scratchpads), chunk_size_(chunk_size)
{
    omega_assert(num_scratchpads_ > 0, "need at least one scratchpad");
    omega_assert(chunk_size_ > 0, "chunk size must be positive");
    if (std::has_single_bit(static_cast<std::uint64_t>(chunk_size_)) &&
        std::has_single_bit(static_cast<std::uint64_t>(num_scratchpads_))) {
        shifts_valid_ = true;
        chunk_shift_ = static_cast<std::uint8_t>(
            std::countr_zero(static_cast<std::uint64_t>(chunk_size_)));
        super_chunk_shift_ = static_cast<std::uint8_t>(
            chunk_shift_ +
            std::countr_zero(static_cast<std::uint64_t>(num_scratchpads_)));
    }
    memo_.assign(num_scratchpads_, kNoMemo);
}

void
ScratchpadController::configure(std::vector<PropSpec> props,
                                VertexId resident_vertices)
{
    // route() is first-match-wins, so overlapping monitored ranges would
    // silently send the shared span to the wrong prop/vertex. Reject them
    // outright; the registry bump-allocates disjoint ranges, so overlap
    // can only come from a broken layout.
    const auto span_end = [](const PropSpec &p) {
        return p.start_addr +
               static_cast<std::uint64_t>(p.count - 1) * p.stride +
               p.type_size;
    };
    for (std::size_t i = 0; i < props.size(); ++i) {
        const PropSpec &a = props[i];
        if (a.count == 0)
            continue;
        omega_assert(a.type_size > 0 && a.stride >= a.type_size,
                     "PropSpec stride must cover the entry type");
        for (std::size_t j = i + 1; j < props.size(); ++j) {
            const PropSpec &b = props[j];
            if (b.count == 0)
                continue;
            omega_assert(a.start_addr >= span_end(b) ||
                             b.start_addr >= span_end(a),
                         "overlapping monitored vtxProp ranges: props ", i,
                         " and ", j, " share addresses");
        }
    }
    props_ = std::move(props);
    resident_ = resident_vertices;

    // Compile the registers into the sorted interval table. Disjointness
    // (just checked) makes a containment match unique, so the sorted
    // search resolves exactly like the original first-match scan.
    table_.clear();
    table_.reserve(props_.size());
    for (std::uint32_t i = 0; i < props_.size(); ++i) {
        const PropSpec &p = props_[i];
        if (p.count == 0)
            continue;
        MonitorRange r;
        r.start = p.start_addr;
        r.end = span_end(p);
        r.stride = p.stride;
        r.type_size = p.type_size;
        r.stride_shift = shiftOf(p.stride, kNoShift);
        r.prop = i;
        table_.push_back(r);
    }
    std::sort(table_.begin(), table_.end(),
              [](const MonitorRange &a, const MonitorRange &b) {
                  return a.start < b.start;
              });
    // New registers invalidate every core's last-hit memo.
    memo_.assign(num_scratchpads_, kNoMemo);

    // Size the busy table for the resident range (atomics on cold
    // vertices never reach beginAtomic; the grow path covers stragglers).
    busy_until_.resize(resident_);
    busy_stamp_.resize(resident_, 0);
    bumpBusyEpoch();
    busy_live_.clear();
    max_busy_ = 0;
    conflicts_ = 0;

    // Fault degradation is per run: a fresh configuration starts with
    // every line and scratchpad on the fast path again (the injector's
    // persistent-fault counters live across runs in the campaign).
    any_demotion_ = false;
    poisoned_.clear();
    demoted_.assign(num_scratchpads_, 0);
    poisoned_count_ = 0;
    demoted_count_ = 0;
}

std::optional<SpRoute>
ScratchpadController::routeSlow(std::uint64_t addr, unsigned core) const
{
    ++slow_lookups_;
    // Last range whose start is <= addr is the only containment
    // candidate (ranges are disjoint and sorted).
    auto it = std::upper_bound(table_.begin(), table_.end(), addr,
                               [](std::uint64_t a, const MonitorRange &r) {
                                   return a < r.start;
                               });
    if (it == table_.begin())
        return std::nullopt;
    --it;
    if (addr >= it->end)
        return std::nullopt;
    memo_[core] =
        static_cast<std::uint32_t>(std::distance(table_.begin(), it));
    return resolve(*it, addr);
}

Cycles
ScratchpadController::beginAtomic(VertexId vertex, Cycles arrival,
                                  Cycles duration)
{
    if (vertex >= busy_until_.size()) {
        busy_until_.resize(vertex + 1);
        busy_stamp_.resize(vertex + 1, 0);
    }
    Cycles start = arrival;
    if (busy_stamp_[vertex] == busy_epoch_) {
        if (busy_until_[vertex] > arrival) {
            ++conflicts_;
            start = busy_until_[vertex];
        }
    } else {
        busy_stamp_[vertex] = busy_epoch_;
        busy_live_.push_back(vertex);
    }
    // Saturate: a kNeverRetire start (lost update already marked on the
    // vertex) must not wrap back into a small retireable value.
    const Cycles until = duration > kNeverRetire - start
                             ? kNeverRetire
                             : start + duration;
    busy_until_[vertex] = until;
    max_busy_ = std::max(max_busy_, until);
    return start;
}

void
ScratchpadController::retireCompleted(Cycles now)
{
    if (busy_live_.empty())
        return;
    if (max_busy_ <= now) {
        // The barrier case: every in-flight atomic has completed, so the
        // whole table retires by invalidating the epoch.
        bumpBusyEpoch();
        busy_live_.clear();
        max_busy_ = 0;
        return;
    }
    // Partial retirement: keep the in-flight entries, re-stamp them into
    // a fresh epoch so the completed ones expire.
    bumpBusyEpoch();
    std::size_t kept = 0;
    Cycles max_kept = 0;
    for (const VertexId v : busy_live_) {
        if (busy_until_[v] > now) {
            busy_stamp_[v] = busy_epoch_;
            busy_live_[kept++] = v;
            max_kept = std::max(max_kept, busy_until_[v]);
        }
    }
    busy_live_.resize(kept);
    max_busy_ = max_kept;
}

void
ScratchpadController::bumpBusyEpoch()
{
    if (++busy_epoch_ == 0) {
        // Wrapped (4B retirements): stale stamps could alias the fresh
        // epoch, so clear them and restart the sequence.
        std::fill(busy_stamp_.begin(), busy_stamp_.end(), 0u);
        busy_epoch_ = 1;
    }
}

void
ScratchpadController::poisonLine(VertexId vertex)
{
    if (poisoned_.size() <= vertex)
        poisoned_.resize(static_cast<std::size_t>(vertex) + 1, 0);
    if (poisoned_[vertex] == 0) {
        poisoned_[vertex] = 1;
        ++poisoned_count_;
        any_demotion_ = true;
        // Every core's memo may point at a range containing the vertex;
        // memos cache ranges, not vertices, so they stay valid — resolve()
        // re-checks the poison flag on every hit.
    }
}

void
ScratchpadController::demoteScratchpad(unsigned sp)
{
    if (demoted_.size() <= sp)
        demoted_.resize(sp + 1, 0);
    if (demoted_[sp] == 0) {
        demoted_[sp] = 1;
        ++demoted_count_;
        any_demotion_ = true;
    }
}

void
ScratchpadController::markLost(VertexId vertex)
{
    if (vertex >= busy_until_.size()) {
        busy_until_.resize(vertex + 1);
        busy_stamp_.resize(vertex + 1, 0);
    }
    if (busy_stamp_[vertex] != busy_epoch_) {
        busy_stamp_[vertex] = busy_epoch_;
        busy_live_.push_back(vertex);
    }
    busy_until_[vertex] = kNeverRetire;
    max_busy_ = kNeverRetire;
}

std::vector<VertexId>
ScratchpadController::stuckVertices(Cycles now,
                                    std::size_t max_report) const
{
    std::vector<VertexId> out;
    for (const VertexId v : busy_live_) {
        if (busy_stamp_[v] == busy_epoch_ && busy_until_[v] > now) {
            out.push_back(v);
            if (out.size() >= max_report)
                break;
        }
    }
    return out;
}

void
ScratchpadController::visit(FieldVisitor &v)
{
    v.state(std::span(memo_));
    v.state(slow_lookups_);
    v.counter("conflicts", conflicts_,
              "atomics serialized behind a same-vertex in-flight op");
    // Busy table, canonically: the live entries with their completion
    // times. Epoch/stamp values are an invalidation encoding, not state.
    v.custom(
        [this](SnapshotWriter &w) {
            w.putU64(busy_live_.size());
            for (const VertexId vertex : busy_live_) {
                w.putU32(vertex);
                w.putU64(busy_until_[vertex]);
            }
        },
        [this](SnapshotReader &r) {
            // Only vertices of the configured run can be busy; anything
            // else is rejected before the table grows for it.
            VertexId vertices = resident_;
            for (const PropSpec &p : props_)
                vertices = std::max(vertices, p.count);
            bumpBusyEpoch();
            busy_live_.clear();
            const std::uint64_t live = r.getCount(4 + 8);
            for (std::uint64_t i = 0; i < live; ++i) {
                const VertexId vertex = r.getU32();
                if (vertex >= vertices) {
                    throw SnapshotStateError(
                        "snapshot: busy vertex " + std::to_string(vertex) +
                        " outside the run's " + std::to_string(vertices) +
                        " vertices");
                }
                if (vertex >= busy_until_.size()) {
                    busy_until_.resize(vertex + 1);
                    busy_stamp_.resize(vertex + 1, 0);
                }
                busy_stamp_[vertex] = busy_epoch_;
                busy_until_[vertex] = r.getU64();
                busy_live_.push_back(vertex);
            }
        });
    v.state(max_busy_);
    v.state(any_demotion_);
    v.state(poisoned_);
    v.state(demoted_);
    v.state(poisoned_count_);
    v.state(demoted_count_);
}

} // namespace omega
