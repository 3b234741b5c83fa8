/**
 * @file
 * Scratchpad controller (paper Fig 7).
 *
 * The controller filters every request through the address-monitoring
 * registers (monitor unit): one {start_addr, type_size, stride} triple per
 * vtxProp, written by the framework's configuration code at application
 * start. A matching request is translated to a vertex id; the partition
 * unit decides which scratchpad (local or remote) is the vertex's home
 * using the chunked interleaving of section V.D; the index unit yields the
 * line within that scratchpad. The controller also blocks requests to a
 * vertex whose atomic update is still in flight on the home PISC.
 *
 * Hot-path layout: the monitor registers are compiled into a sorted
 * interval table at configure() time and each core carries a last-hit
 * memo (vtxProp sweeps are overwhelmingly sequential, so the same range
 * matches again and again); the same-vertex busy table is a flat
 * epoch-stamped array indexed by vertex id, so the common barrier-time
 * retirement is a single epoch bump.
 */

#ifndef OMEGA_OMEGA_SCRATCHPAD_CONTROLLER_HH
#define OMEGA_OMEGA_SCRATCHPAD_CONTROLLER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/types.hh"
#include "sim/field_visitor.hh"
#include "sim/memory_system.hh"
#include "sim/params.hh"

namespace omega {

/** Result of the monitor unit: which vertex/prop an address refers to. */
struct SpRoute
{
    VertexId vertex = 0;
    /** Index into the configured PropSpec list. */
    std::uint32_t prop = 0;
    /** Scratchpad (core) the vertex is homed on. */
    unsigned home = 0;
    /** Line index inside the home scratchpad. */
    VertexId line = 0;
};

/** Address filtering, partitioning and same-vertex atomic blocking. */
class ScratchpadController
{
  public:
    /**
     * @param num_scratchpads one per core.
     * @param chunk_size interleaving chunk (matched to the scheduler's
     *        OpenMP-style chunk to keep sequential sweeps local).
     */
    ScratchpadController(unsigned num_scratchpads, unsigned chunk_size);

    /**
     * Install the monitor registers for a run.
     *
     * The ranges must be pairwise disjoint: route() resolves an address
     * against the first matching register, so overlapping ranges would
     * silently mis-route every address in the shared span. Overlap is a
     * configuration bug and panics.
     *
     * @param props vtxProp ranges.
     * @param resident_vertices vertices 0..resident-1 live in scratchpads.
     */
    void configure(std::vector<PropSpec> props, VertexId resident_vertices);

    /**
     * Monitor unit: route @p addr. Returns nullopt if the address is not
     * in a monitored range or the vertex is not scratchpad-resident
     * (such requests fall through to the regular caches).
     *
     * @param core requester; selects the last-hit memo slot. The memo is
     *        pure acceleration: disjoint ranges make first-match and
     *        memo-hit resolution identical.
     */
    std::optional<SpRoute>
    route(std::uint64_t addr, unsigned core = 0) const
    {
        // Out-of-range requesters share slot 0 (memo slots are sized by
        // the scratchpad count; sharing only costs extra slow lookups).
        if (core >= memo_.size())
            core = 0;
        const std::uint32_t m = memo_[core];
        if (m < table_.size()) {
            const MonitorRange &r = table_[m];
            if (addr >= r.start && addr < r.end)
                return resolve(r, addr);
        }
        return routeSlow(addr, core);
    }

    /** Partition unit: home scratchpad of a resident vertex. */
    unsigned
    homeOf(VertexId vertex) const
    {
        if (shifts_valid_) {
            return static_cast<unsigned>((vertex >> chunk_shift_) &
                                         (num_scratchpads_ - 1));
        }
        return static_cast<unsigned>((vertex / chunk_size_) %
                                     num_scratchpads_);
    }

    /** Index unit: line index of @p vertex within its home scratchpad. */
    VertexId
    lineOf(VertexId vertex) const
    {
        if (shifts_valid_) {
            return ((vertex >> super_chunk_shift_) << chunk_shift_) +
                   (vertex & (chunk_size_ - 1));
        }
        const VertexId super_chunk = chunk_size_ * num_scratchpads_;
        return (vertex / super_chunk) * chunk_size_ +
               vertex % chunk_size_;
    }

    /** True if the vertex's vtxProp is mapped to scratchpads. */
    bool isResident(VertexId vertex) const
    {
        return vertex < resident_;
    }

    VertexId residentVertices() const { return resident_; }
    unsigned chunkSize() const { return chunk_size_; }
    const std::vector<PropSpec> &props() const { return props_; }

    /**
     * Monitor lookups that missed the per-core memo and walked the
     * interval table (counted on the cold path only — memo hits stay a
     * two-compare inline check). Sequential vtxProp sweeps should keep
     * this orders of magnitude below the access count; profiling and
     * tests use it to validate the memo-acceleration claim above.
     */
    std::uint64_t slowLookups() const { return slow_lookups_; }

    /** @name Same-vertex atomic blocking (paper section V.A). @{ */
    /**
     * Mark an atomic on @p vertex busy until @p until; returns the time
     * the new request may start (after any in-flight one on the vertex).
     */
    Cycles beginAtomic(VertexId vertex, Cycles arrival, Cycles duration);
    /** True if a request at @p now would hit a vertex mid-atomic. */
    bool
    isVertexBusy(VertexId vertex, Cycles now) const
    {
        return vertex < busy_until_.size() &&
               busy_stamp_[vertex] == busy_epoch_ &&
               busy_until_[vertex] > now;
    }
    /**
     * Drop busy entries whose atomic completed at or before @p now.
     * Called at machine barriers (every core is synced to @p now, so a
     * retired entry can never block a later request); keeps the table
     * bounded by in-flight atomics instead of every vertex ever touched.
     * At a barrier every entry has completed, so the whole table retires
     * with one epoch bump; partial retirement compacts the live list.
     */
    void retireCompleted(Cycles now);
    /** Busy-table entries currently held (tests pin boundedness). */
    std::size_t busyTableSize() const { return busy_live_.size(); }
    /** Conflicts observed (requests that had to wait). */
    std::uint64_t conflicts() const { return conflicts_; }
    /** @} */

    /** @name Fault degradation and lost-update tracking. @{ */
    /**
     * Permanently route @p vertex's line back to the cache path
     * (persistent ECC faults). route() stops matching the vertex.
     */
    void poisonLine(VertexId vertex);
    /**
     * Demote a whole scratchpad: every vertex homed on @p sp falls back
     * to the cache path for the rest of the run.
     */
    void demoteScratchpad(unsigned sp);
    /**
     * Stamp @p vertex's busy entry as never retiring: a fire-and-forget
     * update was dropped with retries disabled, so the entry survives
     * every retireCompleted() and the watchdog reports it instead of the
     * corruption going unnoticed.
     */
    void markLost(VertexId vertex);

    bool
    lineIsPoisoned(VertexId vertex) const
    {
        return vertex < poisoned_.size() && poisoned_[vertex] != 0;
    }
    bool
    scratchpadDemoted(unsigned sp) const
    {
        return sp < demoted_.size() && demoted_[sp] != 0;
    }
    std::uint64_t poisonedLines() const { return poisoned_count_; }
    unsigned demotedScratchpads() const { return demoted_count_; }
    /** Busy vertices that will never retire by @p now (watchdog dump). */
    std::vector<VertexId> stuckVertices(Cycles now,
                                        std::size_t max_report) const;
    /** @} */

    /**
     * All run-time state: memo slots, slow-lookup counter, conflict
     * counter, the busy table (canonically encoded) and the fault
     * degradation maps. The monitor table / partition config is
     * re-derived by configure() before restore; a busy vertex outside
     * the configured run is a SnapshotStateError.
     */
    void visit(FieldVisitor &v);

  private:
    /** One monitored range, sorted by start for the interval table. */
    struct MonitorRange
    {
        std::uint64_t start = 0;
        /** One past the last monitored byte. */
        std::uint64_t end = 0;
        std::uint32_t stride = 0;
        std::uint32_t type_size = 0;
        /** log2(stride), or kNoShift when the stride is not a pow2. */
        std::uint8_t stride_shift = kNoShift;
        /** Index into props_ (route() reports the configured order). */
        std::uint32_t prop = 0;
    };

    static constexpr std::uint8_t kNoShift = 0xFF;
    static constexpr std::uint32_t kNoMemo = 0xFFFFFFFF;

    /** Resolve @p addr against a range known to contain it. */
    std::optional<SpRoute>
    resolve(const MonitorRange &r, std::uint64_t addr) const
    {
        const std::uint64_t offset = addr - r.start;
        std::uint64_t vertex;
        std::uint64_t rem;
        if (r.stride_shift != kNoShift) {
            vertex = offset >> r.stride_shift;
            rem = offset & (r.stride - 1);
        } else {
            vertex = offset / r.stride;
            rem = offset % r.stride;
        }
        if (rem >= r.type_size)
            return std::nullopt; // between entries of a strided struct
        if (vertex >= resident_)
            return std::nullopt; // monitored but not scratchpad-resident
        SpRoute out;
        out.vertex = static_cast<VertexId>(vertex);
        out.prop = r.prop;
        out.home = homeOf(out.vertex);
        out.line = lineOf(out.vertex);
        // Fault degradation: poisoned lines and demoted scratchpads fall
        // back to the cache path. The guard bool keeps the fault-free hot
        // path at a single predictable branch.
        if (any_demotion_ &&
            (scratchpadDemoted(out.home) || lineIsPoisoned(out.vertex)))
            return std::nullopt;
        return out;
    }

    /** Interval-table search; refreshes @p core's memo on a match. */
    std::optional<SpRoute> routeSlow(std::uint64_t addr,
                                     unsigned core) const;

    /** Start a fresh busy-table epoch (wrap-safe). */
    void bumpBusyEpoch();

    unsigned num_scratchpads_;
    unsigned chunk_size_;
    /** Both pow2: homeOf/lineOf reduce to shift/mask. */
    bool shifts_valid_ = false;
    std::uint8_t chunk_shift_ = 0;
    std::uint8_t super_chunk_shift_ = 0;

    std::vector<PropSpec> props_;
    /** props_ compiled into disjoint intervals, sorted by start. */
    std::vector<MonitorRange> table_;
    /** Per-core last-hit indices into table_ (acceleration only). */
    mutable std::vector<std::uint32_t> memo_;
    /** Interval-table walks (routeSlow() calls); see slowLookups(). */
    mutable std::uint64_t slow_lookups_ = 0;
    VertexId resident_ = 0;

    /** Epoch-stamped busy table: entry valid iff stamp matches epoch. */
    std::vector<Cycles> busy_until_;
    std::vector<std::uint32_t> busy_stamp_;
    std::uint32_t busy_epoch_ = 1;
    /** Vertices stamped in the current epoch (busyTableSize, compaction). */
    std::vector<VertexId> busy_live_;
    /** Latest completion among live entries (barrier fast path). */
    Cycles max_busy_ = 0;
    std::uint64_t conflicts_ = 0;

    /** Any line poisoned or scratchpad demoted (guards resolve()). */
    bool any_demotion_ = false;
    /** Per-vertex poison flags (lazily sized). */
    std::vector<std::uint8_t> poisoned_;
    /** Per-scratchpad demotion flags. */
    std::vector<std::uint8_t> demoted_;
    std::uint64_t poisoned_count_ = 0;
    unsigned demoted_count_ = 0;
};

} // namespace omega

#endif // OMEGA_OMEGA_SCRATCHPAD_CONTROLLER_HH
