/**
 * @file
 * Aggregated simulation statistics.
 *
 * Every machine fills one StatsReport per run; the bench harnesses read the
 * derived metrics (hit rates, traffic volumes, bandwidth utilization,
 * TMAM-like cycle breakdown) to regenerate the paper's figures.
 */

#ifndef OMEGA_SIM_STATS_REPORT_HH
#define OMEGA_SIM_STATS_REPORT_HH

#include <cstdint>
#include <vector>

#include "sim/params.hh"

namespace omega {

class FieldVisitor;
class JsonWriter;
struct StatsReport;

/** How a counter combines across reports (accumulate / interval deltas). */
enum class StatKind : std::uint8_t
{
    /** Plain event count: merging sums, interval deltas subtract. */
    Sum,
    /** High-water mark: merging takes the max; deltas keep the
     *  cumulative value (a max has no meaningful per-interval delta). */
    Max,
    /** A point in time (cycles): merging keeps ours, deltas subtract. */
    Time,
};

/** One entry of the reflection table over StatsReport's counters. */
struct StatsField
{
    const char *name;
    std::uint64_t StatsReport::*member;
    StatKind kind;
};

/** Flat counter bundle; all fields are totals across cores/banks. */
struct StatsReport
{
    /** End-to-end simulated cycles. */
    Cycles cycles = 0;
    /** Instruction-equivalents retired (compute events). */
    std::uint64_t instructions = 0;

    /** @name Cache hierarchy. @{ */
    std::uint64_t l1_accesses = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t dirty_forwards = 0;
    /** @} */

    /** @name Scratchpad / PISC / SVB (zero on baseline). @{ */
    std::uint64_t sp_accesses = 0;
    std::uint64_t sp_local = 0;
    std::uint64_t sp_remote = 0;
    std::uint64_t svb_hits = 0;
    std::uint64_t svb_misses = 0;
    std::uint64_t pisc_ops = 0;
    std::uint64_t pisc_busy_cycles = 0;
    /** Busiest single engine (hub-concentration bottleneck). */
    std::uint64_t pisc_max_busy_cycles = 0;
    std::uint64_t pisc_blocked_conflicts = 0;
    /** @} */

    /** @name Atomics. @{ */
    std::uint64_t atomics_total = 0;
    std::uint64_t atomics_offloaded = 0;
    std::uint64_t atomics_on_core = 0;
    /** @} */

    /** @name On-chip traffic (crossbar). @{ */
    std::uint64_t onchip_bytes = 0;
    std::uint64_t onchip_flits = 0;
    std::uint64_t onchip_packets = 0;
    /** @} */

    /** @name DRAM. @{ */
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
    std::uint64_t dram_queue_cycles = 0;
    std::uint64_t dram_max_queue = 0;
    /** @} */

    /** @name Per-core cycle accounting (summed over cores). @{ */
    std::uint64_t compute_cycles = 0;
    std::uint64_t mem_stall_cycles = 0;
    std::uint64_t atomic_stall_cycles = 0;
    std::uint64_t sync_stall_cycles = 0;
    /** @} */

    /** @name vtxProp access distribution (Fig 4b / Fig 5). @{ */
    std::uint64_t vtxprop_accesses = 0;
    std::uint64_t vtxprop_hot_accesses = 0;
    /** @} */

    /** @name Derived metrics. @{ */
    double l1HitRate() const;
    double l2HitRate() const;
    /** "Last-level storage" hit rate: L2 + scratchpads combined (Fig 15). */
    double lastLevelHitRate() const;
    std::uint64_t dramBytes() const
    {
        return dram_read_bytes + dram_write_bytes;
    }
    /** Achieved DRAM bandwidth in GB/s for @p clock_ghz cores (Fig 16). */
    double dramBandwidthGBs(double clock_ghz) const;
    /** Fraction of peak DRAM bandwidth achieved. */
    double dramBandwidthUtilization(const MachineParams &params) const;
    /** Fraction of cycles stalled on memory (Fig 3 proxy). */
    double memoryBoundFraction() const;
    double hotVertexAccessFraction() const;
    /** @} */

    /**
     * The reflection table: every counter above, with its merge kind.
     * accumulate/deltaFrom/writeJson/visit all iterate this table, so a
     * new counter added here is automatically handled everywhere.
     */
    static const std::vector<StatsField> &fields();

    /**
     * Merge another report's counters into this one: Sum fields add,
     * Max fields (pisc_max_busy_cycles, dram_max_queue) take the max,
     * and `cycles` (a time, not a counter) is left alone.
     */
    void accumulate(const StatsReport &other);

    /**
     * Per-interval delta against an earlier snapshot of the same run:
     * Sum fields and `cycles` subtract; Max fields carry the cumulative
     * high-water mark through unchanged.
     */
    StatsReport deltaFrom(const StatsReport &prev) const;

    /** Emit all counters as one JSON object value. */
    void writeJson(JsonWriter &w) const;

    /**
     * Snapshot fields, through the reflection table with the field
     * count first as a config, so a report saved by a build with a
     * different counter set is rejected as a state error instead of
     * silently shearing fields.
     */
    void visit(FieldVisitor &v);
};

} // namespace omega

#endif // OMEGA_SIM_STATS_REPORT_HH
