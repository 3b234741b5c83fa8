/**
 * @file
 * Interval time-series statistics.
 *
 * A flat end-of-run StatsReport hides the dynamics the paper argues
 * about — per-iteration DRAM pressure, PISC hub-concentration bursts,
 * stall-phase transitions. An IntervalRecorder attached to a machine
 * (MemorySystem::attachIntervalRecorder) receives cumulative snapshots at
 * two kinds of boundaries:
 *
 *  - cadence: the first barrier at or after every N simulated cycles
 *    (checked at barriers because that is when the machine's global clock
 *    advances; per-event checks would cost hot-path work for nothing);
 *  - iteration: every engine iteration / frontier boundary
 *    (MemorySystem::endIteration), where the algorithm's phase structure
 *    lives.
 *
 * Each sample stores the cumulative report, the delta against the
 * previous sample, and per-component breakdowns (per-core TMAM stall
 * buckets, per-engine PISC busy cycles, per-scratchpad access counts), so
 * summing every sample's delta reproduces the final StatsReport exactly
 * (StatKind::Sum fields) — the accounting identity the tests enforce.
 */

#ifndef OMEGA_SIM_INTERVAL_STATS_HH
#define OMEGA_SIM_INTERVAL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats_report.hh"

namespace omega {

class FieldVisitor;
class JsonWriter;

/** Why a sample was taken. */
enum class SampleKind : std::uint8_t
{
    Cadence,   ///< global clock crossed the next cadence multiple
    Iteration, ///< engine iteration / frontier boundary
    Final,     ///< end of run (taken by the harness after the last phase)
};

const char *sampleKindName(SampleKind kind);

/** Per-core cumulative TMAM-style cycle buckets at a sample point. */
struct CoreIntervalStats
{
    std::uint64_t compute_cycles = 0;
    std::uint64_t mem_stall_cycles = 0;
    std::uint64_t atomic_stall_cycles = 0;
    std::uint64_t sync_stall_cycles = 0;

    void visit(FieldVisitor &v);
};

/** One point of the time series. All component vectors are cumulative. */
struct IntervalSample
{
    /** Simulated time of the sample (machine global clock). */
    Cycles t = 0;
    SampleKind kind = SampleKind::Cadence;
    /** Completed engine iterations at sample time. */
    std::uint64_t iteration = 0;
    /** Cumulative counters at @ref t. */
    StatsReport cum;
    /** Delta against the previous sample (see StatsReport::deltaFrom). */
    StatsReport delta;
    /** Per-core cycle accounting (empty if the machine has none). */
    std::vector<CoreIntervalStats> cores;
    /** Per-engine cumulative PISC busy cycles (OMEGA only). */
    std::vector<std::uint64_t> pisc_busy_cycles;
    /** Per-scratchpad cumulative accesses (OMEGA only). */
    std::vector<std::uint64_t> sp_accesses;

    void visit(FieldVisitor &v);
};

/**
 * Accumulates the per-run time series. Attach to a machine before the
 * run; the machine pushes samples, the harness reads them back (and
 * serializes them into the bench JSON document).
 */
class IntervalRecorder
{
  public:
    /**
     * @param cadence_cycles sample at the first barrier at or after every
     *        multiple of this many simulated cycles; 0 disables cadence
     *        sampling (iteration samples still fire).
     */
    explicit IntervalRecorder(Cycles cadence_cycles = 0);

    /** True if the global clock reached the next cadence point. */
    bool
    cadenceDue(Cycles now) const
    {
        return cadence_ != 0 && now >= next_cadence_;
    }

    /**
     * Record one sample. @p cum must be monotonically non-decreasing
     * across calls (same run, same machine).
     */
    void take(SampleKind kind, Cycles t, std::uint64_t iteration,
              const StatsReport &cum,
              std::vector<CoreIntervalStats> cores = {},
              std::vector<std::uint64_t> pisc_busy_cycles = {},
              std::vector<std::uint64_t> sp_accesses = {});

    Cycles cadence() const { return cadence_; }
    const std::vector<IntervalSample> &samples() const { return samples_; }
    bool empty() const { return samples_.empty(); }

    /**
     * Sum of all sample deltas (StatKind::Sum fields; `cycles` ends up as
     * the last sample's time). Equals the final cumulative report when
     * the run ended with a Final sample — the accounting identity.
     */
    StatsReport deltaTotals() const;

    /** Emit the series as a JSON array of sample objects. */
    void writeJson(JsonWriter &w) const;

    /**
     * Snapshot fields: every recorded sample plus the cadence/delta
     * bookkeeping, so a resumed run's series is byte-identical to the
     * uninterrupted one. Cadence is run configuration and must match on
     * restore.
     */
    void visit(FieldVisitor &v);

  private:
    Cycles cadence_;
    Cycles next_cadence_;
    StatsReport prev_cum_;
    std::vector<IntervalSample> samples_;
};

} // namespace omega

#endif // OMEGA_SIM_INTERVAL_STATS_HH
