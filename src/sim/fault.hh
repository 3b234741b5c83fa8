/**
 * @file
 * Seeded, deterministic fault injection for the machine models.
 *
 * A FaultPlan is a compact, fully reproducible campaign recipe: a seed
 * plus per-kind rates and recovery knobs. A FaultInjector armed with a
 * plan sits beside a machine and is consulted at the component hook
 * sites (scratchpad reads, PISC offload delivery, crossbar packets, DRAM
 * channel occupancy). Each fault kind draws from its own xoshiro stream
 * (seed XOR a kind salt), so the decision sequence of one kind is
 * independent of how often the others are consulted — the injected-event
 * trace is a pure function of (plan, simulated event sequence).
 *
 * Machines without an armed plan never construct an injector: every hook
 * site is guarded by a null pointer check, so the unarmed hot path is a
 * single never-taken branch and the simulated results (and the pinned
 * golden digest) are untouched.
 *
 * Recovery semantics implemented on top (see the machines):
 *  - NACKed PISC offloads retry with bounded exponential backoff; with
 *    retries disabled the update is LOST and its busy-table entry is
 *    stamped kNeverRetire so the forward-progress watchdog reports it
 *    instead of the run silently hanging or corrupting.
 *  - Scratchpad ECC errors retry the read; a line exceeding the
 *    persistent threshold is poisoned (routed back to the cache path)
 *    and the value re-fetched from memory.
 *  - A scratchpad accumulating persistent faults is demoted entirely:
 *    the run completes correctly on the baseline cache hierarchy.
 */

#ifndef OMEGA_SIM_FAULT_HH
#define OMEGA_SIM_FAULT_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.hh"
#include "sim/field_visitor.hh"
#include "sim/params.hh"
#include "util/rng.hh"

namespace omega {

class JsonWriter;

/**
 * Completion sentinel of a lost fire-and-forget update: the busy-table
 * entry never retires, which is exactly what the watchdog looks for.
 */
inline constexpr Cycles kNeverRetire = ~Cycles{0};

/** Injectable fault kinds (one independent random stream each). */
enum class FaultKind : std::uint8_t
{
    SpEccError, ///< scratchpad line ECC error on a read
    PiscNack,   ///< offloaded atomic update dropped/NACKed by the PISC
    XbarDrop,   ///< crossbar packet dropped (retransmitted)
    XbarDelay,  ///< crossbar packet delayed
    DramStall,  ///< DRAM channel stalled (refresh/thermal event)
};

/** Number of FaultKind values (stream array size). */
inline constexpr unsigned kNumFaultKinds = 5;

/** Printable kind name. */
const char *faultKindName(FaultKind kind);

/**
 * A reproducible fault campaign: seed, rates, recovery knobs. Rates are
 * per consultation of the corresponding hook site (per scratchpad read,
 * per offload delivery, per crossbar packet, per DRAM transfer).
 */
struct FaultPlan
{
    /** Seed for every fault stream. */
    std::uint64_t seed = 1;

    /** @name Per-event fault probabilities, each in [0, 1]. @{ */
    double sp_ecc_rate = 0.0;
    double pisc_nack_rate = 0.0;
    double xbar_drop_rate = 0.0;
    double xbar_delay_rate = 0.0;
    double dram_stall_rate = 0.0;
    /** @} */

    /** Extra latency of one delayed crossbar packet. */
    Cycles xbar_delay_cycles = 32;
    /** Length of one injected DRAM channel stall. */
    Cycles dram_stall_cycles = 256;

    /** Retry NACKed offloads / ECC reads; off turns NACKs into LOST
     *  updates (watchdog fodder) and ECC errors into direct re-fetches. */
    bool retries_enabled = true;
    /** Bounded retry budget per faulted operation. */
    unsigned max_retries = 8;
    /** Base backoff before the first resend; doubles per attempt. */
    Cycles retry_backoff = 16;

    /** ECC errors on one line before it is poisoned (>= 1). */
    unsigned line_fault_threshold = 3;
    /** Persistent line faults homed on one scratchpad before the whole
     *  scratchpad is demoted to the cache path (>= 1). */
    unsigned sp_fault_threshold = 4;

    /** Forward-progress budget per barrier-to-barrier phase; 0 disables
     *  the watchdog. EngineOptions::watchdog_cycles overrides this. */
    Cycles watchdog_cycles = 0;

    /** Test hook: every offload delivery NACKs (deterministic hangs). */
    bool nack_always = false;

    /** True when any fault can actually fire. */
    bool armed() const;

    /** Canonical one-line "key=value,..." form; parse(describe()) is the
     *  identity, so a campaign is reproducible from its printed plan. */
    std::string describe() const;

    /**
     * Parse a "key=value,key=value" spec (the --faults operand). Keys:
     * seed, ecc, nack, drop, delay, dram, delay-cycles, stall-cycles,
     * retries, backoff, line-threshold, sp-threshold, watchdog,
     * nack-always, no-retry. Returns nullopt and sets @p error on any
     * unknown key, malformed number, negative value or out-of-range rate.
     */
    static std::optional<FaultPlan> parse(const std::string &spec,
                                          std::string *error);
};

/** One injected event, as recorded in the deterministic trace. */
struct FaultEvent
{
    FaultKind kind = FaultKind::SpEccError;
    /** Component index: scratchpad/PISC id, DRAM channel, 0 for xbar. */
    unsigned component = 0;
    /** Vertex involved (0 when not applicable). */
    VertexId vertex = 0;
    /** Simulated time of the event. */
    Cycles at = 0;
};

/** Aggregate campaign counters (registered as a lazy stat group). */
struct FaultCounters
{
    std::uint64_t sp_ecc_errors = 0;
    std::uint64_t pisc_nacks = 0;
    std::uint64_t xbar_drops = 0;
    std::uint64_t xbar_delays = 0;
    std::uint64_t dram_stalls = 0;
    std::uint64_t retries = 0;
    std::uint64_t lost_updates = 0;
    std::uint64_t degraded_atomics = 0;
    std::uint64_t lines_poisoned = 0;
    std::uint64_t sp_demotions = 0;
    std::uint64_t refetches = 0;
    std::uint64_t injected_delay_cycles = 0;
};

/**
 * Thrown by a machine when the forward-progress watchdog trips. what()
 * carries the one-line reason followed by the diagnostic state dump
 * (per-core clocks/instructions, busy-table contents, engine state,
 * injected-fault summary).
 */
class WatchdogError : public std::runtime_error
{
  public:
    explicit WatchdogError(const std::string &dump)
        : std::runtime_error(dump)
    {
    }
};

/**
 * Draw-and-record engine for one machine's campaign. Single-threaded,
 * like the machine it serves. All draw methods record a FaultEvent (and
 * fold it into the running trace digest) when they fire.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    const FaultPlan &plan() const { return plan_; }

    /** @name Hook-site draws. @{ */
    /** ECC error on a read of @p vertex's line in scratchpad @p sp? */
    bool spEccError(unsigned sp, VertexId vertex, Cycles now);
    /** Offload delivery to PISC @p pisc NACKed? */
    bool piscNack(unsigned pisc, VertexId vertex, Cycles now);
    /**
     * Crossbar faults for one packet at @p now: dropped packets cost
     * @p retransmit_cycles each (bounded consecutive redraws), a delayed
     * packet costs the plan's xbar_delay_cycles. Returns the total extra
     * latency (0 almost always).
     */
    Cycles xbarPacketFaults(Cycles now, Cycles retransmit_cycles);
    /** Injected stall on DRAM @p channel (0 almost always). */
    Cycles dramStall(unsigned channel, Cycles now);
    /** @} */

    /** @name Recovery bookkeeping (machines call these). @{ */
    /** A faulted operation was retried (recorded in the trace). */
    void recordRetry(FaultKind kind, unsigned component, VertexId vertex,
                     Cycles at);
    /** A fire-and-forget update was lost (retries disabled). */
    void recordLostUpdate(unsigned pisc, VertexId vertex, Cycles at);
    /** An atomic fell back to the core/cache path after retry exhaustion. */
    void recordDegradedAtomic(unsigned pisc, VertexId vertex, Cycles at);
    /** A poisoned line's value was re-fetched from memory. */
    void recordRefetch(unsigned sp, VertexId vertex, Cycles at);
    /** A line was poisoned (routed back to the cache path). */
    void recordLinePoisoned(unsigned sp, VertexId vertex, Cycles at);
    /** A whole scratchpad was demoted to the cache path. */
    void recordDemotion(unsigned sp, Cycles at);
    /**
     * Count an ECC error against @p vertex's line; true once the line
     * crossed the persistent threshold and must be poisoned.
     */
    bool registerLineError(VertexId vertex);
    /**
     * Count a persistent fault against scratchpad @p sp; true exactly
     * once, when the scratchpad crosses the demotion threshold.
     */
    bool registerScratchpadFault(unsigned sp);
    /** @} */

    const FaultCounters &counters() const { return counters_; }
    /** Recorded events (capped at kMaxRecordedEvents; counters and the
     *  digest keep running past the cap). */
    const std::vector<FaultEvent> &events() const { return events_; }
    /** Total events injected (not capped). */
    std::uint64_t totalEvents() const { return total_events_; }
    /** FNV-1a over every injected event — the determinism fingerprint:
     *  same plan + same simulated run => same digest. */
    std::uint64_t traceDigest() const { return trace_digest_; }

    /** One-line human summary (debug dumps). */
    std::string summary() const;
    /** Emit counters + digest as a JSON object (bench --json). */
    void writeJson(JsonWriter &w) const;
    /**
     * The plan (config, as its canonical describe() string — resuming
     * under a different campaign would silently change every later
     * draw), every random stream, the counters, the recorded event trace
     * and the persistent-fault maps.
     */
    void visit(FieldVisitor &v);

    /** Recorded-trace cap; see events(). */
    static constexpr std::size_t kMaxRecordedEvents = 1u << 16;

  private:
    void record(FaultKind kind, unsigned component, VertexId vertex,
                Cycles at);
    Rng &stream(FaultKind kind)
    {
        return streams_[static_cast<unsigned>(kind)];
    }

    FaultPlan plan_;
    Rng streams_[kNumFaultKinds];
    FaultCounters counters_;
    std::vector<FaultEvent> events_;
    std::uint64_t total_events_ = 0;
    std::uint64_t trace_digest_;
    /** ECC error count per line (persistent-fault tracking). */
    std::vector<std::uint32_t> line_errors_;
    /** Persistent-fault count per scratchpad. */
    std::vector<std::uint32_t> sp_faults_;
};

} // namespace omega

#endif // OMEGA_SIM_FAULT_HH
