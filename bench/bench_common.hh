/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary builds the canonical dataset instances (seed 42),
 * applies the paper's nth-element in-degree reordering, scales the
 * machine capacities by the dataset's capacity_scale (see DESIGN.md,
 * scaling policy) and runs algorithms through the requested machine.
 */

#ifndef OMEGA_BENCH_BENCH_COMMON_HH
#define OMEGA_BENCH_BENCH_COMMON_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "graph/datasets.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/interval_stats.hh"
#include "sim/memory_system.hh"
#include "sim/params.hh"
#include "sim/profile.hh"
#include "sim/stats_report.hh"

namespace omega::trace {
class TraceSink;
}

namespace omega::bench {

/**
 * Machine flavors the benches compare. Each maps 1:1 onto a machine
 * registry entry (sim/machine_registry.hh); names, parameters and
 * construction all route through the registry, never through literals.
 */
enum class MachineKind { Baseline, Grasp, Omega, OmegaSpOnly };

/** Canonical registry name (table headers, --json "machine" fields). */
std::string machineKindName(MachineKind kind);

/** Every registered machine, in canonical sweep order. */
std::vector<MachineKind> allMachineKinds();

/** The paper's headline comparison pair: {Baseline, Omega}. Benches
 *  reproducing a paper figure iterate this instead of hard-coding the
 *  pair, so the figure set and the design-space sweeps stay in sync. */
std::vector<MachineKind> paperMachineKinds();

/** One simulated run's outcome. */
struct RunOutcome
{
    Cycles cycles = 0;
    StatsReport stats;
    MachineParams params;
    /** Headline access-profile numbers (armed profiled runs only;
     *  all-zero with profile.armed == false otherwise). */
    ProfileSummary profile;
};

/** Build + reorder the canonical instance of @p spec (cached per name). */
const Graph &datasetGraph(const DatasetSpec &spec);

/** Machine parameters for @p kind scaled for @p spec. */
MachineParams machineFor(MachineKind kind, const DatasetSpec &spec);

/**
 * Run @p kind x @p algo on the dataset's canonical graph.
 *
 * @param spec dataset (capacities scale with it).
 * @param algo algorithm.
 * @param kind machine flavor.
 * @param tweak optional parameter mutator applied before construction.
 */
RunOutcome runOn(const DatasetSpec &spec, AlgorithmKind algo,
                 MachineKind kind,
                 const std::function<void(MachineParams &)> &tweak = {});

/** Datasets compatible with @p algo (symmetry requirement). */
std::vector<DatasetSpec> datasetsFor(AlgorithmKind algo,
                                     const std::vector<DatasetSpec> &from);

/** The power-law subset used by the PageRank-centric figures. */
std::vector<DatasetSpec> powerLawDatasets();

/** Geometric mean of a non-empty vector. */
double geoMean(const std::vector<double> &values);

/**
 * Everything one finished simulation produced: the outcome plus the
 * observability artifacts rendered while the machine was alive. Value
 * type so the sweep runner can compute it on a worker thread and the
 * session can consume it later on the main thread.
 */
struct CompletedRun
{
    RunOutcome outcome;
    /** Pre-rendered (compact) machine stat-tree object, or empty. */
    std::string stat_tree_json;
    IntervalRecorder intervals;
    /** Per-run trace events (only when the session traces). */
    std::unique_ptr<trace::TraceSink> trace_sink;
    /** Pre-rendered fault campaign object (only when faults are armed). */
    std::string fault_json;
    /** Pre-rendered access-profile object (only when profiling). */
    std::string profile_json;

    /**
     * The sweep-journal record: everything recordCompleted() consumes.
     * MachineParams are not serialized — the run key that precedes the
     * record embeds their full JSON, so the reader recomputes identical
     * parameters before restoring. Trace sinks and profiles never
     * appear (those flags cannot be combined with checkpointing).
     */
    void visit(FieldVisitor &v);
};

/**
 * Machine-readable output session for a bench binary.
 *
 * Construct one at the top of main() with the program arguments; it
 * recognizes and consumes:
 *
 *   --json <path>       write a versioned JSON document with every run's
 *                       parameters, StatsReport, derived metrics, stat
 *                       tree and interval time series;
 *   --trace <path>      record simulated events and write a Chrome
 *                       trace_event file (open in Perfetto);
 *   --interval <cycles> cadence for interval samples (default 0: only
 *                       iteration/final samples are taken);
 *   --jobs <n>          execute SweepRunner-planned runs on up to n
 *                       threads (default 1: fully sequential);
 *   --faults <spec>     arm every machine runOn() builds with the fault
 *                       plan parsed from <spec> (see FaultPlan::parse);
 *   --profile <path>    arm access profiling on every machine and write a
 *                       separate versioned JSON document with each run's
 *                       reuse-distance/3C/region/phase profile. Needs an
 *                       OMEGA_PROFILE build to collect anything (a
 *                       warning and all-zero profiles otherwise);
 *   --checkpoint <path> crash-recoverable runs: flush a versioned,
 *                       checksummed snapshot of the full simulation
 *                       state to <path> at iteration boundaries (on
 *                       SIGINT/SIGTERM, and on the --checkpoint-every
 *                       cadence), and journal each completed sweep run
 *                       to <path>.journal;
 *   --checkpoint-every <n>  also checkpoint every n completed
 *                       iterations (requires --checkpoint, n >= 1);
 *   --resume <path>     resume from the snapshot at <path>: journaled
 *                       runs are served without re-simulation and the
 *                       interrupted run continues from its snapshot,
 *                       reproducing the uninterrupted session's output
 *                       byte for byte. Checkpoint flags cannot be
 *                       combined with --trace or --profile.
 *
 * Flag operands are validated: a missing operand, a malformed or
 * out-of-range number (--jobs 0), a bad fault spec, or an unrecognized
 * '-' flag prints a usage message and exits with status 2. Remaining
 * non-flag arguments are left for the bench itself (and are the only
 * ones echoed into the JSON document, so the document is independent of
 * output paths and job count).
 *
 * While a session with --json or --trace is alive, runOn() instruments
 * every machine it builds with a per-run IntervalRecorder and trace sink
 * and reports each run back here; both files are written when the
 * session is destroyed. Without those flags the session only carries the
 * job count. Runs are always recorded in the order the bench consumes
 * them (its loop order), never in execution order, so the emitted
 * documents are deterministic and byte-identical for any --jobs value.
 */
class BenchSession
{
  public:
    BenchSession(std::string bench_name, int argc, char **argv);
    ~BenchSession();
    BenchSession(const BenchSession &) = delete;
    BenchSession &operator=(const BenchSession &) = delete;

    /** The innermost live session, or nullptr. */
    static BenchSession *active();

    bool jsonEnabled() const { return !json_path_.empty(); }
    bool traceEnabled() const { return sink_ != nullptr; }
    bool profileEnabled() const { return !profile_path_.empty(); }
    /** True when runOn() should instrument machines at all. */
    bool observing() const
    {
        return jsonEnabled() || traceEnabled() || profileEnabled();
    }
    Cycles intervalCycles() const { return interval_cycles_; }
    /** Arguments the session left for the bench (echoed into JSON). */
    const std::vector<std::string> &args() const { return args_; }
    /** Worker threads for SweepRunner (--jobs, >= 1). */
    unsigned jobs() const { return jobs_; }
    /** The --faults plan, or nullptr when no campaign is armed. */
    const FaultPlan *faultPlan() const
    {
        return faults_.has_value() ? &*faults_ : nullptr;
    }

    /** True when --checkpoint and/or --resume was given. */
    bool checkpointing() const
    {
        return !checkpoint_path_.empty() || !resume_path_.empty();
    }
    /** The session's coordinator (tests install test_stop here). */
    CheckpointCoordinator &coordinator() { return coordinator_; }
    /** Test knob: make runOn() rethrow CheckpointInterrupt after
     *  flushing the partial documents instead of exiting the process. */
    void setRethrowInterrupt(bool v) { rethrow_interrupt_ = v; }
    bool rethrowInterrupt() const { return rethrow_interrupt_; }

    /** Record interrupted status and flush the partial documents
     *  ("status": "interrupted"); the caller exits or rethrows. */
    void noteInterrupted(const CheckpointInterrupt &e);
    /** Merge an aborted run's buffered trace events into the session
     *  sink (watchdog/interrupt paths, where recordCompleted() never
     *  runs). Thread-safe. */
    void mergeAbortTrace(const trace::TraceSink &sink);

    /** @name Sweep journal (crash-recoverable sweeps). @{ */
    /** Append @p run to the on-disk journal (no-op without
     *  --checkpoint). Thread-safe: SweepRunner workers call this. */
    void journalCompleted(const std::string &key, const CompletedRun &run);
    /** Remove and return the journaled record for @p key ({} if none). */
    std::vector<std::uint8_t> takeJournaled(const std::string &key);
    bool hasJournaled(const std::string &key) const;
    /** @} */

    /**
     * Fatal-fault/watchdog bailout: flush the partial --json document
     * with "status": "aborted" and the reason (plus any trace collected
     * so far) instead of losing the whole sweep, then exit(1).
     */
    [[noreturn]] void abortSession(const std::string &reason);

    /** Document schema version (bump on incompatible layout changes). */
    static constexpr int kSchemaVersion = 1;

    /**
     * Called by runOn() when the bench consumes a run: appends it to the
     * JSON document and merges its trace events, in consumption order.
     */
    void recordCompleted(const std::string &dataset,
                         const std::string &algorithm,
                         const std::string &machine,
                         const CompletedRun &run);

    /** @name Memoized results (filled by SweepRunner, read by runOn). @{ */
    void storePrewarmed(std::string key, CompletedRun run);
    const CompletedRun *findPrewarmed(const std::string &key) const;
    /** @} */

  private:
    struct RunRecord
    {
        std::string dataset;
        std::string algorithm;
        std::string machine;
        RunOutcome outcome;
        std::string stat_tree_json;
        IntervalRecorder intervals;
        std::string fault_json;
        std::string profile_json;
    };

    void writeJsonDoc() const;
    void writeTraceFile() const;
    void writeProfileDoc() const;
    std::string journalPath() const { return checkpoint_path_ + ".journal"; }

    std::string bench_name_;
    /** Arguments not consumed by the session (bench-specific). */
    std::vector<std::string> args_;
    std::string json_path_;
    std::string trace_path_;
    std::string profile_path_;
    Cycles interval_cycles_ = 0;
    unsigned jobs_ = 1;
    std::optional<FaultPlan> faults_;
    bool aborted_ = false;
    std::string abort_reason_;
    std::string checkpoint_path_;
    std::uint64_t checkpoint_every_ = 0;
    std::string resume_path_;
    CheckpointCoordinator coordinator_;
    bool rethrow_interrupt_ = false;
    bool signal_handlers_installed_ = false;
    bool interrupted_ = false;
    std::uint64_t interrupted_iteration_ = 0;
    std::string interrupted_checkpoint_;
    int interrupted_signal_ = 0;
    /** Journal records of the interrupted session, keyed by run key. */
    mutable std::mutex journal_mutex_;
    std::map<std::string, std::vector<std::uint8_t>> journal_;
    std::mutex abort_trace_mutex_;
    std::unique_ptr<trace::TraceSink> sink_;
    std::vector<RunRecord> runs_;
    std::map<std::string, CompletedRun> prewarmed_;
    BenchSession *prev_active_ = nullptr;
};

/**
 * Parallel sweep planner: runs independent (dataset, algorithm, machine)
 * simulations concurrently and memoizes the results so the bench's
 * existing sequential loops — runOn() calls interleaved with table
 * building — consume them unchanged.
 *
 * Usage: mirror the bench's runOn() calls with add() calls, then run()
 * once before the output loops. add() deduplicates by the run's full
 * identity (dataset, algorithm, machine kind, post-tweak parameters), so
 * over-planning is harmless. With --jobs 1 (the default) run() is a
 * no-op and runOn() computes on demand exactly as before; with N jobs
 * the planned runs execute on a thread pool and only the *execution*
 * is concurrent — recording order, and therefore every byte of --json
 * and --trace output, is identical for any job count.
 */
class SweepRunner
{
  public:
    /** Job count from the active BenchSession (1 when none is live). */
    SweepRunner();
    /** Explicit job count (tests). */
    explicit SweepRunner(unsigned jobs);

    /** Plan one run; mirrors runOn()'s arguments. */
    void add(const DatasetSpec &spec, AlgorithmKind algo, MachineKind kind,
             const std::function<void(MachineParams &)> &tweak = {});

    /** Execute all planned runs (up to jobs() at a time) and memoize. */
    void run();

    unsigned jobs() const { return jobs_; }
    std::size_t pending() const { return planned_.size(); }

  private:
    struct PlannedRun
    {
        DatasetSpec spec;
        AlgorithmKind algo;
        MachineKind kind;
        std::function<void(MachineParams &)> tweak;
        std::string key;
    };

    unsigned jobs_;
    std::vector<PlannedRun> planned_;
};

/**
 * A counting-only MemorySystem for the profiling figures (4b / 5): it
 * tracks vtxProp access distribution with no timing model, so full
 * algorithm x dataset sweeps stay cheap.
 */
class ProfileMachine : public MemorySystem
{
  public:
    explicit ProfileMachine(const MachineParams &params)
        : params_(params)
    {
    }

    void configure(const MachineConfig &config) override
    {
        config_ = config;
    }
    void
    replayOps(unsigned, std::span<const EngineOp> ops) override
    {
        for (const EngineOp &op : ops) {
            switch (op.kind) {
              case EngineOpKind::Compute:
                stats_.instructions += op.arg;
                break;
              case EngineOpKind::Load:
              case EngineOpKind::Store:
                ++stats_.l1_accesses; // total memory operations
                if (op.cls == AccessClass::VertexProp)
                    count(op.vertex);
                break;
              case EngineOpKind::SrcProp:
                ++stats_.l1_accesses;
                count(op.vertex);
                break;
              case EngineOpKind::Atomic:
                ++stats_.l1_accesses;
                ++stats_.atomics_total;
                count(op.vertex);
                break;
            }
        }
    }
    void barrier() override {}
    void endIteration() override {}
    Cycles coreNow(unsigned) const override { return 0; }
    Cycles cycles() const override { return 0; }
    StatsReport report() const override { return stats_; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "profile"; }

  private:
    void
    count(VertexId vertex)
    {
        ++stats_.vtxprop_accesses;
        if (vertex < config_.hot_boundary)
            ++stats_.vtxprop_hot_accesses;
    }

    MachineParams params_;
    MachineConfig config_;
    StatsReport stats_;
};

} // namespace omega::bench

#endif // OMEGA_BENCH_BENCH_COMMON_HH
