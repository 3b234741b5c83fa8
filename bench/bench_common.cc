/**
 * @file
 * Bench helper implementations.
 */

#include "bench_common.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "graph/reorder.hh"
#include "sim/field_visitor.hh"
#include "sim/machine_registry.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace omega::bench {

namespace {

/** Registry entry backing a MachineKind (the only mapping point). */
const MachineRegistryEntry &
registryEntryFor(MachineKind kind)
{
    switch (kind) {
      case MachineKind::Baseline: return machineEntry("baseline");
      case MachineKind::Grasp: return machineEntry("grasp");
      case MachineKind::Omega: return machineEntry("omega");
      case MachineKind::OmegaSpOnly: return machineEntry("omega-sp-only");
    }
    panic("unknown machine kind");
}

} // namespace

std::string
machineKindName(MachineKind kind)
{
    return registryEntryFor(kind).name;
}

std::vector<MachineKind>
allMachineKinds()
{
    return {MachineKind::Baseline, MachineKind::Grasp, MachineKind::Omega,
            MachineKind::OmegaSpOnly};
}

std::vector<MachineKind>
paperMachineKinds()
{
    return {MachineKind::Baseline, MachineKind::Omega};
}

const Graph &
datasetGraph(const DatasetSpec &spec)
{
    // Guarded so SweepRunner workers can share the cache; references stay
    // valid because entries are never erased. SweepRunner materializes
    // every planned graph before spawning workers, so in practice workers
    // only take the fast lookup path.
    static std::mutex mutex;
    static std::map<std::string, Graph> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(spec.name);
    if (it == cache.end()) {
        Graph g = reorderGraph(buildDataset(spec),
                               ReorderKind::InDegreeNthElement);
        it = cache.emplace(spec.name, std::move(g)).first;
    }
    return it->second;
}

MachineParams
machineFor(MachineKind kind, const DatasetSpec &spec)
{
    return registryEntryFor(kind).make_params().scaledCapacities(
        spec.capacity_scale);
}

namespace {

BenchSession *g_active_session = nullptr;

/** Bad command line: print the message + usage to stderr and exit(2). */
[[noreturn]] void
usageError(const std::string &bench, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", bench.c_str(), msg.c_str());
    std::fprintf(stderr,
                 "usage: %s [--json <path>] [--trace <path>]"
                 " [--interval <cycles>] [--jobs <n>]"
                 " [--faults <key=value,...>] [--profile <path>]"
                 " [--checkpoint <path>] [--checkpoint-every <n>]"
                 " [--resume <path>]"
                 " [bench args...]\n",
                 bench.c_str());
    std::exit(2);
}

/** SIGINT/SIGTERM: latch for the coordinator (async-signal-safe). */
void
checkpointSignalHandler(int sig)
{
    requestCheckpointInterrupt(sig);
}

/**
 * Parse a non-negative integer flag operand. Rejects signs (a negative
 * count must not wrap to a huge unsigned value), garbage and overflow.
 */
bool
parseCount(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

void
writeParamsJson(JsonWriter &w, const MachineParams &p)
{
    w.beginObject();
    w.field("num_cores", p.num_cores);
    w.field("issue_width", p.issue_width);
    w.field("rob_size", p.rob_size);
    w.field("mshrs", p.mshrs);
    w.field("stream_prefetch", p.stream_prefetch);
    w.field("clock_ghz", p.clock_ghz);
    w.field("l1d_bytes", p.l1d.size_bytes);
    w.field("l2_bytes", p.l2.size_bytes);
    w.field("l2_latency", p.l2.latency);
    w.field("sp_total_bytes", p.sp_total_bytes);
    w.field("sp_latency", p.sp_latency);
    w.field("pisc_enabled", p.pisc_enabled);
    w.field("svb_entries", p.svb_entries);
    w.field("sp_chunk_size", p.sp_chunk_size);
    w.field("sp_word_granularity", p.sp_word_granularity);
    w.field("xbar_latency", p.xbar_latency);
    w.field("xbar_flit_bytes", p.xbar_flit_bytes);
    w.field("xbar_header_bytes", p.xbar_header_bytes);
    w.field("dram_channels", p.dram_channels);
    w.field("dram_gbs_per_channel", p.dram_gbs_per_channel);
    w.field("dram_latency", p.dram_latency);
    w.field("atomic_serialize", p.atomic_serialize);
    w.field("pisc_send_cycles", p.pisc_send_cycles);
    w.field("atomics_as_plain", p.atomics_as_plain);
    w.endObject();
}

void
writeDerivedJson(JsonWriter &w, const RunOutcome &out)
{
    const StatsReport &s = out.stats;
    w.beginObject();
    w.field("l1_hit_rate", s.l1HitRate());
    w.field("l2_hit_rate", s.l2HitRate());
    w.field("last_level_hit_rate", s.lastLevelHitRate());
    w.field("dram_bytes", s.dramBytes());
    w.field("dram_bandwidth_gbs", s.dramBandwidthGBs(out.params.clock_ghz));
    w.field("dram_bandwidth_utilization",
            s.dramBandwidthUtilization(out.params));
    w.field("memory_bound_fraction", s.memoryBoundFraction());
    w.field("hot_vertex_access_fraction", s.hotVertexAccessFraction());
    w.endObject();
}

/**
 * Full identity of a run: everything the simulation outcome depends on.
 * Post-tweak parameters are serialized so two tweaks producing the same
 * MachineParams share one memoized execution.
 */
std::string
runKey(const DatasetSpec &spec, AlgorithmKind algo, MachineKind kind,
       const MachineParams &params)
{
    std::ostringstream os;
    os << spec.name << '|' << algorithmName(algo) << '|'
       << machineKindName(kind) << '|';
    JsonWriter w(os, /*pretty=*/false);
    writeParamsJson(w, params);
    return os.str();
}

/**
 * Build the machine and run the algorithm, capturing every observability
 * artifact into the returned value. Thread-safe: all state is per-run,
 * and the trace sink is installed thread-locally for the duration.
 *
 * @param key the run's full identity (runKey()); required with @p coord.
 * @param coord per-run checkpoint coordinator, or nullptr. Only the
 *        session thread passes one — SweepRunner workers recover
 *        through the journal instead, so the coordinator's section
 *        registry is never shared across threads.
 */
CompletedRun
executeRun(const DatasetSpec &spec, AlgorithmKind algo, MachineKind kind,
           const std::function<void(MachineParams &)> &tweak, bool want_json,
           bool want_trace, Cycles interval_cycles,
           const FaultPlan *faults, bool want_profile,
           const std::string &key = {},
           CheckpointCoordinator *coord = nullptr)
{
    const Graph &g = datasetGraph(spec);
    MachineParams params = machineFor(kind, spec);
    if (tweak)
        tweak(params);

    CompletedRun run;
    run.outcome.params = params;
    std::unique_ptr<MemorySystem> m = registryEntryFor(kind).make(params);
    if (faults != nullptr)
        m->armFaults(*faults);
    if (want_profile)
        m->armProfile();

    std::optional<trace::ScopedSink> scoped;
    if (want_trace) {
        run.trace_sink = std::make_unique<trace::TraceSink>();
        scoped.emplace(run.trace_sink.get());
        m->attachTracing();
    }
    IntervalRecorder recorder(want_json ? interval_cycles : 0);
    if (want_json)
        m->attachIntervalRecorder(&recorder);

    if (coord != nullptr) {
        // Section registration order IS the serialization order:
        // intervals first (here), then engine + machine (Engine ctor),
        // then the algorithm's own functional state. The algorithm arms
        // the coordinator with maybeRestore() once everything is
        // registered.
        coord->beginRun(key);
        coord->registerSection("intervals", [&recorder](FieldVisitor &v) {
            recorder.visit(v);
        });
    }

    EngineOptions opts;
    opts.checkpoint = coord;
    try {
        run.outcome.cycles = runAlgorithmOnMachine(algo, g, m.get(), opts);
    } catch (const WatchdogError &e) {
        // The machine dies with this scope, so the post-mortem artifacts
        // must be composed here: merge the run's buffered trace events
        // into the session sink (they were silently dropped before), and
        // flush a non-resumable stuck-state snapshot whose path rides in
        // the error report.
        if (run.trace_sink != nullptr) {
            if (BenchSession *s = BenchSession::active())
                s->mergeAbortTrace(*run.trace_sink);
        }
        std::string report = e.what();
        if (coord != nullptr && coord->savingEnabled()) {
            const std::string pm_path = coord->savePath() + ".postmortem";
            try {
                CheckpointCoordinator dump;
                dump.beginRun(key);
                dump.registerSection(
                    "machine", [&m](FieldVisitor &v) { m->visit(v); });
                SnapshotWriter w;
                // Iteration unknown mid-phase; a state dump, never
                // resumable.
                dump.serializeTo(w, 0, /*resumable=*/false);
                writeSnapshotFile(pm_path, w.bytes());
                report += "\npost-mortem snapshot: " + pm_path;
            } catch (const std::exception &pm) {
                report += std::string("\npost-mortem snapshot failed: ") +
                          pm.what();
            }
        }
        throw WatchdogError(report);
    } catch (...) {
        // CheckpointInterrupt (and anything else) also loses its
        // buffered trace without this merge.
        if (run.trace_sink != nullptr) {
            if (BenchSession *s = BenchSession::active())
                s->mergeAbortTrace(*run.trace_sink);
        }
        throw;
    }

    if (want_json || want_trace)
        m->recordFinalSample();
    if (want_profile) {
        if (AccessProfiler *prof = m->profiler()) {
            // Flush the trailing partial phase before anything renders
            // the stat tree or the profile document.
            prof->finishRun(m->cycles());
        }
    }
    run.outcome.stats = m->report();
    if (want_json) {
        if (const StatGroup *tree = m->statTree()) {
            std::ostringstream os;
            JsonWriter w(os, /*pretty=*/false);
            tree->writeJson(w);
            omega_assert(w.complete(), "stat-tree JSON left unterminated");
            run.stat_tree_json = os.str();
        }
        if (const FaultInjector *inj = m->faultInjector()) {
            std::ostringstream os;
            JsonWriter w(os, /*pretty=*/false);
            inj->writeJson(w);
            omega_assert(w.complete(), "fault JSON left unterminated");
            run.fault_json = os.str();
        }
    }
    if (want_profile) {
        if (AccessProfiler *prof = m->profiler()) {
            std::ostringstream os;
            JsonWriter w(os, /*pretty=*/false);
            prof->writeJson(w);
            omega_assert(w.complete(), "profile JSON left unterminated");
            run.profile_json = os.str();
            run.outcome.profile = prof->summary();
        }
    }
    run.intervals = recorder;
    return run;
}

} // namespace

RunOutcome
runOn(const DatasetSpec &spec, AlgorithmKind algo, MachineKind kind,
      const std::function<void(MachineParams &)> &tweak)
{
    BenchSession *session = BenchSession::active();
    const bool observe = session != nullptr && session->observing();

    std::string key;
    if (session != nullptr) {
        MachineParams params = machineFor(kind, spec);
        if (tweak)
            tweak(params);
        key = runKey(spec, algo, kind, params);
        const CompletedRun *pre = session->findPrewarmed(key);
        if (pre != nullptr) {
            session->coordinator().dropResumeFor(key);
            if (observe)
                session->recordCompleted(spec.name, algorithmName(algo),
                                         machineKindName(kind), *pre);
            return pre->outcome;
        }
        if (session->checkpointing()) {
            // Sweep journal: a run the interrupted session completed is
            // decoded instead of re-simulated, byte-identical to its
            // original recording.
            std::vector<std::uint8_t> rec = session->takeJournaled(key);
            if (!rec.empty()) {
                try {
                    SnapshotReader r(std::move(rec));
                    (void)r.getString(); // the key this record maps to
                    CompletedRun run;
                    run.outcome.params = params;
                    run.intervals = IntervalRecorder(
                        session->jsonEnabled() ? session->intervalCycles()
                                               : 0);
                    restoreFields(r, run);
                    if (r.remaining() != 0) {
                        throw SnapshotStateError(
                            "journal: " + std::to_string(r.remaining()) +
                            " unconsumed bytes after a run record");
                    }
                    session->coordinator().dropResumeFor(key);
                    const RunOutcome outcome = run.outcome;
                    if (observe) {
                        session->recordCompleted(spec.name,
                                                 algorithmName(algo),
                                                 machineKindName(kind),
                                                 run);
                    }
                    session->storePrewarmed(key, std::move(run));
                    return outcome;
                } catch (const SnapshotError &e) {
                    warn("journal record for '", key,
                         "' rejected (re-running): ", e.what());
                }
            }
        }
    }

    const bool want_json = observe && session->jsonEnabled();
    const bool want_trace = observe && session->traceEnabled();
    const bool want_profile = observe && session->profileEnabled();
    // Per-run checkpointing runs only on the session thread; a latched
    // signal between runs (or during an algorithm with no checkpoint
    // wiring) stops the sweep here, before more work starts.
    CheckpointCoordinator *coord =
        session != nullptr && session->checkpointing()
            ? &session->coordinator()
            : nullptr;
    if (coord != nullptr && pendingCheckpointSignal() != 0) {
        const CheckpointInterrupt e({}, 0, pendingCheckpointSignal());
        session->noteInterrupted(e);
        if (session->rethrowInterrupt())
            throw e;
        std::exit(128 + e.signal());
    }
    CompletedRun run;
    try {
        run = executeRun(spec, algo, kind, tweak, want_json, want_trace,
                         observe ? session->intervalCycles() : 0,
                         session != nullptr ? session->faultPlan()
                                            : nullptr,
                         want_profile, key, coord);
    } catch (const WatchdogError &e) {
        if (session != nullptr)
            session->abortSession(e.what()); // flushes partial JSON, exits
        throw;
    } catch (const CheckpointInterrupt &e) {
        // coord was non-null, so session is too. The final checkpoint is
        // already on disk; flush the partial document and stop.
        session->noteInterrupted(e);
        if (session->rethrowInterrupt())
            throw;
        std::exit(e.signal() > 0 ? 128 + e.signal() : 130);
    }
    if (session != nullptr && session->checkpointing())
        session->journalCompleted(key, run);
    if (observe)
        session->recordCompleted(spec.name, algorithmName(algo),
                                 machineKindName(kind), run);
    return run.outcome;
}

std::vector<DatasetSpec>
datasetsFor(AlgorithmKind algo, const std::vector<DatasetSpec> &from)
{
    const AlgorithmMeta &meta = algorithmMeta(algo);
    std::vector<DatasetSpec> out;
    for (const auto &s : from) {
        if (meta.needs_symmetric && s.directed)
            continue;
        out.push_back(s);
    }
    return out;
}

std::vector<DatasetSpec>
powerLawDatasets()
{
    std::vector<DatasetSpec> out;
    for (const auto &s : simulationDatasets()) {
        if (s.paper_power_law)
            out.push_back(s);
    }
    return out;
}

double
geoMean(const std::vector<double> &values)
{
    omega_assert(!values.empty(), "geoMean of empty set");
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

BenchSession::BenchSession(std::string bench_name, int argc, char **argv)
    : bench_name_(std::move(bench_name))
{
    std::vector<std::string> raw;
    for (int i = 1; i < argc; ++i)
        raw.emplace_back(argv[i]);
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const std::string &arg = raw[i];
        auto operand = [&](const char *flag) -> const std::string & {
            if (i + 1 >= raw.size()) {
                usageError(bench_name_,
                           std::string(flag) + " requires an operand");
            }
            return raw[++i];
        };
        if (arg == "--json") {
            json_path_ = operand("--json");
        } else if (arg == "--trace") {
            trace_path_ = operand("--trace");
        } else if (arg == "--interval") {
            const std::string &tok = operand("--interval");
            std::uint64_t cycles = 0;
            if (!parseCount(tok, cycles)) {
                usageError(bench_name_, "--interval operand '" + tok +
                                            "' is not a non-negative "
                                            "cycle count");
            }
            interval_cycles_ = cycles;
        } else if (arg == "--jobs") {
            const std::string &tok = operand("--jobs");
            std::uint64_t jobs = 0;
            if (!parseCount(tok, jobs) || jobs < 1 ||
                jobs > std::numeric_limits<unsigned>::max()) {
                usageError(bench_name_, "--jobs operand '" + tok +
                                            "' is not a thread count "
                                            ">= 1");
            }
            jobs_ = static_cast<unsigned>(jobs);
        } else if (arg == "--faults") {
            const std::string &tok = operand("--faults");
            std::string error;
            faults_ = FaultPlan::parse(tok, &error);
            if (!faults_.has_value()) {
                usageError(bench_name_,
                           "--faults spec '" + tok + "': " + error);
            }
        } else if (arg == "--profile") {
            profile_path_ = operand("--profile");
            // Fail fast on an unwritable destination: the document is
            // only written at session end, after a potentially long
            // sweep. Append mode probes without truncating.
            std::ofstream probe(profile_path_, std::ios::app);
            if (!probe) {
                usageError(bench_name_, "--profile path '" + profile_path_ +
                                            "' is not writable");
            }
        } else if (arg == "--checkpoint") {
            checkpoint_path_ = operand("--checkpoint");
            // Fail fast on an unwritable destination. Snapshots land at
            // "<path>.tmp" before the atomic rename, so probe that name
            // and clean it up (a stale tmp from a crash is dead weight).
            const std::string tmp = checkpoint_path_ + ".tmp";
            {
                std::ofstream probe(tmp, std::ios::app);
                if (!probe) {
                    usageError(bench_name_, "--checkpoint path '" +
                                                checkpoint_path_ +
                                                "' is not writable");
                }
            }
            std::remove(tmp.c_str());
        } else if (arg == "--checkpoint-every") {
            const std::string &tok = operand("--checkpoint-every");
            std::uint64_t every = 0;
            if (!parseCount(tok, every) || every < 1) {
                usageError(bench_name_, "--checkpoint-every operand '" +
                                            tok +
                                            "' is not an iteration count "
                                            ">= 1");
            }
            checkpoint_every_ = every;
        } else if (arg == "--resume") {
            resume_path_ = operand("--resume");
        } else if (!arg.empty() && arg[0] == '-') {
            usageError(bench_name_, "unknown flag '" + arg + "'");
        } else {
            // Left for the bench itself. Only these survive into the
            // JSON document, so the document does not depend on output
            // paths or job count.
            args_.push_back(arg);
        }
    }
    if (!trace_path_.empty()) {
        // The sink is a merge target only: runs record into their own
        // thread-local sinks and recordCompleted() folds them in here in
        // consumption order.
        sink_ = std::make_unique<trace::TraceSink>();
        if (!trace::compiledIn()) {
            warn("--trace requested but OMEGA_TRACE was compiled out; "
                 "the trace file will contain no events");
        }
    }
    if (!profile_path_.empty() && !profile::compiledIn()) {
        warn("--profile requested but OMEGA_PROFILE was compiled out; "
             "every profile in the document will be unarmed/all-zero");
    }
    if (checkpoint_every_ != 0 && checkpoint_path_.empty())
        usageError(bench_name_, "--checkpoint-every requires --checkpoint");
    if (checkpointing() &&
        (!trace_path_.empty() || !profile_path_.empty())) {
        usageError(bench_name_,
                   "--checkpoint/--resume cannot be combined with --trace "
                   "or --profile");
    }
    if (!resume_path_.empty()) {
        // A missing operand file is a usage error (exit 2), like any
        // other bad operand; a file that exists but fails verification
        // keeps its distinct snapshot-taxonomy message.
        {
            std::ifstream probe(resume_path_, std::ios::binary);
            if (!probe) {
                usageError(bench_name_, "--resume file '" + resume_path_ +
                                            "' cannot be opened");
            }
        }
        try {
            coordinator_.setResumePayload(readSnapshotFile(resume_path_));
        } catch (const SnapshotError &e) {
            std::fprintf(stderr, "%s: --resume %s: %s\n",
                         bench_name_.c_str(), resume_path_.c_str(),
                         e.what());
            std::exit(1);
        }
    }
    if (checkpointing()) {
        clearCheckpointSignal();
        coordinator_.configureSave(checkpoint_path_, checkpoint_every_);
        if (!checkpoint_path_.empty()) {
            if (!resume_path_.empty()) {
                // Journaled runs of the interrupted session will be
                // served without re-simulation; the snapshot resumes the
                // one run that was mid-flight.
                auto records = readJournalRecords(journalPath());
                for (auto &rec : records) {
                    SnapshotReader r(rec); // copy: only the key is read
                    journal_.insert_or_assign(r.getString(),
                                              std::move(rec));
                }
            } else {
                // A fresh checkpointed session: records from a previous
                // sweep at the same path must not leak in.
                std::remove(journalPath().c_str());
            }
            std::signal(SIGINT, &checkpointSignalHandler);
            std::signal(SIGTERM, &checkpointSignalHandler);
            signal_handlers_installed_ = true;
        }
    }
    prev_active_ = g_active_session;
    g_active_session = this;
}

BenchSession::~BenchSession()
{
    g_active_session = prev_active_;
    if (signal_handlers_installed_) {
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
    }
    if (coordinator_.resumePending()) {
        warn("--resume snapshot for run '", coordinator_.resumeRunKey(),
             "' was never consumed by this bench");
    }
    if (jsonEnabled())
        writeJsonDoc();
    if (sink_ != nullptr)
        writeTraceFile();
    if (profileEnabled())
        writeProfileDoc();
}

BenchSession *
BenchSession::active()
{
    return g_active_session;
}

void
BenchSession::abortSession(const std::string &reason)
{
    aborted_ = true;
    abort_reason_ = reason;
    warn("bench aborted: ", reason);
    // Flush everything collected so far; a partial document beats losing
    // the whole sweep. std::exit() skips the destructor, so write here.
    if (jsonEnabled())
        writeJsonDoc();
    if (sink_ != nullptr)
        writeTraceFile();
    if (profileEnabled())
        writeProfileDoc();
    std::exit(1);
}

void
BenchSession::noteInterrupted(const CheckpointInterrupt &e)
{
    interrupted_ = true;
    interrupted_iteration_ = e.iteration();
    interrupted_checkpoint_ = e.path();
    interrupted_signal_ = e.signal();
    if (e.path().empty()) {
        warn("bench interrupted before the in-flight run reached a "
             "checkpointable boundary");
    } else {
        warn("bench interrupted at iteration ", e.iteration(),
             "; checkpoint written to ", e.path());
    }
    // Flush partial documents now: std::exit() (and a test rethrow that
    // unwinds past the session) must not lose what was collected.
    if (jsonEnabled())
        writeJsonDoc();
    if (sink_ != nullptr)
        writeTraceFile();
    if (profileEnabled())
        writeProfileDoc();
}

void
BenchSession::mergeAbortTrace(const trace::TraceSink &sink)
{
    std::lock_guard<std::mutex> lock(abort_trace_mutex_);
    if (sink_ != nullptr)
        sink_->mergeFrom(sink);
}

void
BenchSession::journalCompleted(const std::string &key,
                               const CompletedRun &run)
{
    if (checkpoint_path_.empty())
        return;
    SnapshotWriter w;
    w.putString(key);
    saveFields(w, run);
    std::lock_guard<std::mutex> lock(journal_mutex_);
    try {
        appendJournalRecord(journalPath(), w.bytes());
    } catch (const SnapshotError &e) {
        warn("cannot append to checkpoint journal: ", e.what());
    }
}

std::vector<std::uint8_t>
BenchSession::takeJournaled(const std::string &key)
{
    std::lock_guard<std::mutex> lock(journal_mutex_);
    auto it = journal_.find(key);
    if (it == journal_.end())
        return {};
    std::vector<std::uint8_t> rec = std::move(it->second);
    journal_.erase(it);
    return rec;
}

bool
BenchSession::hasJournaled(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(journal_mutex_);
    return journal_.count(key) != 0;
}

void
BenchSession::recordCompleted(const std::string &dataset,
                              const std::string &algorithm,
                              const std::string &machine,
                              const CompletedRun &run)
{
    if (sink_ != nullptr && run.trace_sink != nullptr)
        sink_->mergeFrom(*run.trace_sink);
    if (!jsonEnabled() && !profileEnabled())
        return;
    RunRecord rec;
    rec.dataset = dataset;
    rec.algorithm = algorithm;
    rec.machine = machine;
    rec.outcome = run.outcome;
    rec.stat_tree_json = run.stat_tree_json;
    rec.intervals = run.intervals;
    rec.fault_json = run.fault_json;
    rec.profile_json = run.profile_json;
    runs_.push_back(std::move(rec));
}

void
CompletedRun::visit(FieldVisitor &v)
{
    v.state(outcome.cycles);
    outcome.stats.visit(v);
    v.state(stat_tree_json);
    v.state(fault_json);
    intervals.visit(v);
}

void
BenchSession::storePrewarmed(std::string key, CompletedRun run)
{
    prewarmed_.insert_or_assign(std::move(key), std::move(run));
}

const CompletedRun *
BenchSession::findPrewarmed(const std::string &key) const
{
    auto it = prewarmed_.find(key);
    return it == prewarmed_.end() ? nullptr : &it->second;
}

void
BenchSession::writeJsonDoc() const
{
    std::ofstream os(json_path_);
    if (!os) {
        warn("cannot open --json output path: ", json_path_);
        return;
    }
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.field("schema_version", kSchemaVersion);
    w.field("bench", bench_name_);
    // Conditional fields: absent in a normal fault-free session, so the
    // default document layout (and the pinned golden digest) is
    // untouched.
    if (aborted_) {
        w.field("status", "aborted");
        w.field("abort_reason", abort_reason_);
    }
    if (interrupted_) {
        w.field("status", "interrupted");
        w.field("interrupted_iteration", interrupted_iteration_);
        if (!interrupted_checkpoint_.empty())
            w.field("checkpoint", interrupted_checkpoint_);
        if (interrupted_signal_ != 0)
            w.field("signal", interrupted_signal_);
    }
    if (faults_.has_value())
        w.field("fault_plan", faults_->describe());
    w.key("args").beginArray();
    for (const std::string &a : args_)
        w.value(a);
    w.endArray();
    w.field("interval_cycles", interval_cycles_);
    if (sink_ != nullptr)
        w.field("trace_events", static_cast<std::uint64_t>(
                                    sink_->numEvents()));
    w.key("runs").beginArray();
    for (const RunRecord &rec : runs_) {
        w.beginObject();
        w.field("dataset", rec.dataset);
        w.field("algorithm", rec.algorithm);
        w.field("machine", rec.machine);
        w.field("cycles", rec.outcome.cycles);
        w.key("params");
        writeParamsJson(w, rec.outcome.params);
        w.key("stats");
        rec.outcome.stats.writeJson(w);
        w.key("derived");
        writeDerivedJson(w, rec.outcome);
        if (!rec.stat_tree_json.empty())
            w.key("stat_tree").rawValue(rec.stat_tree_json);
        if (!rec.fault_json.empty())
            w.key("faults").rawValue(rec.fault_json);
        w.key("intervals");
        rec.intervals.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    omega_assert(w.complete(), "bench JSON document left unterminated");
    os << '\n';
}

void
BenchSession::writeProfileDoc() const
{
    std::ofstream os(profile_path_);
    if (!os) {
        warn("cannot open --profile output path: ", profile_path_);
        return;
    }
    // Deliberately a separate document from --json: the main document's
    // layout is digest-frozen, and profile payloads are large. Runs are
    // emitted in consumption order (like writeJsonDoc), so the document
    // is byte-identical for any --jobs value.
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.field("schema_version", kSchemaVersion);
    w.field("bench", bench_name_);
    if (aborted_) {
        w.field("status", "aborted");
        w.field("abort_reason", abort_reason_);
    }
    w.key("args").beginArray();
    for (const std::string &a : args_)
        w.value(a);
    w.endArray();
    w.field("profile_compiled_in", profile::compiledIn());
    w.key("runs").beginArray();
    for (const RunRecord &rec : runs_) {
        w.beginObject();
        w.field("dataset", rec.dataset);
        w.field("algorithm", rec.algorithm);
        w.field("machine", rec.machine);
        w.field("cycles", rec.outcome.cycles);
        w.key("profile");
        if (!rec.profile_json.empty())
            w.rawValue(rec.profile_json);
        else
            w.null();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    omega_assert(w.complete(), "profile document left unterminated");
    os << '\n';
}

void
BenchSession::writeTraceFile() const
{
    std::ofstream os(trace_path_);
    if (!os) {
        warn("cannot open --trace output path: ", trace_path_);
        return;
    }
    sink_->writeChromeTrace(os);
    os << '\n';
}

SweepRunner::SweepRunner()
    : jobs_(g_active_session != nullptr ? g_active_session->jobs() : 1)
{
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs < 1 ? 1 : jobs)
{
}

void
SweepRunner::add(const DatasetSpec &spec, AlgorithmKind algo,
                 MachineKind kind,
                 const std::function<void(MachineParams &)> &tweak)
{
    if (jobs_ <= 1)
        return; // sequential sessions compute on demand in runOn()
    MachineParams params = machineFor(kind, spec);
    if (tweak)
        tweak(params);
    std::string key = runKey(spec, algo, kind, params);
    BenchSession *session = BenchSession::active();
    if (session != nullptr && (session->findPrewarmed(key) != nullptr ||
                               session->hasJournaled(key)))
        return; // runOn() serves it from the prewarm cache or the journal
    for (const PlannedRun &p : planned_) {
        if (p.key == key)
            return;
    }
    planned_.push_back(PlannedRun{spec, algo, kind, tweak, std::move(key)});
}

void
SweepRunner::run()
{
    BenchSession *session = BenchSession::active();
    if (session == nullptr || jobs_ <= 1 || planned_.empty()) {
        planned_.clear();
        return;
    }

    // Materialize every planned graph up front: the first touch builds
    // into the shared cache, so workers only ever read it.
    for (const PlannedRun &p : planned_)
        datasetGraph(p.spec);

    const bool want_json = session->jsonEnabled();
    const bool want_trace = session->traceEnabled();
    const bool want_profile = session->profileEnabled();
    const Cycles interval = session->intervalCycles();
    const FaultPlan *faults = session->faultPlan();
    std::vector<CompletedRun> results(planned_.size());
    // Workers must not throw across the pool: capture the first watchdog
    // trip and abort (flushing the partial document) on this thread.
    std::mutex failure_mutex;
    std::optional<std::string> failure;
    parallelFor(planned_.size(), jobs_, [&](std::size_t i) {
        // Workers run with no coordinator (checkpointing a run requires
        // exclusive use of the shared section registry); on SIGINT or
        // SIGTERM they simply stop picking up points, and the journal
        // lets the resumed sweep redo only what is missing.
        if (pendingCheckpointSignal() != 0)
            return;
        const PlannedRun &p = planned_[i];
        try {
            results[i] = executeRun(p.spec, p.algo, p.kind, p.tweak,
                                    want_json, want_trace, interval, faults,
                                    want_profile);
            if (session->checkpointing())
                session->journalCompleted(p.key, results[i]);
        } catch (const WatchdogError &e) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure.has_value())
                failure = e.what();
        }
    });
    if (failure.has_value())
        session->abortSession(*failure);
    if (const int sig = pendingCheckpointSignal()) {
        CheckpointInterrupt e({}, 0, sig);
        session->noteInterrupted(e);
        if (session->rethrowInterrupt())
            throw e;
        std::exit(128 + sig);
    }
    // Deposit in plan order; the bench's own loops consume from the map
    // in their original sequential order, so recorded output is
    // independent of which worker finished first.
    for (std::size_t i = 0; i < planned_.size(); ++i)
        session->storePrewarmed(std::move(planned_[i].key),
                                std::move(results[i]));
    planned_.clear();
}

} // namespace omega::bench
