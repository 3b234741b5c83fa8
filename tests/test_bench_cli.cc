/**
 * @file
 * BenchSession command-line hardening and fault-campaign plumbing:
 * malformed flags exit with a usage message instead of undefined
 * behavior; --faults arms every machine the session runs; a watchdog
 * trip flushes the partial --json document with "status": "aborted"
 * instead of losing the whole sweep, and with --checkpoint a post-mortem
 * dump that no resume accepts and whose machine section restores
 * exactly; and an armed campaign's output —
 * including the injected-event trace digest — is byte-identical across
 * repeated runs and across --jobs values.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/pagerank.hh"
#include "bench_common.hh"
#include "framework/engine.hh"
#include "framework/properties.hh"
#include "graph/datasets.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/field_visitor.hh"
#include "sim/machine_registry.hh"
#include "sim/snapshot.hh"

namespace omega::bench {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Construct a session from inline args (the death-test statement). */
void
makeSession(std::vector<std::string> arg_strings)
{
    arg_strings.insert(arg_strings.begin(), "bench_cli_test");
    std::vector<char *> argv;
    for (std::string &s : arg_strings)
        argv.push_back(s.data());
    BenchSession session("bench_cli_test", static_cast<int>(argv.size()),
                         argv.data());
}



TEST(BenchCliDeathTest, RejectsZeroJobs)
{
    EXPECT_EXIT(makeSession({"--jobs", "0"}),
                ::testing::ExitedWithCode(2), "usage:");
}

TEST(BenchCliDeathTest, RejectsNegativeJobs)
{
    EXPECT_EXIT(makeSession({"--jobs", "-3"}),
                ::testing::ExitedWithCode(2), "thread count");
}

TEST(BenchCliDeathTest, RejectsGarbageNumerics)
{
    EXPECT_EXIT(makeSession({"--jobs", "banana"}),
                ::testing::ExitedWithCode(2), "usage:");
    EXPECT_EXIT(makeSession({"--interval", "12x"}),
                ::testing::ExitedWithCode(2), "cycle count");
}

TEST(BenchCliDeathTest, RejectsMissingOperand)
{
    EXPECT_EXIT(makeSession({"--json"}), ::testing::ExitedWithCode(2),
                "requires an operand");
    EXPECT_EXIT(makeSession({"--faults"}), ::testing::ExitedWithCode(2),
                "requires an operand");
    EXPECT_EXIT(makeSession({"--profile"}), ::testing::ExitedWithCode(2),
                "requires an operand");
}

TEST(BenchCliDeathTest, RejectsUnwritableProfilePath)
{
    EXPECT_EXIT(
        makeSession({"--profile", "/nonexistent-dir/deep/profile.json"}),
        ::testing::ExitedWithCode(2), "not writable");
}

TEST(BenchCliDeathTest, RejectsUnknownFlags)
{
    EXPECT_EXIT(makeSession({"--frobnicate"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(makeSession({"-x"}), ::testing::ExitedWithCode(2),
                "unknown flag");
}

TEST(BenchCliDeathTest, RejectsMalformedFaultSpec)
{
    EXPECT_EXIT(makeSession({"--faults", "bogus-key=1"}),
                ::testing::ExitedWithCode(2), "unknown fault-plan key");
    EXPECT_EXIT(makeSession({"--faults", "ecc=7"}),
                ::testing::ExitedWithCode(2), "invalid value");
}

TEST(BenchCli, AcceptsValidFlags)
{
    std::vector<std::string> arg_strings = {"bench",     "--jobs", "2",
                                            "--faults",  "ecc=0.5,seed=9",
                                            "positional"};
    std::vector<char *> argv;
    for (std::string &s : arg_strings)
        argv.push_back(s.data());
    BenchSession session("bench", static_cast<int>(argv.size()),
                         argv.data());
    EXPECT_EQ(session.jobs(), 2u);
    ASSERT_NE(session.faultPlan(), nullptr);
    EXPECT_EQ(session.faultPlan()->seed, 9u);
    EXPECT_DOUBLE_EQ(session.faultPlan()->sp_ecc_rate, 0.5);
    EXPECT_TRUE(session.faultPlan()->armed());
}

TEST(BenchCliDeathTest, RetiredSimThreadsFlagIsUnknown)
{
    // Runs are single-threaded inside; an old invocation that still
    // passes --sim-threads gets the unknown-flag usage exit.
    EXPECT_EXIT(makeSession({"--sim-threads", "1"}),
                ::testing::ExitedWithCode(2),
                "unknown flag '--sim-threads'");
}

TEST(BenchCli, NoFaultsFlagMeansNoPlan)
{
    std::vector<std::string> arg_strings = {"bench"};
    std::vector<char *> argv;
    for (std::string &s : arg_strings)
        argv.push_back(s.data());
    BenchSession session("bench", static_cast<int>(argv.size()),
                         argv.data());
    EXPECT_EQ(session.faultPlan(), nullptr);
}

TEST(BenchCliDeathTest, WatchdogTripFlushesAbortedJson)
{
    // A lost-update campaign (retries disabled) trips the watchdog mid
    // sweep; the session must flush what it has with "status": "aborted"
    // and exit(1) rather than losing the document. With --checkpoint the
    // run also leaves a post-mortem dump of its machine.
    const std::string path = ::testing::TempDir() + "aborted.json";
    const std::string ckpt = ::testing::TempDir() + "aborted.ckpt";
    const std::string faults =
        "seed=5,nack-always=1,no-retry=1,watchdog=100000000";
    const DatasetSpec sd = *findDataset("sd");
    const auto run = [&] {
        std::vector<std::string> arg_strings = {
            "bench", "--json", path, "--faults", faults, "--checkpoint", ckpt};
        std::vector<char *> argv;
        for (std::string &s : arg_strings)
            argv.push_back(s.data());
        BenchSession session("bench", static_cast<int>(argv.size()),
                             argv.data());
        runOn(sd, AlgorithmKind::PageRank, MachineKind::Omega);
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(1), "bench aborted");
    // The child process wrote the partial document before exiting.
    const std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"status\": \"aborted\""), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"abort_reason\""), std::string::npos);
    EXPECT_NE(doc.find("\"fault_plan\""), std::string::npos);
    std::remove(path.c_str());

    // The dump passes the file checks, a resume refuses it, and its one
    // section restores into a fresh omega machine armed with the same
    // plan and configured as runPageRank configures it, byte for byte.
    const std::string pm_path = ckpt + ".postmortem";
    const std::vector<std::uint8_t> pm = readSnapshotFile(pm_path);
    CheckpointCoordinator resume;
    EXPECT_THROW(resume.setResumePayload(pm), SnapshotStateError);
    SnapshotReader r(pm);
    EXPECT_NE(r.getString().find("sd|"), std::string::npos);
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_FALSE(r.getBool());
    ASSERT_EQ(r.getU64(), 1u);
    ASSERT_EQ(r.getString(), "machine");
    const std::uint64_t size = r.getU64();
    ASSERT_EQ(size, r.remaining());
    std::unique_ptr<MemorySystem> m =
        machineEntry("omega").make(machineFor(MachineKind::Omega, sd));
    m->armFaults(*FaultPlan::parse(faults, nullptr));
    const Graph &g = datasetGraph(sd);
    PropertyRegistry props(g.numVertices());
    props.create<double>("next_pagerank", 0.0);
    props.allocOther(std::uint64_t(g.numVertices()) * 8);
    Engine eng(g, props, pageRankUpdateFn(), m.get(), EngineOptions{});
    eng.configureMachine();
    SnapshotLoader loader(r);
    m->visit(loader);
    EXPECT_EQ(r.remaining(), 0u);
    std::remove(pm_path.c_str());
    std::remove((ckpt + ".journal").c_str());
}

/** One small armed sweep; returns the --json bytes. */
std::string
armedSweep(unsigned jobs, const std::string &tag)
{
    const std::string path =
        ::testing::TempDir() + "fault_sweep_" + tag + ".json";
    std::vector<std::string> arg_strings = {
        "bench",    "--json", path,
        "--jobs",   std::to_string(jobs),
        "--faults", "seed=17,ecc=0.02,nack=0.05,dram=0.05"};
    std::vector<char *> argv;
    for (std::string &s : arg_strings)
        argv.push_back(s.data());

    const DatasetSpec sd = *findDataset("sd");
    {
        BenchSession session("bench_fault_sweep",
                             static_cast<int>(argv.size()), argv.data());
        SweepRunner sweep;
        sweep.add(sd, AlgorithmKind::PageRank, MachineKind::Baseline);
        sweep.add(sd, AlgorithmKind::PageRank, MachineKind::Omega);
        sweep.run();
        runOn(sd, AlgorithmKind::PageRank, MachineKind::Baseline);
        runOn(sd, AlgorithmKind::PageRank, MachineKind::Omega);
    }
    return slurp(path);
}

TEST(BenchCliDeathTest, RejectsBadCheckpointFlags)
{
    EXPECT_EXIT(makeSession({"--checkpoint-every", "0"}),
                ::testing::ExitedWithCode(2), "iteration count");
    EXPECT_EXIT(makeSession({"--checkpoint-every", "banana"}),
                ::testing::ExitedWithCode(2), "iteration count");
    EXPECT_EXIT(makeSession({"--checkpoint-every", "5"}),
                ::testing::ExitedWithCode(2), "requires --checkpoint");
    EXPECT_EXIT(makeSession({"--checkpoint"}),
                ::testing::ExitedWithCode(2), "requires an operand");
    EXPECT_EXIT(makeSession({"--resume"}), ::testing::ExitedWithCode(2),
                "requires an operand");
}

TEST(BenchCliDeathTest, RejectsUnwritableCheckpointPath)
{
    EXPECT_EXIT(
        makeSession({"--checkpoint", "/nonexistent-dir/deep/run.snap"}),
        ::testing::ExitedWithCode(2), "not writable");
}

TEST(BenchCliDeathTest, RejectsMissingResumeFile)
{
    EXPECT_EXIT(makeSession({"--resume",
                             ::testing::TempDir() + "no-such.snap"}),
                ::testing::ExitedWithCode(2), "cannot be opened");
}

TEST(BenchCliDeathTest, RejectsCheckpointCombinedWithTraceOrProfile)
{
    // Trace/profile documents cannot be stitched across an interrupted
    // and a resumed process, so the combination is refused up front
    // instead of producing silently incomplete observability output.
    const std::string snap = ::testing::TempDir() + "combo.snap";
    EXPECT_EXIT(makeSession({"--checkpoint", snap, "--trace",
                             ::testing::TempDir() + "combo-trace.json"}),
                ::testing::ExitedWithCode(2), "cannot be combined");
    EXPECT_EXIT(makeSession({"--checkpoint", snap, "--profile",
                             ::testing::TempDir() + "combo-prof.json"}),
                ::testing::ExitedWithCode(2), "cannot be combined");
}

TEST(BenchCliDeathTest, CorruptResumeFileIsRejectedWithChecksumError)
{
    // Distinct from the usage errors: the file exists but fails
    // verification, so the session reports the snapshot taxonomy
    // message and exits 1.
    const std::string path = ::testing::TempDir() + "corrupt.snap";
    {
        SnapshotWriter w;
        for (std::uint64_t i = 0; i < 32; ++i)
            w.putU64(i);
        writeSnapshotFile(path, w.bytes());
    }
    // Flip one payload byte past the 28-byte header.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(40);
        char c = 0;
        f.get(c);
        f.seekp(40);
        f.put(static_cast<char>(c ^ 0x20));
    }
    EXPECT_EXIT(makeSession({"--resume", path}),
                ::testing::ExitedWithCode(1), "checksum");
    std::remove(path.c_str());
}

/** Build argv and a live session the checkpoint tests can drive. */
std::unique_ptr<BenchSession>
liveSession(std::vector<std::string> arg_strings)
{
    arg_strings.insert(arg_strings.begin(), "bench_ckpt_test");
    std::vector<char *> argv;
    for (std::string &s : arg_strings)
        argv.push_back(s.data());
    return std::make_unique<BenchSession>("bench_ckpt_test",
                                          static_cast<int>(argv.size()),
                                          argv.data());
}

TEST(BenchCheckpoint, InterruptedSessionResumesToIdenticalJson)
{
    // End-to-end through the harness: interrupt a run at an iteration
    // boundary (test hook — the same code path a latched SIGTERM
    // takes), confirm the partial document says "interrupted", then
    // resume in a second session and byte-compare its document against
    // an uninterrupted reference session.
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "cli_resume.snap";
    const std::string j_int = dir + "cli_int.json";
    const std::string j_res = dir + "cli_res.json";
    const std::string j_ref = dir + "cli_ref.json";
    const DatasetSpec sd = *findDataset("sd");

    // --interval puts the interval recorder's section in the snapshot.
    {
        auto session = liveSession(
            {"--json", j_int, "--interval", "2000", "--checkpoint", snap});
        session->setRethrowInterrupt(true);
        session->coordinator().test_stop =
            [](std::uint64_t it) { return it == 1; };
        bool interrupted = false;
        try {
            runOn(sd, AlgorithmKind::BFS, MachineKind::Omega);
        } catch (const CheckpointInterrupt &) {
            interrupted = true;
        }
        EXPECT_TRUE(interrupted);
    }
    const std::string partial = slurp(j_int);
    EXPECT_NE(partial.find("\"status\": \"interrupted\""),
              std::string::npos)
        << partial;
    EXPECT_NE(partial.find("\"checkpoint\""), std::string::npos);

    {
        auto session = liveSession(
            {"--json", j_res, "--interval", "2000", "--resume", snap});
        runOn(sd, AlgorithmKind::BFS, MachineKind::Omega);
    }
    {
        auto session = liveSession({"--json", j_ref, "--interval", "2000"});
        runOn(sd, AlgorithmKind::BFS, MachineKind::Omega);
    }
    const std::string reference = slurp(j_ref);
    EXPECT_NE(reference.find("\"intervals\""), std::string::npos);
    EXPECT_EQ(slurp(j_res), reference)
        << "resumed document diverged from the uninterrupted reference";
    for (const std::string &p : {snap, j_int, j_res, j_ref})
        std::remove(p.c_str());
}

TEST(BenchCheckpoint, JournalServesCompletedRunsAfterInterrupt)
{
    // A sweep session completes run A, then is interrupted inside run
    // B. The resumed session must serve A from the journal (no
    // re-simulation) and B from the snapshot, and its document must be
    // byte-identical to a session that ran both uninterrupted.
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "cli_journal.snap";
    const std::string j_res = dir + "cli_journal_res.json";
    const std::string j_ref = dir + "cli_journal_ref.json";
    const DatasetSpec sd = *findDataset("sd");

    {
        auto session = liveSession(
            {"--json", dir + "cli_journal_int.json", "--checkpoint",
             snap});
        session->setRethrowInterrupt(true);
        runOn(sd, AlgorithmKind::BFS, MachineKind::Baseline); // journaled
        session->coordinator().test_stop =
            [](std::uint64_t it) { return it == 1; };
        bool interrupted = false;
        try {
            runOn(sd, AlgorithmKind::BFS, MachineKind::Omega);
        } catch (const CheckpointInterrupt &) {
            interrupted = true;
        }
        EXPECT_TRUE(interrupted);
    }
    {
        // Same --checkpoint path: picks up the journal; --resume picks
        // up the snapshot of the interrupted run.
        auto session = liveSession(
            {"--json", j_res, "--checkpoint", snap, "--resume", snap});
        runOn(sd, AlgorithmKind::BFS, MachineKind::Baseline);
        runOn(sd, AlgorithmKind::BFS, MachineKind::Omega);
    }
    {
        auto session = liveSession({"--json", j_ref});
        runOn(sd, AlgorithmKind::BFS, MachineKind::Baseline);
        runOn(sd, AlgorithmKind::BFS, MachineKind::Omega);
    }
    EXPECT_EQ(slurp(j_res), slurp(j_ref))
        << "journal-resumed document diverged from the reference";
    for (const std::string &p :
         {snap, snap + ".journal", dir + "cli_journal_int.json", j_res,
          j_ref})
        std::remove(p.c_str());
}

TEST(FaultSweep, CampaignOutputIsJobCountInvariantAndRepeatable)
{
    // Same seed + same plan => identical injected-event trace (the
    // per-run "faults" object embeds the trace digest) and identical
    // simulated results, byte for byte, across runs and job counts.
    const std::string seq = armedSweep(1, "seq");
    const std::string par = armedSweep(4, "par");
    const std::string rep = armedSweep(4, "rep");
    EXPECT_EQ(seq, par);
    EXPECT_EQ(par, rep);
    EXPECT_NE(seq.find("\"fault_plan\""), std::string::npos);
    EXPECT_NE(seq.find("\"faults\""), std::string::npos);
    EXPECT_NE(seq.find("\"trace_digest\""), std::string::npos);
}

} // namespace
} // namespace omega::bench
