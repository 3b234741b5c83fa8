/**
 * @file
 * Tests for the parallel sweep runner: BenchSession --jobs handling,
 * SweepRunner memoization, and the thread-count invariance guarantee
 * (identical --json/--trace bytes for any job count).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "graph/datasets.hh"

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

/** The small sweep every test below runs: 2 datasets x 2 machines. */
struct SweepResult
{
    std::string json;
    std::string trace;
    std::vector<Cycles> cycles;
};

SweepResult
runSmallSweep(unsigned jobs, const std::string &tag)
{
    const std::string json_path = ::testing::TempDir() + "sweep_" + tag +
                                  ".json";
    const std::string trace_path = ::testing::TempDir() + "sweep_" + tag +
                                   ".trace.json";
    std::vector<std::string> arg_strings = {
        "test_sweep",   "--json",     json_path, "--trace",
        trace_path,     "--interval", "5000",    "--jobs",
        std::to_string(jobs)};
    std::vector<char *> argv;
    for (std::string &s : arg_strings)
        argv.push_back(s.data());

    const DatasetSpec sd = *findDataset("sd");
    const DatasetSpec ap = *findDataset("ap");
    const auto widen = [](MachineParams &p) { p.sp_chunk_size *= 2; };

    SweepResult out;
    {
        BenchSession session("test_sweep", static_cast<int>(argv.size()),
                             argv.data());
        EXPECT_EQ(session.jobs(), jobs);

        SweepRunner sweep;
        EXPECT_EQ(sweep.jobs(), jobs);
        for (const DatasetSpec &spec : {sd, ap}) {
            sweep.add(spec, AlgorithmKind::PageRank, MachineKind::Baseline);
            sweep.add(spec, AlgorithmKind::PageRank, MachineKind::Omega);
        }
        sweep.add(sd, AlgorithmKind::PageRank, MachineKind::Omega, widen);
        // Over-planning a duplicate is harmless.
        sweep.add(sd, AlgorithmKind::PageRank, MachineKind::Baseline);
        if (jobs > 1) {
            EXPECT_EQ(sweep.pending(), 5u);
        }
        sweep.run();
        EXPECT_EQ(sweep.pending(), 0u);

        for (const DatasetSpec &spec : {sd, ap}) {
            out.cycles.push_back(
                runOn(spec, AlgorithmKind::PageRank, MachineKind::Baseline)
                    .cycles);
            out.cycles.push_back(
                runOn(spec, AlgorithmKind::PageRank, MachineKind::Omega)
                    .cycles);
        }
        out.cycles.push_back(
            runOn(sd, AlgorithmKind::PageRank, MachineKind::Omega, widen)
                .cycles);
    }
    out.json = slurp(json_path);
    out.trace = slurp(trace_path);
    return out;
}

TEST(SweepRunner, ParallelOutputIsByteIdenticalToSequential)
{
    // The tentpole guarantee: --jobs changes wall-clock only. JSON and
    // trace documents, and every reported cycle count, must match the
    // sequential run byte for byte.
    const SweepResult seq = runSmallSweep(1, "seq");
    const SweepResult par = runSmallSweep(4, "par");
    EXPECT_EQ(seq.cycles, par.cycles);
    EXPECT_EQ(seq.json, par.json);
    EXPECT_EQ(seq.trace, par.trace);
    EXPECT_GT(seq.json.size(), 1'000u); // genuinely populated
}

TEST(SweepRunner, ParallelRunsAreRepeatable)
{
    const SweepResult a = runSmallSweep(4, "rep_a");
    const SweepResult b = runSmallSweep(4, "rep_b");
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
}

TEST(BenchSession, HarnessFlagsAreStrippedFromRecordedArgs)
{
    // --json/--trace/--interval/--jobs (and operands) must not leak into
    // the document's args array, or outputs would differ by job count
    // and output path. Positional bench args survive.
    const std::string path_a = ::testing::TempDir() + "args_a.json";
    const std::string path_b = ::testing::TempDir() + "args_b.json";
    auto doc = [](const std::string &path, unsigned jobs) {
        std::string jobs_str = std::to_string(jobs);
        std::vector<std::string> arg_strings = {
            "bench", "--json", path, "--jobs", jobs_str, "custom7"};
        std::vector<char *> argv;
        for (std::string &s : arg_strings)
            argv.push_back(s.data());
        BenchSession session("bench", static_cast<int>(argv.size()),
                             argv.data());
        EXPECT_EQ(session.jobs(), jobs);
    };
    doc(path_a, 1);
    doc(path_b, 8);
    const std::string a = slurp(path_a);
    EXPECT_EQ(a, slurp(path_b));
    EXPECT_NE(a.find("custom7"), std::string::npos);
    EXPECT_EQ(a.find("--jobs"), std::string::npos);
    EXPECT_EQ(a.find(path_a), std::string::npos);
}

TEST(SweepRunner, NoSessionFallsBackToDirectExecution)
{
    // Without a live session there is nowhere to memoize: run() must be
    // a no-op and runOn() still computes correct results on demand.
    const DatasetSpec sd = *findDataset("sd");
    SweepRunner sweep(4);
    sweep.add(sd, AlgorithmKind::BFS, MachineKind::Baseline);
    sweep.run();
    const RunOutcome direct =
        runOn(sd, AlgorithmKind::BFS, MachineKind::Baseline);
    EXPECT_GT(direct.cycles, 0u);
}

} // namespace
} // namespace omega::bench
