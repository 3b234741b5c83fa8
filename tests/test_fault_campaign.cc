/**
 * @file
 * Fault-campaign correctness oracle (the CI gate).
 *
 * Two guarantees, checked over {BFS, SSSP, CC} x {baseline, omega} —
 * integer algorithms, so "matches" means bit-identical, no ULP budget:
 *
 *  1. Transient-fault recovery is lossless: a seeded campaign with
 *     retries enabled computes EXACTLY the vertex properties of the
 *     fault-free machine run (and of the functional reference). Faults
 *     may only move cycles around.
 *  2. Forced persistent degradation is correct: with every offload
 *     NACKing and one-strike poison/demotion thresholds, the machine
 *     finishes the run on the cache path and still matches the
 *     functional reference through the differential harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "omega/omega_machine.hh"
#include "sim/baseline_machine.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/machine_registry.hh"
#include "sim/params.hh"
#include "sim/snapshot.hh"
#include "testing/capture.hh"
#include "testing/differential.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace omega {
namespace {

using testing::AlgoCapture;
using testing::captureAlgorithm;
using testing::compareCaptures;
using testing::DiffOptions;
using testing::FuzzFamily;
using testing::FuzzSpec;
using testing::MachineVariant;
using testing::runDifferentialCase;

constexpr double kScale = 1.0 / 64.0;

const std::vector<AlgorithmKind> kIntegerAlgos = {
    AlgorithmKind::BFS, AlgorithmKind::SSSP, AlgorithmKind::CC};

FuzzSpec
campaignGraph()
{
    FuzzSpec spec;
    spec.family = FuzzFamily::Rmat;
    spec.seed = 29;
    spec.vertices = 256;
    spec.edge_factor = 8;
    spec.symmetrize = true;
    return spec;
}

FaultPlan
transientPlan()
{
    std::string error;
    const auto p = FaultPlan::parse(
        "seed=23,ecc=0.03,nack=0.08,drop=0.02,delay=0.02,dram=0.05",
        &error);
    EXPECT_TRUE(p.has_value()) << error;
    return p.value_or(FaultPlan{});
}

enum class Machine { Baseline, Omega };

std::unique_ptr<MemorySystem>
makeMachine(Machine which)
{
    if (which == Machine::Baseline) {
        return std::make_unique<BaselineMachine>(
            MachineParams::baseline().scaledCapacities(kScale));
    }
    return std::make_unique<OmegaMachine>(
        MachineParams::omega().scaledCapacities(kScale));
}

TEST(FaultCampaign, TransientRecoveryIsBitIdentical)
{
    const Graph g = campaignGraph().materialize();
    const FaultPlan plan = transientPlan();
    for (Machine which : {Machine::Baseline, Machine::Omega}) {
        for (AlgorithmKind algo : kIntegerAlgos) {
            auto clean = makeMachine(which);
            const AlgoCapture expected =
                captureAlgorithm(algo, g, clean.get());

            auto faulty = makeMachine(which);
            faulty->armFaults(plan);
            const AlgoCapture got = captureAlgorithm(algo, g, faulty.get());

            // max_ulps 0: every property must match bit for bit.
            const auto failures =
                compareCaptures(expected, got, /*max_ulps=*/0);
            EXPECT_TRUE(failures.empty())
                << clean->name() << " / " << algorithmName(algo) << ": "
                << (failures.empty() ? "" : failures.front());

            // The functional reference agrees too.
            const AlgoCapture func = captureAlgorithm(algo, g, nullptr);
            EXPECT_TRUE(compareCaptures(func, got, /*max_ulps=*/0).empty())
                << clean->name() << " / " << algorithmName(algo)
                << " diverged from the functional reference";
        }
    }
}

TEST(FaultCampaign, CampaignActuallyInjects)
{
    // Guard against a vacuous oracle: the transient campaign must fire
    // real events on the omega machine.
    const Graph g = campaignGraph().materialize();
    auto mach = makeMachine(Machine::Omega);
    mach->armFaults(transientPlan());
    (void)captureAlgorithm(AlgorithmKind::BFS, g, mach.get());
    ASSERT_NE(mach->faultInjector(), nullptr);
    EXPECT_GT(mach->faultInjector()->totalEvents(), 0u);
}

TEST(FaultCampaign, ForcedDegradationMatchesFunctionalReference)
{
    // Retry exhaustion on every offload + one-strike thresholds: lines
    // poison, scratchpads demote, atomics run on the core — and the
    // differential harness must still pass against the functional run.
    std::string error;
    const auto plan = FaultPlan::parse(
        "seed=23,nack-always=1,retries=2,backoff=4,"
        "line-threshold=1,sp-threshold=1",
        &error);
    ASSERT_TRUE(plan.has_value()) << error;

    DiffOptions opts;
    opts.check_timing = false;
    opts.variants = {MachineVariant::Omega};
    opts.fault_plan = plan;
    for (AlgorithmKind algo : kIntegerAlgos) {
        const auto result =
            runDifferentialCase(campaignGraph(), algo, opts);
        ASSERT_FALSE(result.skipped);
        EXPECT_TRUE(result.passed()) << result.summary();
    }
}

/** Digest of an armed run: cycles + full stat tree + the injector's
 *  event totals and running trace digest (the event log state). */
std::uint64_t
armedDigest(const MemorySystem &m)
{
    std::ostringstream os;
    os << m.name() << '|' << m.cycles() << '|';
    const StatGroup *tree = m.statTree();
    EXPECT_NE(tree, nullptr);
    if (tree != nullptr) {
        JsonWriter w(os, /*pretty=*/false);
        tree->writeJson(w);
        EXPECT_TRUE(w.complete());
    }
    EXPECT_NE(m.faultInjector(), nullptr);
    if (m.faultInjector() != nullptr) {
        os << '|' << m.faultInjector()->totalEvents() << '|'
           << m.faultInjector()->traceDigest();
    }
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Every registered timing machine, in canonical registry order. */
const std::vector<std::string> kRegistryMachines = {
    "baseline", "grasp", "omega", "omega-sp-only"};

std::unique_ptr<MemorySystem>
makeRegistryMachine(const std::string &name)
{
    const MachineRegistryEntry &entry = machineEntry(name);
    return entry.make(entry.make_params());
}

TEST(FaultCampaign, ArmedBfsDigestIsReproducibleOnEveryMachine)
{
    // Fault injection draws from a deterministic per-run RNG keyed on
    // event order, and recovery retries re-enter the scripted and
    // buffered engine paths mid-phase. Two armed runs on fresh machines
    // must therefore agree bit for bit, on every registry machine and
    // over a power-law, a mesh and a maximum-skew graph.
    const FaultPlan plan = transientPlan();
    const std::vector<FuzzSpec> graphs = {
        {FuzzFamily::Rmat, 7, 256, 8, true},
        {FuzzFamily::RoadMesh, 11, 225, 4, true},
        {FuzzFamily::Star, 13, 128, 1, true},
    };
    for (const FuzzSpec &spec : graphs) {
        const Graph g = spec.materialize();
        for (const std::string &machine : kRegistryMachines) {
            std::uint64_t digests[2] = {};
            for (std::uint64_t &digest : digests) {
                auto m = makeRegistryMachine(machine);
                m->armFaults(plan);
                (void)runAlgorithmOnMachine(AlgorithmKind::BFS, g, m.get(),
                                            EngineOptions{});
                digest = armedDigest(*m);
            }
            EXPECT_EQ(digests[0], digests[1])
                << machine << " / " << spec.describe()
                << ": armed BFS is not reproducible";
        }
    }
}

TEST(FaultCampaign, ArmedResumeReproducesUninterruptedDigest)
{
    // A checkpoint taken mid-campaign carries the injector's xorshift
    // stream, escalation counters and running trace digest; the resumed
    // run must fire the exact remaining fault sequence. Checked on every
    // registry machine.
    const Graph g = campaignGraph().materialize();
    const FaultPlan plan = transientPlan();
    const std::string path =
        ::testing::TempDir() + "armed_resume.snap";
    for (const std::string &machine : kRegistryMachines) {
        auto ref = makeRegistryMachine(machine);
        ref->armFaults(plan);
        (void)runAlgorithmOnMachine(AlgorithmKind::BFS, g, ref.get(),
                                    EngineOptions{});
        const std::uint64_t uninterrupted = armedDigest(*ref);

        const std::string key = "armed/" + machine;
        CheckpointCoordinator coord;
        coord.configureSave(path, /*every=*/0);
        coord.test_stop = [](std::uint64_t it) { return it == 2; };
        coord.beginRun(key);
        {
            auto m = makeRegistryMachine(machine);
            m->armFaults(plan);
            EngineOptions opts;
            opts.checkpoint = &coord;
            EXPECT_THROW(runAlgorithmOnMachine(AlgorithmKind::BFS, g,
                                               m.get(), opts),
                         CheckpointInterrupt);
        }
        CheckpointCoordinator resume;
        resume.setResumePayload(readSnapshotFile(path));
        resume.beginRun(key);
        auto m = makeRegistryMachine(machine);
        m->armFaults(plan);
        EngineOptions opts;
        opts.checkpoint = &resume;
        (void)runAlgorithmOnMachine(AlgorithmKind::BFS, g, m.get(), opts);
        EXPECT_FALSE(resume.resumePending());
        EXPECT_EQ(armedDigest(*m), uninterrupted)
            << machine << " armed resume diverged";
    }
    std::remove(path.c_str());
}

TEST(FaultCampaign, DegradedRunLandsOnCachePath)
{
    std::string error;
    const auto plan = FaultPlan::parse(
        "seed=23,nack-always=1,retries=1,backoff=4,"
        "line-threshold=1,sp-threshold=1",
        &error);
    ASSERT_TRUE(plan.has_value()) << error;
    const Graph g = campaignGraph().materialize();
    OmegaMachine mach(MachineParams::omega().scaledCapacities(kScale));
    mach.armFaults(*plan);
    (void)captureAlgorithm(AlgorithmKind::CC, g, &mach);
    const FaultCounters &c = mach.faultInjector()->counters();
    EXPECT_GT(c.degraded_atomics, 0u);
    EXPECT_GT(c.lines_poisoned, 0u);
    EXPECT_GT(mach.controller().demotedScratchpads(), 0u);
}

} // namespace
} // namespace omega
