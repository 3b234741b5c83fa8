/**
 * @file
 * Snapshot format and checkpoint/restore correctness.
 *
 * Three layers are covered here:
 *
 *  1. The byte format: SnapshotWriter/SnapshotReader primitive
 *     round-trips and bounds checking, file framing (magic, version,
 *     size, FNV-64 checksum), atomic write, and the journal's
 *     torn-tail tolerance.
 *  2. The error taxonomy: a truncated file, a flipped payload bit, a
 *     bumped version and a non-snapshot file must each be rejected
 *     with their own distinct exception type — a snapshot is restored
 *     exactly or refused loudly, never silently mis-restored.
 *  3. The resume contract: for every registered machine, interrupting
 *     a run at an arbitrary iteration boundary (via the coordinator's
 *     test hook), then restoring the flushed checkpoint into a fresh
 *     machine — or a dirty one that ran another workload first — and
 *     re-entering the loop, must reproduce the uninterrupted run's
 *     digest — cycles, the complete stat tree and the algorithm's
 *     outputs — bit for bit.
 *
 * Last, the machine payloads are pinned per registry machine, the
 * algorithm checkpoints, an interval recorder and a sweep-journal
 * record are pinned whole, and corrupt counts in the interval recorder
 * and the scratchpad busy table are rejected before anything is
 * allocated for them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "algorithms/bfs.hh"
#include "algorithms/components.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "bench_common.hh"
#include "graph/datasets.hh"
#include "omega/scratchpad_controller.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/field_visitor.hh"
#include "sim/interval_stats.hh"
#include "sim/machine_registry.hh"
#include "sim/snapshot.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace {

/** The largest single operator new request since the last reset: the
 *  count-before-allocate tests bound it by the payload size. */
std::atomic<std::size_t> g_largest_new{0};

void *
trackedNew(std::size_t size)
{
    std::size_t seen = g_largest_new.load();
    while (size > seen && !g_largest_new.compare_exchange_weak(seen, size)) {
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return trackedNew(size); }
void *operator new[](std::size_t size) { return trackedNew(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace omega {
namespace {

using testing::FuzzFamily;
using testing::FuzzSpec;

// ---------------------------------------------------------------------
// Layer 1: writer/reader and file framing.
// ---------------------------------------------------------------------

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    SnapshotWriter w;
    w.putU8(0xab);
    w.putBool(true);
    w.putBool(false);
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putF64(-1234.5678);
    w.putString("hello snapshot");
    w.putString("");
    const std::vector<std::uint64_t> v64 = {1, 2, 3, 0xffffffffffffffffull};
    w.putU64Vector(v64);
    const std::vector<std::uint32_t> v32 = {7, 0, 9};
    w.putU32Vector(v32);
    const std::vector<std::uint8_t> v8 = {0x10, 0x20};
    w.putU8Vector(v8);
    const double raw[3] = {1.0, 2.5, -3.75};
    w.putBytes(raw, sizeof raw);

    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_DOUBLE_EQ(r.getF64(), -1234.5678);
    EXPECT_EQ(r.getString(), "hello snapshot");
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.getU64Vector(), v64);
    EXPECT_EQ(r.getU32Vector(), v32);
    EXPECT_EQ(r.getByteVector(), v8);
    double back[3] = {};
    r.getBytesInto(back, sizeof back);
    EXPECT_EQ(back[0], 1.0);
    EXPECT_EQ(back[1], 2.5);
    EXPECT_EQ(back[2], -3.75);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotFormat, ReaderBoundsChecked)
{
    SnapshotWriter w;
    w.putU32(42);
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.getU32(), 42u);
    EXPECT_THROW(r.getU64(), SnapshotTruncatedError);
}

TEST(SnapshotFormat, HugeVectorCountIsTruncatedNotAllocated)
{
    // A corrupt element count must be rejected against the bytes left
    // before the reader allocates: 2^40 elements would be bad_alloc and
    // 2^62 a length_error if reserved first.
    for (const std::uint64_t n : {std::uint64_t{1} << 40,
                                  std::uint64_t{1} << 62}) {
        SnapshotWriter w;
        w.putU64(n);
        w.putU64(7);
        SnapshotReader r64(w.bytes());
        EXPECT_THROW(r64.getU64Vector(), SnapshotTruncatedError) << n;
        SnapshotReader r32(w.bytes());
        EXPECT_THROW(r32.getU32Vector(), SnapshotTruncatedError) << n;
    }
    // The bound is exact: a count the payload can hold still reads.
    SnapshotWriter w;
    w.putU64(2);
    w.putU64(7);
    SnapshotReader r32(w.bytes());
    EXPECT_EQ(r32.getU32Vector(), (std::vector<std::uint32_t>{7, 0}));
    SnapshotReader r64(w.bytes());
    EXPECT_THROW(r64.getU64Vector(), SnapshotTruncatedError);
}

TEST(SnapshotFormat, FixedSizeFieldRejectsWrongSize)
{
    SnapshotWriter w;
    const std::uint32_t raw[2] = {1, 2};
    w.putBytes(raw, sizeof raw);
    SnapshotReader r(w.bytes());
    std::uint32_t back[4] = {};
    EXPECT_THROW(r.getBytesInto(back, sizeof back), SnapshotStateError);
}

TEST(SnapshotFormat, BlobFramingPatchesSize)
{
    SnapshotWriter w;
    const std::size_t blob = w.beginBlob();
    w.putU64(7);
    w.putString("xyz");
    w.endBlob(blob);

    SnapshotReader r(w.bytes());
    const std::uint64_t size = r.getU64();
    const std::size_t start = r.position();
    EXPECT_EQ(r.getU64(), 7u);
    EXPECT_EQ(r.getString(), "xyz");
    EXPECT_EQ(r.position() - start, size);
    EXPECT_EQ(r.remaining(), 0u);
}

/** A small framed file on disk for the taxonomy tests. */
std::string
writeSampleFile(const std::string &name)
{
    SnapshotWriter w;
    w.putString("sample-run-key");
    for (std::uint64_t i = 0; i < 64; ++i)
        w.putU64(i * 2654435761ull);
    const std::string path = ::testing::TempDir() + name;
    writeSnapshotFile(path, w.bytes());
    return path;
}

std::vector<char>
slurpBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<char>((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
}

void
spewBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotFile, RoundTripAndAtomicWrite)
{
    const std::string path = writeSampleFile("roundtrip.snap");
    SnapshotWriter w;
    w.putString("sample-run-key");
    for (std::uint64_t i = 0; i < 64; ++i)
        w.putU64(i * 2654435761ull);
    EXPECT_EQ(readSnapshotFile(path), w.bytes());
    // The atomic-write protocol renames the tmp file over the target;
    // no tmp litter may survive a successful write.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileIsSnapshotError)
{
    EXPECT_THROW(
        readSnapshotFile(::testing::TempDir() + "no-such-file.snap"),
        SnapshotError);
}

TEST(SnapshotFile, BadMagicIsFormatError)
{
    const std::string path = writeSampleFile("badmagic.snap");
    auto bytes = slurpBytes(path);
    bytes[0] ^= 0x5a; // magic occupies bytes [0, 8)
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotFormatError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, VersionBumpIsVersionError)
{
    const std::string path = writeSampleFile("badversion.snap");
    auto bytes = slurpBytes(path);
    bytes[8] = static_cast<char>(kSnapshotVersion + 1); // version u32 at 8
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotVersionError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, OlderVersionFilesAreVersionErrors)
{
    // Version 2 dropped the script-replay counters from machine sections
    // and journal records; version 3 lays machine sections out in
    // visit() order. An older file (same framing, old layout) is refused
    // before any payload byte is decoded.
    ASSERT_EQ(kSnapshotVersion, 3u);
    for (const std::uint8_t version : {1, 2}) {
        const std::string path = writeSampleFile("old_version.snap");
        auto bytes = slurpBytes(path);
        bytes[8] = static_cast<char>(version); // u32 LE at [8, 12)
        bytes[9] = bytes[10] = bytes[11] = 0;
        spewBytes(path, bytes);
        EXPECT_THROW(readSnapshotFile(path), SnapshotVersionError)
            << "version " << unsigned{version};
        std::remove(path.c_str());
    }
}

TEST(SnapshotFile, TruncationIsTruncatedError)
{
    const std::string path = writeSampleFile("truncated.snap");
    auto bytes = slurpBytes(path);
    bytes.resize(bytes.size() - 17);
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotTruncatedError);
    // A file shorter than the header itself is also truncation.
    bytes.resize(11);
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotTruncatedError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, BitFlipIsChecksumError)
{
    const std::string path = writeSampleFile("bitflip.snap");
    auto bytes = slurpBytes(path);
    bytes[bytes.size() / 2] ^= 0x01; // somewhere inside the payload
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotChecksumError);
    std::remove(path.c_str());
}

TEST(SnapshotJournal, AppendReadAndTornTail)
{
    const std::string path = ::testing::TempDir() + "journal.j";
    std::remove(path.c_str());
    EXPECT_TRUE(readJournalRecords(path).empty()); // missing file

    std::vector<std::vector<std::uint8_t>> written;
    for (int i = 0; i < 3; ++i) {
        SnapshotWriter w;
        w.putString("record-" + std::to_string(i));
        w.putU64(static_cast<std::uint64_t>(i) * 1000);
        appendJournalRecord(path, w.bytes());
        written.push_back(w.bytes());
    }
    EXPECT_EQ(readJournalRecords(path), written);

    // A crash mid-append leaves a torn record at the tail; the intact
    // prefix must still load (those runs are kept, the torn one is
    // simply re-executed).
    {
        std::ofstream os(path, std::ios::binary | std::ios::app);
        const char garbage[13] = "OMGSNAP\0torn";
        os.write(garbage, sizeof garbage);
    }
    EXPECT_EQ(readJournalRecords(path), written);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Layer 3: interrupt-at-arbitrary-iteration + resume reproduces the
// uninterrupted digest, for every machine in the registry.
// ---------------------------------------------------------------------

/** Every registered timing machine, in canonical registry order. */
const std::vector<std::string> kMachines = {"baseline", "grasp", "omega",
                                            "omega-sp-only"};

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Digest of the run's full simulated outcome: cycles and the complete
 *  stat tree. */
std::uint64_t
machineDigest(const MemorySystem &m)
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
    return fnv1a(os.str());
}

/**
 * Run @p algo and return a digest of its functional outputs: the state
 * its checkpoint section must carry across a resume (property arrays
 * and loop scalars). Algorithms without a section digest as 0.
 */
std::uint64_t
runAlgo(AlgorithmKind algo, const Graph &g, MemorySystem *m,
        CheckpointCoordinator *coord)
{
    EngineOptions opts;
    opts.checkpoint = coord;
    std::ostringstream os;
    const auto rows = [&os](const auto &values) {
        for (const auto v : values)
            os << v << ',';
        os << '|';
    };
    switch (algo) {
      case AlgorithmKind::PageRank: {
        // Multiple iterations so an interrupt can land strictly inside
        // the run (the registry dispatch simulates a single iteration).
        const PageRankResult r =
            runPageRank(g, m, /*max_iters=*/4, 0.85, 0.0, opts);
        std::vector<std::uint64_t> bits;
        for (const double x : r.rank)
            bits.push_back(std::bit_cast<std::uint64_t>(x));
        rows(bits);
        os << r.iterations;
        break;
      }
      case AlgorithmKind::BFS: {
        const BfsResult r = runBfs(g, defaultRoot(g), m, opts);
        rows(r.parent);
        os << r.reached << '|' << r.rounds;
        break;
      }
      case AlgorithmKind::SSSP: {
        const SsspResult r = runSssp(g, defaultRoot(g), m, opts);
        rows(r.dist);
        os << r.rounds;
        break;
      }
      case AlgorithmKind::CC: {
        const CcResult r = runComponents(g, m, opts);
        rows(r.label);
        os << r.rounds;
        break;
      }
      default:
        runAlgorithmOnMachine(algo, g, m, opts);
        return 0;
    }
    return fnv1a(os.str());
}

/** Digest of everything a resumed run must reproduce: the machine
 *  (machineDigest()) and the algorithm's outputs (runAlgo()). */
std::uint64_t
runDigest(const MemorySystem &m, std::uint64_t outputs)
{
    return fnv1a(std::to_string(machineDigest(m)) + '|' +
                 std::to_string(outputs));
}

std::unique_ptr<MemorySystem>
makeMachine(const std::string &name)
{
    const MachineRegistryEntry &entry = machineEntry(name);
    return entry.make(entry.make_params());
}

/** runDigest() of @p algo run uninterrupted on a fresh @p machine. */
std::uint64_t
uninterruptedDigest(const Graph &g, const std::string &machine,
                    AlgorithmKind algo)
{
    auto m = makeMachine(machine);
    const std::uint64_t outputs = runAlgo(algo, g, m.get(), nullptr);
    return runDigest(*m, outputs);
}

/**
 * Run a different algorithm on a different graph on @p m, so a restore
 * into it lands on stale state everywhere: BFS on a road mesh before a
 * PageRank resume, PageRank before anything else.
 */
void
dirtyMachine(MemorySystem *m, AlgorithmKind resumed)
{
    if (resumed == AlgorithmKind::PageRank) {
        const Graph mesh = FuzzSpec{FuzzFamily::RoadMesh, 5, 196, 4, true}
                               .materialize();
        runAlgo(AlgorithmKind::BFS, mesh, m, nullptr);
    } else {
        const Graph rmat = FuzzSpec{FuzzFamily::Rmat, 19, 192, 6, true}
                               .materialize();
        runAlgo(AlgorithmKind::PageRank, rmat, m, nullptr);
    }
}

/**
 * Interrupt @p algo on @p machine at iteration @p stop (test hook: no
 * signals, but the identical coordinator code path), then restore the
 * flushed checkpoint and run to completion. The restore goes into a
 * fresh machine, or with @p dirty into one that first ran another
 * workload (dirtyMachine()): any mutable member the machine's visit()
 * misses then leaks into the resumed run. Returns the resumed run's
 * runDigest(), so a section that drops a property array or a loop
 * scalar diverges too.
 */
std::uint64_t
interruptAndResumeDigest(const Graph &g, const std::string &machine,
                         AlgorithmKind algo, std::uint64_t stop, bool dirty)
{
    const std::string path = ::testing::TempDir() + "resume_" + machine +
                             "_" + std::to_string(stop) + ".snap";
    const std::string key = "test-run/" + machine;

    CheckpointCoordinator coord;
    coord.configureSave(path, /*every=*/0);
    coord.test_stop = [stop](std::uint64_t it) { return it == stop; };
    coord.beginRun(key);
    {
        auto m = makeMachine(machine);
        EXPECT_THROW(runAlgo(algo, g, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    EXPECT_TRUE(resume.resumePending());
    EXPECT_EQ(resume.resumeRunKey(), key);
    auto m = makeMachine(machine);
    if (dirty)
        dirtyMachine(m.get(), algo);
    resume.beginRun(key);
    const std::uint64_t outputs = runAlgo(algo, g, m.get(), &resume);
    EXPECT_FALSE(resume.resumePending()) << "resume never consumed";
    EXPECT_EQ(resume.restoredIteration(), stop);
    std::remove(path.c_str());
    return runDigest(*m, outputs);
}

TEST(SnapshotResume, PageRankResumeMatchesUninterruptedOnEveryMachine)
{
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    for (const std::string &machine : kMachines) {
        const std::uint64_t uninterrupted =
            uninterruptedDigest(g, machine, AlgorithmKind::PageRank);
        for (const bool dirty : {false, true}) {
            for (const std::uint64_t stop : {1u, 2u, 3u}) {
                EXPECT_EQ(interruptAndResumeDigest(g, machine,
                                                   AlgorithmKind::PageRank,
                                                   stop, dirty),
                          uninterrupted)
                    << machine << (dirty ? " (dirty)" : "")
                    << " diverged after resume from iteration " << stop;
            }
        }
    }
}

/**
 * The resume matrix of a frontier algorithm (BFS, SSSP, CC): every
 * registry machine, clean and dirty, from a few iterations of a road
 * mesh (many short sparse rounds) and an rMat graph (dense and sparse
 * frontiers); the frontier itself round-trips through the section.
 */
void
expectFrontierResumesMatch(AlgorithmKind algo)
{
    struct Case
    {
        FuzzSpec spec;
        std::vector<std::uint64_t> stops;
    };
    const std::vector<Case> cases = {
        {{FuzzFamily::RoadMesh, 11, 225, 4, true}, {1, 3}},
        {{FuzzFamily::Rmat, 7, 256, 8, true}, {2}},
    };
    for (const Case &c : cases) {
        const Graph g = c.spec.materialize();
        for (const std::string &machine : kMachines) {
            const std::uint64_t uninterrupted =
                uninterruptedDigest(g, machine, algo);
            for (const bool dirty : {false, true}) {
                for (const std::uint64_t stop : c.stops) {
                    EXPECT_EQ(interruptAndResumeDigest(g, machine, algo,
                                                       stop, dirty),
                              uninterrupted)
                        << algorithmName(algo) << " on " << machine
                        << (dirty ? " (dirty)" : "") << " / "
                        << c.spec.describe()
                        << " diverged after resume from iteration " << stop;
                }
            }
        }
    }
}

TEST(SnapshotResume, BfsResumeMatchesUninterruptedOnEveryMachine)
{
    // BFS drives the buffered push path with atomics.
    expectFrontierResumesMatch(AlgorithmKind::BFS);
}

TEST(SnapshotResume, SsspResumeMatchesUninterruptedOnEveryMachine)
{
    expectFrontierResumesMatch(AlgorithmKind::SSSP);
}

TEST(SnapshotResume, CcResumeMatchesUninterruptedOnEveryMachine)
{
    expectFrontierResumesMatch(AlgorithmKind::CC);
}

TEST(SnapshotResume, CheckpointCadenceDoesNotPerturbTheRun)
{
    // Saving every iteration is observation only: the digest must be
    // identical to a run that never checkpoints.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::string path = ::testing::TempDir() + "cadence.snap";
    auto ref = makeMachine("omega");
    runAlgo(AlgorithmKind::BFS, g, ref.get(), nullptr);

    CheckpointCoordinator coord;
    coord.configureSave(path, /*every=*/1);
    coord.beginRun("cadence-run");
    auto m = makeMachine("omega");
    runAlgo(AlgorithmKind::BFS, g, m.get(), &coord);
    EXPECT_EQ(machineDigest(*m), machineDigest(*ref));
    // The file left behind is the last completed iteration's snapshot
    // and must verify cleanly.
    EXPECT_NO_THROW(readSnapshotFile(path));
    std::remove(path.c_str());
}

TEST(SnapshotResume, PostMortemDumpIsNotResumable)
{
    // A watchdog post-mortem uses the same container with
    // resumable=false; handing it to --resume must be refused with a
    // state error, not silently restored into a live run.
    SnapshotWriter w;
    w.putString("dead-run");
    w.putU64(0);
    w.putBool(false); // post-mortem marker
    w.putU64(0);      // no sections
    CheckpointCoordinator coord;
    EXPECT_THROW(coord.setResumePayload(w.bytes()), SnapshotStateError);
}

TEST(SnapshotResume, WrongAlgorithmSectionIsRejected)
{
    // A BFS checkpoint restored into a CC run: the section names
    // diverge and the restore must stop before touching any state.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::string path = ::testing::TempDir() + "wrongalgo.snap";
    const std::string key = "shared-key";

    CheckpointCoordinator coord;
    coord.configureSave(path, 0);
    coord.test_stop = [](std::uint64_t it) { return it == 1; };
    coord.beginRun(key);
    {
        auto m = makeMachine("baseline");
        EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    resume.beginRun(key);
    auto m = makeMachine("baseline");
    EXPECT_THROW(runAlgo(AlgorithmKind::CC, g, m.get(), &resume),
                 SnapshotStateError);
    std::remove(path.c_str());
}

TEST(SnapshotResume, WrongGraphIsRejected)
{
    // Same machine, same algorithm, different graph: the property
    // arrays disagree in size and the payload must be refused (the
    // exact failing layer varies, but it is always a SnapshotError —
    // never a silent mis-restore).
    const Graph g1 = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                         .materialize();
    const Graph g2 = FuzzSpec{FuzzFamily::RoadMesh, 11, 225, 4, true}
                         .materialize();
    const std::string path = ::testing::TempDir() + "wronggraph.snap";
    const std::string key = "shared-key";

    CheckpointCoordinator coord;
    coord.configureSave(path, 0);
    coord.test_stop = [](std::uint64_t it) { return it == 1; };
    coord.beginRun(key);
    {
        auto m = makeMachine("baseline");
        EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g1, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    resume.beginRun(key);
    auto m = makeMachine("baseline");
    EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g2, m.get(), &resume),
                 SnapshotError);
    std::remove(path.c_str());
}

TEST(SnapshotResume, UnarmedFaultMachineRejectsArmedSnapshot)
{
    // The machine section encodes whether a fault campaign was armed;
    // restoring an armed snapshot into an unarmed machine (or vice
    // versa) is a state mismatch, not a silent drop of the injector.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::string path = ::testing::TempDir() + "armmismatch.snap";
    const std::string key = "shared-key";
    std::string error;
    const auto plan = FaultPlan::parse("seed=23,ecc=0.03", &error);
    ASSERT_TRUE(plan.has_value()) << error;

    CheckpointCoordinator coord;
    coord.configureSave(path, 0);
    coord.test_stop = [](std::uint64_t it) { return it == 1; };
    coord.beginRun(key);
    {
        auto m = makeMachine("baseline");
        m->armFaults(*plan);
        EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    resume.beginRun(key);
    auto m = makeMachine("baseline"); // NOT armed
    EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g, m.get(), &resume),
                 SnapshotStateError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Layout pins and restore hardening.
// ---------------------------------------------------------------------

TEST(SnapshotLayout, MachinePayloadsArePinned)
{
    // The machine section after a fixed 2-iteration PageRank, per
    // registry machine. Any change to a component's visit() order or
    // encoding moves a pin — and must bump kSnapshotVersion.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::vector<std::pair<std::string, std::uint64_t>> pins = {
        {"baseline", 0x64c33e9b9c77bda5ull},
        {"grasp", 0xb382369f1cf99321ull},
        {"omega", 0x9ec0bf5fca3e1bd8ull},
        {"omega-sp-only", 0x775149dcffe742feull},
    };
    for (const auto &[machine, pin] : pins) {
        auto m = makeMachine(machine);
        runPageRank(g, m.get(), /*max_iters=*/2, 0.85, 0.0, EngineOptions{});
        SnapshotWriter w;
        saveFields(w, *m);
        EXPECT_EQ(snapshotChecksum(w.bytes().data(), w.size()), pin)
            << machine << " payload layout moved";
    }
}

/** FNV digest of the checkpoint payload @p algo flushes on @p machine
 *  when stopped at iteration @p stop. */
std::uint64_t
checkpointPayloadDigest(const Graph &g, const std::string &machine,
                        AlgorithmKind algo, std::uint64_t stop)
{
    const std::string path = ::testing::TempDir() + "pin_" + machine + ".snap";
    CheckpointCoordinator coord;
    coord.configureSave(path, /*every=*/0);
    coord.test_stop = [stop](std::uint64_t it) { return it == stop; };
    coord.beginRun("pin/" + machine);
    auto m = makeMachine(machine);
    EXPECT_THROW(runAlgo(algo, g, m.get(), &coord), CheckpointInterrupt);
    const std::vector<std::uint8_t> payload = readSnapshotFile(path);
    std::remove(path.c_str());
    return snapshotChecksum(payload.data(), payload.size());
}

TEST(SnapshotLayout, SectionPayloadsArePinned)
{
    // Every record a checkpoint or a journal carries besides the
    // machine: the engine and algorithm sections (whole payloads), the
    // interval recorder and one sweep-journal record. A moved pin means
    // the wire format changed and kSnapshotVersion must be bumped.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    struct Pin
    {
        AlgorithmKind algo;
        std::string machine;
        std::uint64_t digest;
    };
    const std::vector<Pin> pins = {
        {AlgorithmKind::PageRank, "baseline", 0x6f59cd96f51211ebull},
        {AlgorithmKind::PageRank, "omega", 0x58123cd6bb0dd452ull},
        {AlgorithmKind::BFS, "baseline", 0x3bbbeacd2fa0b1a5ull},
        {AlgorithmKind::BFS, "omega", 0x9c048779b06abfe3ull},
        {AlgorithmKind::SSSP, "baseline", 0xa9625f3f9681c0fbull},
        {AlgorithmKind::SSSP, "omega", 0xb9a262d68d2ca1c6ull},
        {AlgorithmKind::CC, "baseline", 0x0789871077c45124ull},
        {AlgorithmKind::CC, "omega", 0x1d2d6d60c3aacc4aull},
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(checkpointPayloadDigest(g, pin.machine, pin.algo, 2),
                  pin.digest)
            << algorithmName(pin.algo) << " on " << pin.machine
            << " checkpoint payload moved";
    }

    {
        // Cadence, iteration and final samples from an OMEGA run, so
        // the per-engine and per-scratchpad rows are not empty.
        auto m = makeMachine("omega");
        IntervalRecorder rec(2000);
        m->attachIntervalRecorder(&rec);
        runAlgo(AlgorithmKind::PageRank, g, m.get(), nullptr);
        m->recordFinalSample();
        std::set<SampleKind> kinds;
        for (const IntervalSample &s : rec.samples()) {
            kinds.insert(s.kind);
            EXPECT_FALSE(s.pisc_busy_cycles.empty());
            EXPECT_FALSE(s.sp_accesses.empty());
        }
        EXPECT_EQ(kinds.size(), 3u);
        SnapshotWriter w;
        saveFields(w, rec);
        EXPECT_EQ(snapshotChecksum(w.bytes().data(), w.size()),
                  0x8cf5232be5c95d08ull)
            << "interval recorder payload moved";
    }

    {
        // One sweep-journal record with stats, stat tree and samples.
        const std::string dir = ::testing::TempDir();
        const std::string snap = dir + "pin_journal.snap";
        const std::string json = dir + "pin_journal.json";
        std::vector<std::string> args = {"bench_pin",  "--checkpoint",
                                         snap,         "--json",
                                         json,         "--interval",
                                         "2000"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        {
            bench::BenchSession session("bench_pin",
                                        static_cast<int>(argv.size()),
                                        argv.data());
            bench::runOn(*findDataset("sd"), AlgorithmKind::BFS,
                         bench::MachineKind::Omega);
        }
        const auto records = readJournalRecords(snap + ".journal");
        ASSERT_EQ(records.size(), 1u);
        EXPECT_EQ(snapshotChecksum(records[0].data(), records[0].size()),
                  0x7f9fda2a4731000dull)
            << "sweep-journal record moved";
        for (const std::string &p : {snap, snap + ".journal", json})
            std::remove(p.c_str());
    }
}

void
patchU64(std::vector<std::uint8_t> &bytes, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
readU64At(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    return v;
}

/** A saved recorder with one sample of one core row, and the offsets of
 *  its sample count, the sample's kind byte and its core count. */
struct RecorderPayload
{
    std::vector<std::uint8_t> bytes;
    std::size_t samples_at = 0;
    std::size_t kind_at = 0;
    std::size_t cores_at = 0;
};

RecorderPayload
savedRecorder()
{
    IntervalRecorder rec(100);
    StatsReport cum;
    cum.cycles = 150;
    rec.take(SampleKind::Cadence, 150, 1, cum, {CoreIntervalStats{1, 2, 3, 4}});
    SnapshotWriter w;
    saveFields(w, rec);
    SnapshotWriter report;
    saveFields(report, StatsReport{});
    RecorderPayload out;
    out.bytes = w.bytes();
    out.samples_at = 16 + report.size(); // cadence, next cadence, prev
    out.kind_at = out.samples_at + 16;   // count, t
    out.cores_at = out.kind_at + 9 + 2 * report.size(); // kind, it, cum, delta
    return out;
}

TEST(IntervalRecorderSnapshot, HugeCountsAreTruncatedNotAllocated)
{
    const RecorderPayload saved = savedRecorder();
    {
        IntervalRecorder rec(100);
        SnapshotReader r(saved.bytes);
        restoreFields(r, rec);
        EXPECT_EQ(r.remaining(), 0u);
        ASSERT_EQ(rec.samples().size(), 1u);
        EXPECT_EQ(rec.samples()[0].cores.size(), 1u);
    }
    for (const std::size_t at : {saved.samples_at, saved.cores_at}) {
        ASSERT_EQ(readU64At(saved.bytes, at), 1u) << "offset " << at;
        for (const std::uint64_t n : {std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 62}) {
            std::vector<std::uint8_t> bytes = saved.bytes;
            patchU64(bytes, at, n);
            IntervalRecorder rec(100);
            SnapshotReader r(bytes);
            EXPECT_THROW(restoreFields(r, rec), SnapshotTruncatedError)
                << "count " << n << " at offset " << at;
        }
    }
}

TEST(IntervalRecorderSnapshot, SampleCountIsBoundedByTheSmallestSample)
{
    // Every sample carries two whole StatsReports, so even an empty one
    // takes far more bytes than its t, kind, iteration and three counts.
    // A count the rest of the payload could hold only at that smaller
    // size is truncation, rejected before anything is allocated for it.
    IntervalRecorder rec(100);
    StatsReport cum;
    for (const Cycles t : {150u, 250u, 350u, 450u}) {
        cum.cycles = t;
        rec.take(SampleKind::Cadence, t, 1, cum,
                 {CoreIntervalStats{1, 2, 3, 4}});
    }
    SnapshotWriter w;
    saveFields(w, rec);
    SnapshotWriter report;
    saveFields(report, StatsReport{});
    std::vector<std::uint8_t> bytes = w.bytes();
    const std::size_t samples_at = 16 + report.size();
    ASSERT_EQ(readU64At(bytes, samples_at), 4u);
    const std::uint64_t forged =
        (bytes.size() - samples_at - 8) / (8 + 1 + 8 + 3 * 8);
    ASSERT_GT(forged, 4u);
    patchU64(bytes, samples_at, forged);

    IntervalRecorder back(100);
    SnapshotReader r(bytes);
    g_largest_new = 0;
    EXPECT_THROW(restoreFields(r, back), SnapshotTruncatedError);
    EXPECT_LE(g_largest_new.load(), bytes.size())
        << forged << " forged samples allocated more than the payload";
}

TEST(IntervalRecorderSnapshot, UnknownSampleKindIsStateError)
{
    RecorderPayload saved = savedRecorder();
    ASSERT_EQ(saved.bytes[saved.kind_at],
              static_cast<std::uint8_t>(SampleKind::Cadence));
    saved.bytes[saved.kind_at] =
        static_cast<std::uint8_t>(SampleKind::Final) + 1;
    IntervalRecorder rec(100);
    SnapshotReader r(saved.bytes);
    EXPECT_THROW(restoreFields(r, rec), SnapshotStateError);
}

TEST(ScratchpadControllerSnapshot, BusyVertexOutsideTheRunIsStateError)
{
    // 64 vertices, the first 32 resident in 4 scratchpads.
    const auto configured = [] {
        ScratchpadController c(4, 8);
        PropSpec p;
        p.start_addr = 0x1000;
        p.count = 64;
        c.configure({p}, 32);
        return c;
    };
    ScratchpadController busy = configured();
    busy.beginAtomic(5, 100, 50);
    SnapshotWriter w;
    saveFields(w, busy);
    // The one busy entry's vertex id: after the memo row (count + 4
    // slots), the slow-lookup and conflict counters and the entry count.
    const std::size_t vertex_at = 8 + 4 * 4 + 8 + 8 + 8;
    ASSERT_EQ(readU64At(w.bytes(), vertex_at - 8), 1u);
    for (const std::uint32_t vertex : {64u, 0xFFFFFFFFu}) {
        std::vector<std::uint8_t> bytes = w.bytes();
        for (int i = 0; i < 4; ++i)
            bytes[vertex_at + i] = static_cast<std::uint8_t>(vertex >> (8 * i));
        ScratchpadController c = configured();
        SnapshotReader r(bytes);
        EXPECT_THROW(restoreFields(r, c), SnapshotStateError) << vertex;
    }
    ScratchpadController c = configured();
    SnapshotReader r(w.bytes());
    restoreFields(r, c);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(c.isVertexBusy(5, 120));
}

} // namespace
} // namespace omega
