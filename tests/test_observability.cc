/**
 * @file
 * Tests for the observability layer: the streaming JSON writer, the
 * Chrome trace_event sink, the interval time-series recorder, and the
 * machine-level wiring (stat trees, trace attachment, the accounting
 * identity between interval deltas and the final StatsReport).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "sim/interval_stats.hh"
#include "sim/memory_system.hh"
#include "sim/stats_report.hh"
#include "testing/capture.hh"
#include "testing/differential.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/trace.hh"

namespace omega {
namespace {

using testing::captureAlgorithm;
using testing::FuzzSpec;
using testing::defaultFuzzMatrix;
using testing::MachineVariant;
using testing::machineVariantName;
using testing::makeMachine;

// ---------------------------------------------------------------------
// JsonWriter.

TEST(JsonWriter, CompactObjectsArraysAndScalars)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("a", std::uint64_t(1));
    w.key("b").beginArray();
    w.value(std::int64_t(-2));
    w.value("x");
    w.value(true);
    w.null();
    w.endArray();
    w.field("c", false);
    w.endObject();
    EXPECT_EQ(os.str(), R"({"a":1,"b":[-2,"x",true,null],"c":false})");
    EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, PrettyModeIndentsNestedContainers)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.key("inner").beginObject();
    w.field("n", std::uint64_t(7));
    w.endObject();
    w.endObject();
    const std::string out = os.str();
    EXPECT_NE(out.find("\"inner\": {"), std::string::npos);
    EXPECT_NE(out.find("\n    \"n\": 7"), std::string::npos);
    EXPECT_EQ(out.back(), '}');
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escape("line\nfeed\ttab\rret"),
              "line\\nfeed\\ttab\\rret");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
}

TEST(JsonWriter, DoublesRenderDeterministically)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginArray();
    w.value(2.0);   // integral doubles print as integers
    w.value(0.25);
    w.value(std::numeric_limits<double>::quiet_NaN()); // no NaN in JSON
    w.value(std::numeric_limits<double>::infinity());
    w.endArray();
    EXPECT_EQ(os.str(), "[2,0.25,null,null]");
}

TEST(JsonWriter, RawValueSplicesPreRenderedJson)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("sub").rawValue(R"({"x":1,"y":[2]})");
    w.field("after", std::uint64_t(3));
    w.endObject();
    EXPECT_EQ(os.str(), R"({"sub":{"x":1,"y":[2]},"after":3})");
}

TEST(JsonWriter, CompleteOnlyAfterRootCloses)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    EXPECT_FALSE(w.complete());
    w.beginObject();
    w.key("a").beginArray();
    EXPECT_FALSE(w.complete());
    w.endArray();
    EXPECT_FALSE(w.complete());
    w.endObject();
    EXPECT_TRUE(w.complete());
}

// ---------------------------------------------------------------------
// TraceSink.

TEST(TraceSink, PidsAllocateFromOne)
{
    trace::TraceSink sink;
    EXPECT_EQ(sink.currentPid(), 0);
    EXPECT_EQ(sink.beginProcess("baseline"), 1);
    EXPECT_EQ(sink.currentPid(), 1);
    EXPECT_EQ(sink.beginProcess("omega"), 2);
    EXPECT_EQ(sink.currentPid(), 2);
}

TEST(TraceSink, RecordsTypedEvents)
{
    trace::TraceSink sink;
    const int pid = sink.beginProcess("m");
    sink.complete("dram.read", "dram", pid, trace::kDramTidBase, 100, 40,
                  "queued_cycles", 7);
    sink.instant("svb.invalidate_all", "svb", pid, trace::kEngineTid, 180);
    sink.counter("occupancy", pid, 0, 200, "busy", 3);
    ASSERT_EQ(sink.numEvents(), 3u);
    const trace::TraceEvent &e = sink.events()[0];
    EXPECT_STREQ(e.name, "dram.read");
    EXPECT_EQ(e.phase, 'X');
    EXPECT_EQ(e.ts, 100u);
    EXPECT_EQ(e.dur, 40u);
    EXPECT_EQ(e.tid, trace::kDramTidBase);
    EXPECT_STREQ(e.arg_name, "queued_cycles");
    EXPECT_EQ(e.arg_value, 7u);
    EXPECT_EQ(sink.events()[1].phase, 'i');
    EXPECT_EQ(sink.events()[2].phase, 'C');
}

TEST(TraceSink, MaxEventsCapDropsAndCounts)
{
    trace::TraceSink sink(/*max_events=*/2);
    const int pid = sink.beginProcess("m");
    for (int i = 0; i < 5; ++i)
        sink.instant("e", "c", pid, 0, static_cast<std::uint64_t>(i));
    EXPECT_EQ(sink.numEvents(), 2u);
    EXPECT_EQ(sink.numDropped(), 3u);
}

TEST(TraceSink, ChromeTraceDocumentShape)
{
    trace::TraceSink sink;
    const int pid = sink.beginProcess("omega");
    sink.nameThread(0, "core0");
    sink.complete("pisc.atomic", "pisc", pid, trace::kPiscTidBase, 10, 4,
                  "vertex", 42);
    std::ostringstream os;
    sink.writeChromeTrace(os);
    const std::string out = os.str();
    // The viewer contract: a traceEvents array with process/thread
    // metadata records and our X event, ts in simulated cycles.
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("\"core0\""), std::string::npos);
    EXPECT_NE(out.find("\"pisc.atomic\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    // Round-trip through the deterministic renderer: same events, same
    // bytes.
    std::ostringstream again;
    sink.writeChromeTrace(again);
    EXPECT_EQ(out, again.str());
}

TEST(TraceSink, ClearDropsEverything)
{
    trace::TraceSink sink;
    const int pid = sink.beginProcess("m");
    sink.instant("e", "c", pid, 0, 1);
    sink.clear();
    EXPECT_EQ(sink.numEvents(), 0u);
    std::ostringstream os;
    sink.writeChromeTrace(os);
    EXPECT_EQ(os.str().find("\"process_name\""), std::string::npos);
}

TEST(TraceSink, EmissionHelpersAreGatedByTheGlobalSink)
{
    trace::setSink(nullptr);
    EXPECT_FALSE(trace::active());
    // With no sink installed these must be safe no-ops.
    trace::emitComplete("e", "c", 1, 0, 0, 1);
    trace::emitInstant("e", "c", 1, 0, 0);
    trace::emitCounter("e", 1, 0, 0, "v", 1);

    trace::TraceSink sink;
    trace::setSink(&sink);
    const int pid = sink.beginProcess("m");
    trace::emitComplete("e", "c", pid, 0, 5, 2);
    trace::setSink(nullptr);
    if (trace::compiledIn()) {
        EXPECT_EQ(sink.numEvents(), 1u);
    } else {
        EXPECT_EQ(sink.numEvents(), 0u);
    }
}

// ---------------------------------------------------------------------
// IntervalRecorder.

TEST(IntervalRecorder, CadenceAdvancesPastTheSampleTime)
{
    IntervalRecorder rec(100);
    EXPECT_FALSE(rec.cadenceDue(99));
    EXPECT_TRUE(rec.cadenceDue(100));
    // A long barrier can cross several cadence points; one sample jumps
    // past all of them.
    rec.take(SampleKind::Cadence, 350, 0, StatsReport{});
    EXPECT_FALSE(rec.cadenceDue(399));
    EXPECT_TRUE(rec.cadenceDue(400));
}

TEST(IntervalRecorder, ZeroCadenceDisablesCadenceSampling)
{
    IntervalRecorder rec(0);
    EXPECT_FALSE(rec.cadenceDue(0));
    EXPECT_FALSE(rec.cadenceDue(1'000'000'000));
}

TEST(IntervalRecorder, DeltasAndTotals)
{
    IntervalRecorder rec(0);
    StatsReport s1;
    s1.cycles = 100;
    s1.l1_accesses = 10;
    s1.pisc_max_busy_cycles = 5;
    rec.take(SampleKind::Iteration, 100, 1, s1);
    StatsReport s2 = s1;
    s2.cycles = 260;
    s2.l1_accesses = 17;
    s2.dram_reads = 4;
    s2.pisc_max_busy_cycles = 9;
    rec.take(SampleKind::Final, 260, 2, s2);

    ASSERT_EQ(rec.samples().size(), 2u);
    EXPECT_EQ(rec.samples()[1].delta.cycles, 160u);
    EXPECT_EQ(rec.samples()[1].delta.l1_accesses, 7u);
    // Max counters carry the cumulative high-water mark through.
    EXPECT_EQ(rec.samples()[1].delta.pisc_max_busy_cycles, 9u);

    const StatsReport total = rec.deltaTotals();
    EXPECT_EQ(total.cycles, s2.cycles);
    EXPECT_EQ(total.l1_accesses, s2.l1_accesses);
    EXPECT_EQ(total.dram_reads, s2.dram_reads);
    EXPECT_EQ(total.pisc_max_busy_cycles, s2.pisc_max_busy_cycles);
}

TEST(IntervalRecorder, WriteJsonEmitsOneObjectPerSample)
{
    IntervalRecorder rec(0);
    StatsReport s;
    s.cycles = 10;
    rec.take(SampleKind::Iteration, 10, 1, s, {{1, 2, 3, 4}}, {5}, {6});
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    rec.writeJson(w);
    EXPECT_TRUE(w.complete());
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find("\"kind\":\"iteration\""), std::string::npos);
    EXPECT_NE(out.find("\"cum\""), std::string::npos);
    EXPECT_NE(out.find("\"delta\""), std::string::npos);
    EXPECT_NE(out.find("\"cores\""), std::string::npos);
    EXPECT_NE(out.find("\"pisc_busy_cycles\":[5]"), std::string::npos);
    EXPECT_NE(out.find("\"sp_accesses\":[6]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Machine wiring: interval samples, stat trees, trace attachment.

const Graph &
testGraph()
{
    static const Graph g = defaultFuzzMatrix().front().materialize();
    return g;
}

TEST(MachineObservability, IntervalDeltasSumToFinalReport)
{
    // The acceptance identity: attach a recorder, run a real algorithm,
    // and the sum of every sample's delta must reproduce the machine's
    // final report for every Sum-kind counter (and end at its clock).
    for (MachineVariant variant :
         {MachineVariant::Baseline, MachineVariant::Omega}) {
        SCOPED_TRACE(machineVariantName(variant));
        auto mach = makeMachine(variant, 1.0 / 64.0);
        IntervalRecorder rec(2'000);
        mach->attachIntervalRecorder(&rec);
        captureAlgorithm(AlgorithmKind::PageRank, testGraph(), mach.get());
        mach->recordFinalSample();

        ASSERT_FALSE(rec.empty());
        const StatsReport final_report = mach->report();
        const StatsReport totals = rec.deltaTotals();
        for (const StatsField &f : StatsReport::fields()) {
            if (f.kind != StatKind::Sum)
                continue;
            EXPECT_EQ(totals.*(f.member), final_report.*(f.member))
                << f.name;
        }
        EXPECT_EQ(totals.cycles, final_report.cycles);
        EXPECT_EQ(rec.samples().back().t, mach->cycles());
        EXPECT_EQ(rec.samples().back().kind, SampleKind::Final);

        // The run is long enough to produce both cadence and iteration
        // samples, and per-core breakdowns ride along.
        bool saw_cadence = false;
        bool saw_iteration = false;
        for (const IntervalSample &s : rec.samples()) {
            saw_cadence |= s.kind == SampleKind::Cadence;
            saw_iteration |= s.kind == SampleKind::Iteration;
            EXPECT_EQ(s.cores.size(), mach->params().num_cores);
        }
        EXPECT_TRUE(saw_cadence);
        EXPECT_TRUE(saw_iteration);
    }
}

TEST(MachineObservability, StatTreeLookupMatchesReport)
{
    auto mach = makeMachine(MachineVariant::Omega, 1.0 / 64.0);
    captureAlgorithm(AlgorithmKind::PageRank, testGraph(), mach.get());

    const StatGroup *tree = mach->statTree();
    ASSERT_NE(tree, nullptr);
    const StatsReport r = mach->report();
    EXPECT_DOUBLE_EQ(tree->lookup("cycles"),
                     static_cast<double>(r.cycles));
    EXPECT_DOUBLE_EQ(tree->lookup("atomics_total"),
                     static_cast<double>(r.atomics_total));
    EXPECT_DOUBLE_EQ(tree->lookup("cache.l1_accesses"),
                     static_cast<double>(r.l1_accesses));
    EXPECT_DOUBLE_EQ(tree->lookup("cache.dram.reads"),
                     static_cast<double>(r.dram_reads));
    EXPECT_DOUBLE_EQ(tree->lookup("cache.dram.read_bytes"),
                     static_cast<double>(r.dram_read_bytes));
    EXPECT_DOUBLE_EQ(tree->lookup("cache.xbar.bytes"),
                     static_cast<double>(r.onchip_bytes));
    EXPECT_GT(tree->lookup("core0.compute_cycles"), 0.0);
    EXPECT_GE(tree->lookup("pisc0.ops"), 0.0);
    EXPECT_GE(tree->lookup("sp0.reads"), 0.0);
    EXPECT_TRUE(std::isnan(tree->lookup("no.such.counter")));

    // Baseline exposes the same cache/core namespaces.
    auto base = makeMachine(MachineVariant::Baseline, 1.0 / 64.0);
    const StatGroup *btree = base->statTree();
    ASSERT_NE(btree, nullptr);
    EXPECT_DOUBLE_EQ(btree->lookup("cache.dram.reads"), 0.0);
    EXPECT_FALSE(std::isnan(btree->lookup("core0.mem_stall_cycles")));
}

TEST(MachineObservability, StatTreeSerializesAsJson)
{
    auto mach = makeMachine(MachineVariant::Omega, 1.0 / 64.0);
    captureAlgorithm(AlgorithmKind::PageRank, testGraph(), mach.get());
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    mach->statTree()->writeJson(w);
    EXPECT_TRUE(w.complete());
    const std::string out = os.str();
    EXPECT_NE(out.find("\"cache\""), std::string::npos);
    EXPECT_NE(out.find("\"dram\""), std::string::npos);
    EXPECT_NE(out.find("\"core0\""), std::string::npos);
}

TEST(MachineObservability, TracingNeverChangesTiming)
{
    // Tracing is observation only: cycle-for-cycle identical runs with
    // the sink installed, and events actually flow when compiled in.
    for (MachineVariant variant :
         {MachineVariant::Baseline, MachineVariant::Omega}) {
        SCOPED_TRACE(machineVariantName(variant));
        auto plain = makeMachine(variant, 1.0 / 64.0);
        captureAlgorithm(AlgorithmKind::PageRank, testGraph(),
                         plain.get());

        trace::TraceSink sink;
        trace::setSink(&sink);
        auto traced = makeMachine(variant, 1.0 / 64.0);
        traced->attachTracing();
        EXPECT_EQ(traced->tracePid(), 1);
        captureAlgorithm(AlgorithmKind::PageRank, testGraph(),
                         traced.get());
        trace::setSink(nullptr);

        EXPECT_EQ(plain->cycles(), traced->cycles());
        const StatsReport a = plain->report();
        const StatsReport b = traced->report();
        for (const StatsField &f : StatsReport::fields())
            EXPECT_EQ(a.*(f.member), b.*(f.member)) << f.name;
        if (trace::compiledIn()) {
            EXPECT_GT(sink.numEvents(), 0u);
        }
    }
}

} // namespace
} // namespace omega
