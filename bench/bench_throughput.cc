/**
 * @file
 * Host-throughput baseline: how fast does this build simulate?
 *
 * Times the fig14-style sweep (8 algorithms x compatible simulation
 * datasets x {baseline, omega}) with a wall clock and reports simulated
 * edges per second (sum of dataset arcs over the runs, divided by wall
 * time) and simulated cycles per second, per machine, per algorithm and
 * overall. Runs are strictly sequential — this binary measures the
 * per-run kernel, so --jobs parallelism would only obscure it.
 *
 * With --json [path] a schema-versioned BENCH_throughput.json is written
 * (default path: BENCH_throughput.json) so successive commits accumulate
 * a perf trajectory. An optional reference measurement — the same sweep
 * timed on an earlier build — can be embedded via --ref-* so the
 * document carries both numbers of a before/after comparison.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace omega;
using namespace omega::bench;

namespace {

/** Document layout version (bump on incompatible schema changes). */
constexpr int kThroughputSchemaVersion = 1;

struct RunTiming
{
    std::string algorithm;
    std::string dataset;
    std::string machine;
    double wall_seconds = 0.0;
    std::uint64_t edges = 0;
    std::uint64_t cycles = 0;
};

struct Aggregate
{
    double wall_seconds = 0.0;
    std::uint64_t edges = 0;
    std::uint64_t cycles = 0;

    void
    add(const RunTiming &r)
    {
        wall_seconds += r.wall_seconds;
        edges += r.edges;
        cycles += r.cycles;
    }
    double
    edgesPerSecond() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(edges) / wall_seconds
                   : 0.0;
    }
    double
    cyclesPerSecond() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(cycles) / wall_seconds
                   : 0.0;
    }
};

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string ref_label;
    double ref_edges_per_sec = 0.0;
    double ref_wall_seconds = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json") {
            // Path is optional: bare --json selects the canonical name.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
            else
                json_path = "BENCH_throughput.json";
        } else if (arg == "--ref-label") {
            ref_label = next_value("--ref-label");
        } else if (arg == "--ref-edges-per-sec") {
            ref_edges_per_sec =
                std::strtod(next_value("--ref-edges-per-sec").c_str(),
                            nullptr);
        } else if (arg == "--ref-wall-seconds") {
            ref_wall_seconds =
                std::strtod(next_value("--ref-wall-seconds").c_str(),
                            nullptr);
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            std::exit(2);
        }
    }

    printBanner(std::cout,
                "Host throughput: wall-clock of the fig14 sweep");

    const std::vector<AlgorithmKind> algos{
        AlgorithmKind::PageRank, AlgorithmKind::BFS, AlgorithmKind::SSSP,
        AlgorithmKind::BC,       AlgorithmKind::Radii,
        AlgorithmKind::CC,       AlgorithmKind::TC,
        AlgorithmKind::KC};
    const std::vector<MachineKind> machines = paperMachineKinds();

    // Build (and cache) every graph up front: dataset construction and
    // reordering are one-time costs, not simulation throughput.
    for (AlgorithmKind algo : algos) {
        for (const auto &spec : datasetsFor(algo, simulationDatasets()))
            datasetGraph(spec);
    }

    std::vector<RunTiming> runs;
    for (AlgorithmKind algo : algos) {
        for (const auto &spec : datasetsFor(algo, simulationDatasets())) {
            const std::uint64_t arcs = datasetGraph(spec).numArcs();
            for (MachineKind kind : machines) {
                const double t0 = nowSeconds();
                const RunOutcome out = runOn(spec, algo, kind);
                const double wall = nowSeconds() - t0;
                RunTiming r;
                r.algorithm = algorithmName(algo);
                r.dataset = spec.name;
                r.machine = machineKindName(kind);
                r.wall_seconds = wall;
                r.edges = arcs;
                r.cycles = out.cycles;
                runs.push_back(r);
            }
        }
    }

    Aggregate total;
    std::map<std::string, Aggregate> per_machine;
    std::map<std::string, Aggregate> per_algo;
    for (const RunTiming &r : runs) {
        total.add(r);
        per_machine[r.machine].add(r);
        per_algo[r.algorithm].add(r);
    }

    Table t({"algorithm", "dataset", "machine", "wall s", "Medges/s",
             "Mcycles/s"});
    for (const RunTiming &r : runs) {
        t.row()
            .cell(r.algorithm)
            .cell(r.dataset)
            .cell(r.machine)
            .cell(formatDouble(r.wall_seconds, 3))
            .cell(formatDouble(
                r.wall_seconds > 0.0
                    ? static_cast<double>(r.edges) / r.wall_seconds / 1e6
                    : 0.0,
                3))
            .cell(formatDouble(
                r.wall_seconds > 0.0
                    ? static_cast<double>(r.cycles) / r.wall_seconds / 1e6
                    : 0.0,
                3));
    }
    t.print(std::cout);

    std::cout << "\nPer-machine totals:\n";
    Table m({"machine", "wall s", "Medges/s", "Mcycles/s"});
    for (const auto &[name, agg] : per_machine) {
        m.row()
            .cell(name)
            .cell(formatDouble(agg.wall_seconds, 3))
            .cell(formatDouble(agg.edgesPerSecond() / 1e6, 3))
            .cell(formatDouble(agg.cyclesPerSecond() / 1e6, 3));
    }
    m.print(std::cout);

    std::cout << "\nSweep total: " << formatDouble(total.wall_seconds, 2)
              << " s wall, "
              << formatDouble(total.edgesPerSecond() / 1e6, 3)
              << " Medges/s, "
              << formatDouble(total.cyclesPerSecond() / 1e6, 3)
              << " Mcycles/s\n";
    if (ref_edges_per_sec > 0.0) {
        std::cout << "Reference"
                  << (ref_label.empty() ? "" : " (" + ref_label + ")")
                  << ": " << formatDouble(ref_edges_per_sec / 1e6, 3)
                  << " Medges/s -> "
                  << formatDouble(total.edgesPerSecond() /
                                      ref_edges_per_sec,
                                  2)
                  << "x\n";
    }

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        JsonWriter w(os, /*pretty=*/true);
        w.beginObject();
        w.field("schema_version", kThroughputSchemaVersion);
        w.field("bench", "bench_throughput");
        w.field("sweep", "fig14");
        w.field("wall_seconds_total", total.wall_seconds);
        w.field("simulated_edges_total", total.edges);
        w.field("simulated_cycles_total", total.cycles);
        w.field("edges_per_second", total.edgesPerSecond());
        w.field("cycles_per_second", total.cyclesPerSecond());
        w.key("per_machine").beginObject();
        for (const auto &[name, agg] : per_machine) {
            w.key(name).beginObject();
            w.field("wall_seconds", agg.wall_seconds);
            w.field("edges_per_second", agg.edgesPerSecond());
            w.field("cycles_per_second", agg.cyclesPerSecond());
            w.endObject();
        }
        w.endObject();
        w.key("per_algorithm").beginObject();
        for (const auto &[name, agg] : per_algo) {
            w.key(name).beginObject();
            w.field("wall_seconds", agg.wall_seconds);
            w.field("edges_per_second", agg.edgesPerSecond());
            w.endObject();
        }
        w.endObject();
        w.key("runs").beginArray();
        for (const RunTiming &r : runs) {
            w.beginObject();
            w.field("algorithm", r.algorithm);
            w.field("dataset", r.dataset);
            w.field("machine", r.machine);
            w.field("wall_seconds", r.wall_seconds);
            w.field("edges", r.edges);
            w.field("cycles", r.cycles);
            w.endObject();
        }
        w.endArray();
        if (ref_edges_per_sec > 0.0) {
            w.key("reference").beginObject();
            if (!ref_label.empty())
                w.field("label", ref_label);
            w.field("edges_per_second", ref_edges_per_sec);
            if (ref_wall_seconds > 0.0)
                w.field("wall_seconds_total", ref_wall_seconds);
            w.field("speedup_vs_reference",
                    total.edgesPerSecond() / ref_edges_per_sec);
            w.endObject();
        }
        w.endObject();
        os << "\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
