/**
 * @file
 * omega_sim — command-line simulation driver.
 *
 * The downstream entry point for one-off experiments: pick a dataset
 * stand-in (or load an edge-list file), an algorithm, a machine and its
 * overrides, and get cycles plus the full statistics dump.
 *
 * Examples:
 *   omega_sim --dataset lj --algorithm pagerank --machine both
 *   omega_sim --dataset rMat --algorithm bfs --machine omega --sp-mb 4
 *   omega_sim --file my.el --algorithm sssp --machine baseline --stats
 *   omega_sim --dataset wiki --algorithm cc --reorder in-degree-sort
 */

#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "algorithms/algorithms.hh"
#include "graph/datasets.hh"
#include "graph/degree_stats.hh"
#include "graph/io.hh"
#include "graph/reorder.hh"
#include "omega/omega_machine.hh"
#include "sim/baseline_machine.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace omega;

namespace {

struct Options
{
    std::string dataset = "rMat";
    std::string file;
    std::string algorithm = "pagerank";
    std::string machine = "both"; // baseline | omega | sp-only | both
    std::string reorder = "in-degree-nth-element";
    double sp_mb = 0.0;   // 0 = paper default (scaled)
    double scale = 0.0;   // 0 = dataset capacity_scale
    unsigned chunk = 64;
    std::uint64_t seed = 42;
    bool dump_stats = false;
    bool show_help = false;
};

void
usage()
{
    std::cout <<
        "usage: omega_sim [options]\n"
        "  --dataset NAME     Table-I stand-in (default rMat); see"
        " --list-datasets\n"
        "  --file PATH        load an edge list instead (src dst [w])\n"
        "  --algorithm NAME   pagerank|bfs|sssp|bc|radii|cc|tc|kc\n"
        "  --machine KIND     baseline|omega|sp-only|both (default both)\n"
        "  --reorder KIND     identity|in-degree-sort|in-degree-top-sort|\n"
        "                     in-degree-nth-element|out-degree-sort|\n"
        "                     slashburn-lite|random\n"
        "  --sp-mb N          scratchpad capacity in paper-equivalent MB\n"
        "  --scale F          capacity scale override (e.g. 0.03125)\n"
        "  --chunk N          scratchpad/schedule chunk size\n"
        "  --seed N           dataset generation seed\n"
        "  --stats            dump the full counter set per machine\n"
        "  --list-datasets    print the dataset registry and exit\n";
}

std::optional<ReorderKind>
parseReorder(const std::string &name)
{
    for (ReorderKind kind :
         {ReorderKind::Identity, ReorderKind::InDegreeSort,
          ReorderKind::InDegreeTopSort, ReorderKind::InDegreeNthElement,
          ReorderKind::OutDegreeSort, ReorderKind::SlashburnLite,
          ReorderKind::Random}) {
        if (reorderKindName(kind) == toLower(name))
            return kind;
    }
    return std::nullopt;
}

struct RunResult
{
    Cycles cycles = 0;
    StatsReport stats;
};

RunResult
runOnMachine(const std::string &kind, AlgorithmKind algo, const Graph &g,
             const MachineParams &base_params,
             const MachineParams &omega_params, bool dump)
{
    RunResult out;
    const auto run = [&](MemorySystem &m) {
        out.cycles = runAlgorithmOnMachine(algo, g, &m);
        out.stats = m.report();
        if (dump)
            m.statTree()->dump(std::cout);
    };
    if (kind == "baseline") {
        BaselineMachine m(base_params);
        run(m);
    } else {
        MachineParams p = omega_params;
        if (kind == "sp-only")
            p.pisc_enabled = false;
        OmegaMachine m(p);
        run(m);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--dataset") {
            opt.dataset = value();
        } else if (arg == "--file") {
            opt.file = value();
        } else if (arg == "--algorithm") {
            opt.algorithm = value();
        } else if (arg == "--machine") {
            opt.machine = value();
        } else if (arg == "--reorder") {
            opt.reorder = value();
        } else if (arg == "--sp-mb") {
            opt.sp_mb = std::stod(value());
        } else if (arg == "--scale") {
            opt.scale = std::stod(value());
        } else if (arg == "--chunk") {
            opt.chunk = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value());
        } else if (arg == "--stats") {
            opt.dump_stats = true;
        } else if (arg == "--list-datasets") {
            for (const auto &s : allDatasets()) {
                std::cout << s.name << "  (" << s.paper_name
                          << ", scale 1/"
                          << formatDouble(1.0 / s.capacity_scale, 0)
                          << ")\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            usage();
            return 1;
        }
    }

    const auto algo = findAlgorithm(opt.algorithm);
    if (!algo)
        fatal("unknown algorithm '", opt.algorithm, "'");
    const auto reorder = parseReorder(opt.reorder);
    if (!reorder)
        fatal("unknown reordering '", opt.reorder, "'");

    // Build the graph.
    Graph g;
    double capacity_scale = opt.scale;
    if (!opt.file.empty()) {
        BuildOptions bopts;
        bopts.symmetrize = algorithmMeta(*algo).needs_symmetric;
        g = loadGraphFile(opt.file, bopts);
        if (capacity_scale == 0.0)
            capacity_scale = 1.0 / 32.0;
    } else {
        const auto spec = findDataset(opt.dataset);
        if (!spec)
            fatal("unknown dataset '", opt.dataset,
                  "' (see --list-datasets)");
        if (algorithmMeta(*algo).needs_symmetric && spec->directed)
            fatal(algorithmMeta(*algo).name,
                  " needs an undirected dataset (ap, rPA, rCA, USA)");
        g = buildDataset(*spec, opt.seed);
        if (capacity_scale == 0.0)
            capacity_scale = spec->capacity_scale;
    }
    g = reorderGraph(g, *reorder);

    const DegreeStats ds = computeDegreeStats(g);
    std::cout << "graph: " << g.numVertices() << " vertices, "
              << g.numEdges() << " edges, top-20% connectivity "
              << formatPercent(ds.in_degree_connectivity)
              << (ds.power_law ? " (power law)" : " (not power law)")
              << "\nalgorithm: " << algorithmName(*algo)
              << ", capacity scale 1/"
              << formatDouble(1.0 / capacity_scale, 0) << "\n\n";

    MachineParams base_params =
        MachineParams::baseline().scaledCapacities(capacity_scale);
    MachineParams omega_params =
        MachineParams::omega().scaledCapacities(capacity_scale);
    omega_params.sp_chunk_size = opt.chunk;
    if (opt.sp_mb > 0.0) {
        omega_params.sp_total_bytes = static_cast<std::uint64_t>(
            opt.sp_mb * 1024 * 1024 * capacity_scale);
    }

    std::vector<std::string> kinds;
    if (opt.machine == "both") {
        kinds = {"baseline", "omega"};
    } else if (opt.machine == "baseline" || opt.machine == "omega" ||
               opt.machine == "sp-only") {
        kinds = {opt.machine};
    } else {
        fatal("unknown machine '", opt.machine, "'");
    }

    Table t({"machine", "cycles", "LLC/SP hit", "on-chip", "DRAM",
             "atomics offloaded", "mem-bound"});
    RunResult first;
    RunResult last;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const RunResult r = runOnMachine(kinds[k], *algo, g, base_params,
                                         omega_params, opt.dump_stats);
        if (k == 0)
            first = r;
        last = r;
        t.row()
            .cell(kinds[k])
            .cell(r.cycles)
            .cell(formatPercent(r.stats.lastLevelHitRate()))
            .cell(formatBytes(r.stats.onchip_bytes))
            .cell(formatBytes(r.stats.dramBytes()))
            .cell(r.stats.atomics_offloaded)
            .cell(formatPercent(r.stats.memoryBoundFraction()));
    }
    t.print(std::cout);
    if (kinds.size() == 2) {
        std::cout << "\nspeedup: "
                  << formatSpeedup(static_cast<double>(first.cycles) /
                                   static_cast<double>(last.cycles))
                  << "\n";
    }
    return 0;
}
