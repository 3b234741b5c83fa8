/**
 * @file
 * Dataset registry implementation.
 */

#include "graph/datasets.hh"

#include "graph/builder.hh"
#include "graph/generators.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace omega {

namespace {

std::vector<DatasetSpec>
makeRegistry()
{
    std::vector<DatasetSpec> specs;

    auto rmat = [&](const std::string &name, const std::string &paper,
                    double pv, double pe, double in_c, double out_c,
                    unsigned scale, unsigned ef, double a, double b,
                    double c, bool directed = true) {
        DatasetSpec s;
        s.name = name;
        s.paper_name = paper;
        s.family = DatasetFamily::Rmat;
        s.directed = directed;
        s.paper_vertices_m = pv;
        s.paper_edges_m = pe;
        s.paper_in_conn_pct = in_c;
        s.paper_out_conn_pct = out_c;
        s.paper_power_law = true;
        s.rmat_scale = scale;
        s.edge_factor = ef;
        s.rmat_a = a;
        s.rmat_b = b;
        s.rmat_c = c;
        s.capacity_scale =
            static_cast<double>(VertexId(1) << scale) / (pv * 1e6);
        specs.push_back(s);
    };

    // Table I order: sd ap rMat orkut wiki lj ic uk twitter rPA rCA USA.
    rmat("sd", "soc-Slashdot0811", 0.07, 0.9, 62.8, 78.05,
         11, 13, 0.45, 0.23, 0.23);
    // ca-AstroPh: a collaboration network whose top-20% vertices touch
    // essentially every edge; a steep symmetric R-MAT reproduces that
    // better than plain preferential attachment.
    rmat("ap", "ca-AstroPh", 0.13, 0.39, 100.0, 100.0,
         12, 6, 0.72, 0.12, 0.12, /*directed=*/false);
    rmat("rMat", "rMat", 2.0, 25.0, 93.0, 93.8,
         16, 12, 0.60, 0.17, 0.17);
    rmat("orkut", "orkut-2007", 3.0, 234.0, 58.73, 58.73,
         15, 78, 0.38, 0.27, 0.27);
    rmat("wiki", "enwiki-2013", 4.2, 101.0, 84.69, 60.97,
         16, 24, 0.47, 0.16, 0.27);
    rmat("lj", "ljournal-2008", 5.3, 79.0, 77.35, 75.56,
         17, 15, 0.48, 0.22, 0.22);
    rmat("ic", "indochina-2004", 7.4, 194.0, 93.26, 73.37,
         16, 26, 0.54, 0.13, 0.26);
    rmat("uk", "uk-2002", 18.5, 298.0, 84.45, 44.05,
         17, 16, 0.45, 0.10, 0.30);
    rmat("twitter", "twitter-2010", 41.6, 1468.0, 85.9, 74.9,
         17, 35, 0.48, 0.18, 0.24);

    auto road = [&](const std::string &name, const std::string &paper,
                    double pv, double pe, double conn, VertexId w,
                    VertexId h) {
        DatasetSpec s;
        s.name = name;
        s.paper_name = paper;
        s.family = DatasetFamily::RoadMesh;
        s.directed = false;
        s.paper_vertices_m = pv;
        s.paper_edges_m = pe;
        s.paper_in_conn_pct = conn;
        s.paper_out_conn_pct = conn;
        s.paper_power_law = false;
        s.road_width = w;
        s.road_height = h;
        s.capacity_scale =
            static_cast<double>(w) * static_cast<double>(h) / (pv * 1e6);
        specs.push_back(s);
    };

    road("rPA", "roadNet-PA", 1.0, 3.0, 28.6, 180, 182);
    road("rCA", "roadNet-CA", 1.9, 5.5, 28.8, 240, 248);
    road("USA", "Western-USA", 6.2, 15.0, 29.35, 360, 380);

    return specs;
}

} // namespace

const std::vector<DatasetSpec> &
allDatasets()
{
    static const std::vector<DatasetSpec> registry = makeRegistry();
    return registry;
}

std::optional<DatasetSpec>
findDataset(const std::string &name)
{
    for (const auto &s : allDatasets()) {
        if (toLower(s.name) == toLower(name))
            return s;
    }
    return std::nullopt;
}

Graph
buildDataset(const DatasetSpec &spec, std::uint64_t seed)
{
    Rng rng(seed ^ std::hash<std::string>{}(spec.name));
    switch (spec.family) {
      case DatasetFamily::Rmat: {
        RmatParams p;
        p.a = spec.rmat_a;
        p.b = spec.rmat_b;
        p.c = spec.rmat_c;
        BuildOptions opts;
        opts.symmetrize = !spec.directed;
        return buildGraph(VertexId(1) << spec.rmat_scale,
                          RmatSource(spec.rmat_scale, spec.edge_factor, rng,
                                     p),
                          opts);
      }
      case DatasetFamily::BarabasiAlbert: {
        EdgeList edges =
            generateBarabasiAlbert(spec.ba_vertices, spec.ba_m, rng);
        BuildOptions opts;
        opts.symmetrize = true;
        return buildGraph(spec.ba_vertices, std::move(edges), opts);
      }
      case DatasetFamily::RoadMesh: {
        EdgeList edges = generateRoadMesh(spec.road_width, spec.road_height,
                                          0.10, 0.05, rng);
        BuildOptions opts;
        opts.symmetrize = true;
        return buildGraph(spec.road_width * spec.road_height,
                          std::move(edges), opts);
      }
    }
    panic("unknown dataset family");
}

Graph
buildDataset(const std::string &name, std::uint64_t seed)
{
    auto spec = findDataset(name);
    if (!spec)
        fatal("unknown dataset '", name, "'");
    return buildDataset(*spec, seed);
}

std::vector<DatasetSpec>
simulationDatasets()
{
    std::vector<DatasetSpec> out;
    for (const auto &s : allDatasets()) {
        if (s.name != "uk" && s.name != "twitter")
            out.push_back(s);
    }
    return out;
}

} // namespace omega
