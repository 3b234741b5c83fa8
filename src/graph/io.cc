/**
 * @file
 * Edge-list I/O implementation.
 */

#include "graph/io.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace omega {

namespace {

/**
 * Parse a non-negative integer token. Rejects signs (a leading '-' on a
 * vertex id must not silently wrap to a huge unsigned value), embedded
 * garbage, and overflow.
 */
bool
parseId(const std::string &tok, std::uint64_t &out)
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

/** Parse a signed weight token; rejects garbage and overflow. */
bool
parseWeight(const std::string &tok, long long &out)
{
    if (tok.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (errno == ERANGE || end == nullptr || end == tok.c_str() ||
        *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

EdgeList
readEdgeList(std::istream &is, VertexId &max_vertex,
             std::optional<VertexId> *declared_vertices)
{
    // Reserve the top id: loadGraphFile computes n = max_vertex + 1,
    // which must itself fit in VertexId.
    constexpr std::uint64_t kMaxId =
        std::numeric_limits<VertexId>::max() - 1;

    EdgeList edges;
    max_vertex = 0;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const std::string t = trim(line);
        if (t.empty())
            continue;
        if (t[0] == '#' || t[0] == '%') {
            // writeEdgeList emits "# vertices N arcs M ..."; honoring the
            // declared count preserves isolated trailing vertices.
            std::istringstream hs(t.substr(1));
            std::string kw;
            std::string num;
            if (declared_vertices != nullptr && (hs >> kw) &&
                kw == "vertices" && (hs >> num)) {
                std::uint64_t n = 0;
                if (!parseId(num, n) ||
                    n > std::numeric_limits<VertexId>::max()) {
                    fatal("graph header line ", lineno,
                          ": invalid vertex count '", num,
                          "' (negative, not a number, or too large)");
                }
                *declared_vertices = static_cast<VertexId>(n);
            }
            continue;
        }
        std::istringstream ls(t);
        std::string src_tok;
        std::string dst_tok;
        std::string w_tok;
        std::string extra;
        if (!(ls >> src_tok >> dst_tok))
            fatal("malformed edge list line ", lineno, ": '", t, "'");
        const bool have_weight = static_cast<bool>(ls >> w_tok);
        if (ls >> extra) {
            fatal("edge list line ", lineno, ": trailing token '", extra,
                  "' after 'src dst [weight]'");
        }
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        if (!parseId(src_tok, src) || src > kMaxId) {
            fatal("edge list line ", lineno, ": invalid source vertex '",
                  src_tok, "' (negative, not a number, or too large)");
        }
        if (!parseId(dst_tok, dst) || dst > kMaxId) {
            fatal("edge list line ", lineno,
                  ": invalid destination vertex '", dst_tok,
                  "' (negative, not a number, or too large)");
        }
        long long weight = 1;
        if (have_weight &&
            (!parseWeight(w_tok, weight) ||
             weight < std::numeric_limits<std::int32_t>::min() ||
             weight > std::numeric_limits<std::int32_t>::max())) {
            fatal("edge list line ", lineno, ": invalid weight '", w_tok,
                  "' (not a number or outside int32)");
        }
        Edge e;
        e.src = static_cast<VertexId>(src);
        e.dst = static_cast<VertexId>(dst);
        e.weight = static_cast<std::int32_t>(weight);
        max_vertex = std::max({max_vertex, e.src, e.dst});
        edges.push_back(e);
    }
    if (is.bad())
        fatal("I/O error while reading edge list (line ", lineno, ")");
    return edges;
}

Graph
loadGraphFile(const std::string &path, const BuildOptions &opts)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open graph file '", path, "'");
    VertexId max_vertex = 0;
    std::optional<VertexId> declared;
    EdgeList edges = readEdgeList(is, max_vertex, &declared);
    VertexId n = 0;
    if (declared.has_value()) {
        n = *declared;
        if (!edges.empty() && max_vertex >= n) {
            fatal("graph file '", path, "' declares ", n,
                  " vertices but contains an edge referencing vertex ",
                  max_vertex);
        }
    } else if (!edges.empty()) {
        n = max_vertex + 1;
    }
    if (n > kMaxLoadedVertices) {
        fatal("graph file '", path, "' has too many vertices: ", n,
              " (the loader accepts at most ", kMaxLoadedVertices, ")");
    }
    return buildGraph(n, std::move(edges), opts);
}

void
writeEdgeList(std::ostream &os, const Graph &g)
{
    os << "# vertices " << g.numVertices() << " arcs " << g.numArcs()
       << (g.symmetric() ? " symmetric" : " directed") << "\n";
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto nbrs = g.outNeighbors(v);
        auto ws = g.outWeights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            os << v << " " << nbrs[i] << " " << ws[i] << "\n";
    }
}

void
saveGraphFile(const std::string &path, const Graph &g)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeEdgeList(os, g);
}

} // namespace omega
