/**
 * @file
 * Vertex reordering implementation.
 */

#include "graph/reorder.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"
#include "util/rng.hh"

namespace omega {

namespace {

/** Invert an ordering (list of old ids, hottest first) to a permutation. */
std::vector<VertexId>
orderingToPermutation(const std::vector<VertexId> &ordering)
{
    std::vector<VertexId> perm(ordering.size());
    for (VertexId pos = 0; pos < ordering.size(); ++pos)
        perm[ordering[pos]] = pos;
    return perm;
}

std::vector<VertexId>
identityOrdering(VertexId n)
{
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
}

/**
 * SlashBurn-flavored ordering: repeatedly take the highest-degree
 * remaining hub, place it next, then place its not-yet-placed neighbors
 * immediately after (community block), and repeat. This clusters
 * communities rather than producing a global popularity order, which is
 * exactly why the paper finds it suboptimal for OMEGA.
 */
std::vector<VertexId>
slashburnLiteOrdering(const Graph &g)
{
    const VertexId n = g.numVertices();
    const InArcs in = g.inArcs();
    std::vector<VertexId> order;
    order.reserve(n);
    std::vector<bool> placed(n, false);
    std::vector<VertexId> by_degree = identityOrdering(n);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&g](VertexId a, VertexId b) {
                         return g.inDegree(a) + g.outDegree(a) >
                                g.inDegree(b) + g.outDegree(b);
                     });
    for (VertexId hub : by_degree) {
        if (placed[hub])
            continue;
        placed[hub] = true;
        order.push_back(hub);
        for (VertexId nbr : g.outNeighbors(hub)) {
            if (!placed[nbr]) {
                placed[nbr] = true;
                order.push_back(nbr);
            }
        }
        for (VertexId nbr : in.row(hub)) {
            if (!placed[nbr]) {
                placed[nbr] = true;
                order.push_back(nbr);
            }
        }
    }
    return order;
}

/**
 * The old ids in their new order (hottest first): new id k is old vertex
 * order[k]. buildReorderPermutation returns its inverse.
 */
std::vector<VertexId>
buildReorderOrdering(const Graph &g, ReorderKind kind, double hot_fraction,
                     std::uint64_t seed)
{
    const VertexId n = g.numVertices();
    auto in_degree_cmp = [&g](VertexId a, VertexId b) {
        return g.inDegree(a) > g.inDegree(b);
    };

    std::vector<VertexId> order;
    switch (kind) {
      case ReorderKind::Identity:
        order = identityOrdering(n);
        break;
      case ReorderKind::InDegreeSort:
        order = identityOrdering(n);
        std::stable_sort(order.begin(), order.end(), in_degree_cmp);
        break;
      case ReorderKind::InDegreeTopSort: {
        // Partition at the hot mark, then sort only the hot prefix.
        order = identityOrdering(n);
        const auto k = static_cast<std::size_t>(
            hot_fraction * static_cast<double>(n));
        if (k > 0 && k < n) {
            std::nth_element(order.begin(),
                             order.begin() + static_cast<long>(k),
                             order.end(), in_degree_cmp);
            std::stable_sort(order.begin(),
                             order.begin() + static_cast<long>(k),
                             in_degree_cmp);
        } else {
            std::stable_sort(order.begin(), order.end(), in_degree_cmp);
        }
        break;
      }
      case ReorderKind::InDegreeNthElement: {
        order = identityOrdering(n);
        const auto k = static_cast<std::size_t>(
            hot_fraction * static_cast<double>(n));
        if (k > 0 && k < n) {
            std::nth_element(order.begin(),
                             order.begin() + static_cast<long>(k),
                             order.end(), in_degree_cmp);
        }
        break;
      }
      case ReorderKind::OutDegreeSort:
        order = identityOrdering(n);
        std::stable_sort(order.begin(), order.end(),
                         [&g](VertexId a, VertexId b) {
                             return g.outDegree(a) > g.outDegree(b);
                         });
        break;
      case ReorderKind::SlashburnLite:
        order = slashburnLiteOrdering(g);
        break;
      case ReorderKind::Random: {
        order = identityOrdering(n);
        Rng rng(seed);
        std::shuffle(order.begin(), order.end(), rng);
        break;
      }
    }
    omega_assert(order.size() == n, "ordering size mismatch");
    return order;
}

} // namespace

std::string
reorderKindName(ReorderKind kind)
{
    switch (kind) {
      case ReorderKind::Identity: return "identity";
      case ReorderKind::InDegreeSort: return "in-degree-sort";
      case ReorderKind::InDegreeTopSort: return "in-degree-top-sort";
      case ReorderKind::InDegreeNthElement: return "in-degree-nth-element";
      case ReorderKind::OutDegreeSort: return "out-degree-sort";
      case ReorderKind::SlashburnLite: return "slashburn-lite";
      case ReorderKind::Random: return "random";
    }
    return "?";
}

std::vector<VertexId>
buildReorderPermutation(const Graph &g, ReorderKind kind,
                        double hot_fraction, std::uint64_t seed)
{
    return orderingToPermutation(
        buildReorderOrdering(g, kind, hot_fraction, seed));
}

Graph
reorderGraph(const Graph &g, ReorderKind kind, double hot_fraction,
             std::uint64_t seed)
{
    return g.renumbered(buildReorderOrdering(g, kind, hot_fraction, seed));
}

double
prefixInEdgeCoverage(const Graph &g, double fraction)
{
    if (g.numArcs() == 0)
        return 0.0;
    const auto k = static_cast<VertexId>(
        fraction * static_cast<double>(g.numVertices()));
    EdgeId covered = 0;
    for (VertexId v = 0; v < k; ++v)
        covered += g.inDegree(v);
    return static_cast<double>(covered) / static_cast<double>(g.numArcs());
}

} // namespace omega
