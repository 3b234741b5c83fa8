/**
 * @file
 * GRASP cache policy implementation.
 */

#include "sim/cache_policy.hh"

#include <algorithm>

#include "sim/field_visitor.hh"
#include "sim/memory_system.hh"
#include "util/logging.hh"

namespace omega {

GraspPolicy::GraspPolicy(std::vector<GraspRegion> regions)
{
    setRegions(std::move(regions));
}

void
GraspPolicy::setRegions(std::vector<GraspRegion> regions)
{
    std::sort(regions.begin(), regions.end(),
              [](const GraspRegion &a, const GraspRegion &b) {
                  return a.start < b.start;
              });
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const GraspRegion &r = regions[i];
        omega_assert(r.start <= r.hot_end && r.hot_end <= r.warm_end &&
                         r.warm_end <= r.end,
                     "grasp region bounds out of order");
        if (i + 1 < regions.size()) {
            omega_assert(r.end <= regions[i + 1].start,
                         "grasp regions overlap");
        }
    }
    regions_ = std::move(regions);
}

std::vector<GraspRegion>
GraspPolicy::regionsFromConfig(const MachineConfig &config,
                               unsigned warm_factor)
{
    std::vector<GraspRegion> out;
    out.reserve(config.props.size());
    for (const PropSpec &p : config.props) {
        if (p.count == 0)
            continue;
        const std::uint64_t stride = p.stride;
        const std::uint64_t hot_count =
            std::min<std::uint64_t>(config.hot_boundary, p.count);
        const std::uint64_t warm_count = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(config.hot_boundary) * warm_factor,
            p.count);
        GraspRegion r;
        r.start = p.start_addr;
        r.hot_end = p.start_addr + stride * hot_count;
        r.warm_end = p.start_addr + stride * warm_count;
        r.end = p.start_addr + stride * p.count;
        out.push_back(r);
    }
    return out;
}

GraspPolicy::Region
GraspPolicy::classify(std::uint64_t line_addr) const
{
    // Regions are sorted and disjoint; a handful of monitored property
    // ranges per run makes the linear scan with early exit cheaper than
    // a branchy binary search on this (L2-access-rate) path.
    for (const GraspRegion &r : regions_) {
        if (line_addr < r.start)
            break;
        if (line_addr >= r.end)
            continue;
        if (line_addr < r.hot_end)
            return Region::Hot;
        if (line_addr < r.warm_end)
            return Region::Warm;
        return Region::Cold;
    }
    return Region::Other;
}

bool
GraspPolicy::insertAtMru(std::uint64_t line_addr)
{
    switch (classify(line_addr)) {
      case Region::Hot:
        ++stats_.hot_inserts;
        return true;
      case Region::Warm:
        ++stats_.warm_inserts;
        ++stats_.distant_inserts;
        return false;
      case Region::Cold:
        ++stats_.cold_inserts;
        ++stats_.distant_inserts;
        return false;
      case Region::Other:
        ++stats_.other_inserts;
        ++stats_.distant_inserts;
        return false;
    }
    panic("unreachable grasp region class");
}

bool
GraspPolicy::promoteOnHit(std::uint64_t line_addr)
{
    if (classify(line_addr) == Region::Cold) {
        ++stats_.unpromoted_hits;
        return false;
    }
    ++stats_.promoted_hits;
    return true;
}

void
GraspPolicy::visit(FieldVisitor &v)
{
    GraspPolicyStats &s = stats_;
    v.counter("hot_inserts", s.hot_inserts,
              "LLC fills from hot property ranges");
    v.counter("warm_inserts", s.warm_inserts,
              "LLC fills from warm property ranges");
    v.counter("cold_inserts", s.cold_inserts,
              "LLC fills from cold property ranges");
    v.counter("other_inserts", s.other_inserts,
              "LLC fills outside monitored ranges");
    v.counter("distant_inserts", s.distant_inserts,
              "LLC fills at distant-reuse priority");
    v.counter("promoted_hits", s.promoted_hits, "LLC hits promoted to MRU");
    v.counter("unpromoted_hits", s.unpromoted_hits,
              "LLC hits left at their priority");
}

const char *
regionName(GraspPolicy::Region r)
{
    switch (r) {
      case GraspPolicy::Region::Hot:
        return "hot";
      case GraspPolicy::Region::Warm:
        return "warm";
      case GraspPolicy::Region::Cold:
        return "cold";
      case GraspPolicy::Region::Other:
        return "other";
    }
    panic("unreachable grasp region class");
}

} // namespace omega
