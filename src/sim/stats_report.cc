/**
 * @file
 * StatsReport derived metrics and table-driven counter plumbing.
 */

#include "sim/stats_report.hh"

#include <algorithm>

#include "sim/field_visitor.hh"
#include "util/json.hh"

namespace omega {

namespace {

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

const std::vector<StatsField> &
StatsReport::fields()
{
    static const std::vector<StatsField> table = {
        {"cycles", &StatsReport::cycles, StatKind::Time},
        {"instructions", &StatsReport::instructions, StatKind::Sum},
        {"l1_accesses", &StatsReport::l1_accesses, StatKind::Sum},
        {"l1_hits", &StatsReport::l1_hits, StatKind::Sum},
        {"l2_accesses", &StatsReport::l2_accesses, StatKind::Sum},
        {"l2_hits", &StatsReport::l2_hits, StatKind::Sum},
        {"writebacks", &StatsReport::writebacks, StatKind::Sum},
        {"upgrades", &StatsReport::upgrades, StatKind::Sum},
        {"invalidations", &StatsReport::invalidations, StatKind::Sum},
        {"dirty_forwards", &StatsReport::dirty_forwards, StatKind::Sum},
        {"sp_accesses", &StatsReport::sp_accesses, StatKind::Sum},
        {"sp_local", &StatsReport::sp_local, StatKind::Sum},
        {"sp_remote", &StatsReport::sp_remote, StatKind::Sum},
        {"svb_hits", &StatsReport::svb_hits, StatKind::Sum},
        {"svb_misses", &StatsReport::svb_misses, StatKind::Sum},
        {"pisc_ops", &StatsReport::pisc_ops, StatKind::Sum},
        {"pisc_busy_cycles", &StatsReport::pisc_busy_cycles, StatKind::Sum},
        {"pisc_max_busy_cycles", &StatsReport::pisc_max_busy_cycles,
         StatKind::Max},
        {"pisc_blocked_conflicts", &StatsReport::pisc_blocked_conflicts,
         StatKind::Sum},
        {"atomics_total", &StatsReport::atomics_total, StatKind::Sum},
        {"atomics_offloaded", &StatsReport::atomics_offloaded,
         StatKind::Sum},
        {"atomics_on_core", &StatsReport::atomics_on_core, StatKind::Sum},
        {"onchip_bytes", &StatsReport::onchip_bytes, StatKind::Sum},
        {"onchip_flits", &StatsReport::onchip_flits, StatKind::Sum},
        {"onchip_packets", &StatsReport::onchip_packets, StatKind::Sum},
        {"dram_reads", &StatsReport::dram_reads, StatKind::Sum},
        {"dram_writes", &StatsReport::dram_writes, StatKind::Sum},
        {"dram_read_bytes", &StatsReport::dram_read_bytes, StatKind::Sum},
        {"dram_write_bytes", &StatsReport::dram_write_bytes, StatKind::Sum},
        {"dram_queue_cycles", &StatsReport::dram_queue_cycles,
         StatKind::Sum},
        {"dram_max_queue", &StatsReport::dram_max_queue, StatKind::Max},
        {"compute_cycles", &StatsReport::compute_cycles, StatKind::Sum},
        {"mem_stall_cycles", &StatsReport::mem_stall_cycles, StatKind::Sum},
        {"atomic_stall_cycles", &StatsReport::atomic_stall_cycles,
         StatKind::Sum},
        {"sync_stall_cycles", &StatsReport::sync_stall_cycles,
         StatKind::Sum},
        {"vtxprop_accesses", &StatsReport::vtxprop_accesses, StatKind::Sum},
        {"vtxprop_hot_accesses", &StatsReport::vtxprop_hot_accesses,
         StatKind::Sum},
    };
    return table;
}

double
StatsReport::l1HitRate() const
{
    return ratio(l1_hits, l1_accesses);
}

double
StatsReport::l2HitRate() const
{
    return ratio(l2_hits, l2_accesses);
}

double
StatsReport::lastLevelHitRate() const
{
    // Scratchpad accesses always hit (the mapped vtxProp range lives there
    // for the whole run); the combined "last-level storage" rate counts
    // them together with L2 hits over all last-level lookups (Fig 15).
    return ratio(l2_hits + sp_accesses, l2_accesses + sp_accesses);
}

double
StatsReport::dramBandwidthGBs(double clock_ghz) const
{
    if (cycles == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(cycles) / (clock_ghz * 1e9);
    return static_cast<double>(dramBytes()) / 1e9 / seconds;
}

double
StatsReport::dramBandwidthUtilization(const MachineParams &params) const
{
    const double peak =
        params.dram_gbs_per_channel * params.dram_channels;
    return peak > 0.0 ? dramBandwidthGBs(params.clock_ghz) / peak : 0.0;
}

double
StatsReport::memoryBoundFraction() const
{
    const std::uint64_t total = compute_cycles + mem_stall_cycles +
                                atomic_stall_cycles + sync_stall_cycles;
    return ratio(mem_stall_cycles + atomic_stall_cycles, total);
}

double
StatsReport::hotVertexAccessFraction() const
{
    return ratio(vtxprop_hot_accesses, vtxprop_accesses);
}

void
StatsReport::visit(FieldVisitor &v)
{
    v.config("stats report fields", fields().size());
    for (const StatsField &f : fields())
        v.state(this->*f.member);
}

void
StatsReport::accumulate(const StatsReport &other)
{
    for (const StatsField &f : fields()) {
        switch (f.kind) {
          case StatKind::Sum:
            this->*f.member += other.*f.member;
            break;
          case StatKind::Max:
            this->*f.member = std::max(this->*f.member, other.*f.member);
            break;
          case StatKind::Time:
            break; // a time, not a counter: keep ours
        }
    }
}

StatsReport
StatsReport::deltaFrom(const StatsReport &prev) const
{
    StatsReport d;
    for (const StatsField &f : fields()) {
        switch (f.kind) {
          case StatKind::Sum:
          case StatKind::Time:
            d.*f.member = this->*f.member - prev.*f.member;
            break;
          case StatKind::Max:
            d.*f.member = this->*f.member;
            break;
        }
    }
    return d;
}

void
StatsReport::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const StatsField &f : fields())
        w.field(f.name, this->*f.member);
    w.endObject();
}

} // namespace omega
