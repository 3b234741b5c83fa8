/**
 * @file
 * MESI hierarchy implementation.
 */

#include "sim/coherence.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace omega {

CacheHierarchy::CacheHierarchy(const MachineParams &params)
    : params_(params),
      l2_(params.l2.size_bytes, params.l2.ways, params.l2.line_bytes),
      xbar_(std::make_unique<Crossbar>(params)),
      dram_(std::make_unique<Dram>(params))
{
    l1_.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c) {
        l1_.emplace_back(params.l1d.size_bytes, params.l1d.ways,
                         params.l1d.line_bytes);
    }
}

void
CacheHierarchy::backInvalidate(const CacheLine &victim,
                               std::uint64_t victim_addr)
{
    std::uint16_t sharers = victim.sharers;
    while (sharers) {
        const unsigned c = static_cast<unsigned>(std::countr_zero(sharers));
        sharers = static_cast<std::uint16_t>(sharers & (sharers - 1));
        l1_[c].invalidate(victim_addr);
        ++invalidations_;
        xbar_->recordControl(); // invalidate
        xbar_->recordControl(); // ack
    }
}

Cycles
CacheHierarchy::accessSlow(unsigned core, std::uint64_t addr, bool write,
                           Cycles now, bool sequential, CacheLine *l1_line)
{
    omega_assert(core < l1_.size(), "core id out of range");
    const std::uint64_t line_addr = l2_.lineAddr(addr);
    const unsigned line_bytes = params_.l2.line_bytes;
    const std::uint16_t my_bit = static_cast<std::uint16_t>(1u << core);

    ++l1_accesses_;
    // The inline fast path already ran the set scan: either it produced
    // the hit line (a write needing a state transition) or it proved the
    // miss, so allocation can skip straight to victim selection.
    CacheAccessResult l1res;
    if (l1_line) {
        l1res.hit = true;
        l1res.line = l1_line;
    } else {
        l1res = l1_[core].fillAfterMiss(line_addr);
    }
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->onL1Access(core, line_addr, l1res.hit);
    if (l1res.hit) {
        ++l1_hits_;
        Cycles latency = params_.l1d.latency;
        if (write && l1res.line->state == LineState::Shared) {
            // Upgrade: ask the directory to invalidate the other copies.
            ++upgrades_;
            xbar_->recordControl(); // upgrade request
            latency += xbar_->roundTrip();
            if (CacheLine *dl = l2_.probe(line_addr)) {
                std::uint16_t others =
                    static_cast<std::uint16_t>(dl->sharers & ~my_bit);
                while (others) {
                    const unsigned c = static_cast<unsigned>(
                        std::countr_zero(others));
                    others = static_cast<std::uint16_t>(
                        others & (others - 1));
                    l1_[c].invalidate(line_addr);
                    ++invalidations_;
                    xbar_->recordControl();
                    xbar_->recordControl();
                }
                dl->sharers = my_bit;
                dl->dirty_l1 = true;
                dl->owner = static_cast<std::uint8_t>(core);
            }
            l1res.line->state = LineState::Modified;
        } else if (write) {
            l1res.line->state = LineState::Modified;
            if (CacheLine *dl = l2_.probe(line_addr)) {
                dl->dirty_l1 = true;
                dl->owner = static_cast<std::uint8_t>(core);
            }
        }
        return latency;
    }

    // L1 miss. First retire the L1 victim.
    if (l1res.evicted) {
        if (CacheLine *dl = l2_.probe(l1res.victim_addr)) {
            dl->sharers =
                static_cast<std::uint16_t>(dl->sharers & ~my_bit);
            if (l1res.victim.state == LineState::Modified) {
                dl->dirty = true;
                if (dl->dirty_l1 && dl->owner == core)
                    dl->dirty_l1 = false;
                xbar_->recordTransfer(line_bytes); // writeback data
            } else if (dl->dirty_l1 && dl->owner == core) {
                dl->dirty_l1 = false;
            }
        }
    }

    Cycles latency = params_.l1d.latency + xbar_->oneWay() +
                     params_.l2.latency;

    ++l2_accesses_;
    CacheAccessResult l2res = l2_.access(line_addr);
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->onLlcAccess(line_addr, l2res.hit,
                               l2_.setIndex(line_addr));
    CacheLine *dl = l2res.line;

    if (l2res.hit) {
        ++l2_hits_;
        if (dl->dirty_l1 && dl->owner != core &&
            (dl->sharers & (1u << dl->owner))) {
            // 3-hop dirty forward from the owning L1.
            ++dirty_forwards_;
            latency += xbar_->oneWay() + params_.l1d.latency;
            xbar_->recordTransfer(line_bytes); // owner -> requestor
            CacheArray &owner_l1 = l1_[dl->owner];
            if (CacheLine *ol = owner_l1.probe(line_addr)) {
                if (write) {
                    owner_l1.invalidate(line_addr);
                    ++invalidations_;
                } else {
                    ol->state = LineState::Shared;
                }
            }
            dl->dirty = true;
            if (write) {
                dl->sharers = my_bit;
                dl->owner = static_cast<std::uint8_t>(core);
                dl->dirty_l1 = true;
            } else {
                dl->sharers = static_cast<std::uint16_t>(
                    (dl->sharers & (1u << dl->owner)) | my_bit);
                dl->dirty_l1 = false;
            }
        } else if (write) {
            std::uint16_t others =
                static_cast<std::uint16_t>(dl->sharers & ~my_bit);
            while (others) {
                const unsigned c =
                    static_cast<unsigned>(std::countr_zero(others));
                others = static_cast<std::uint16_t>(others & (others - 1));
                l1_[c].invalidate(line_addr);
                ++invalidations_;
                xbar_->recordControl();
                xbar_->recordControl();
            }
            dl->sharers = my_bit;
            dl->owner = static_cast<std::uint8_t>(core);
            dl->dirty_l1 = true;
        } else {
            // A new reader joins: any Exclusive copy elsewhere degrades
            // to Shared so a later store there must upgrade.
            std::uint16_t others =
                static_cast<std::uint16_t>(dl->sharers & ~my_bit);
            while (others) {
                const unsigned c =
                    static_cast<unsigned>(std::countr_zero(others));
                others = static_cast<std::uint16_t>(others & (others - 1));
                if (CacheLine *ol = l1_[c].probe(line_addr)) {
                    if (ol->state == LineState::Exclusive)
                        ol->state = LineState::Shared;
                }
            }
            dl->sharers = static_cast<std::uint16_t>(dl->sharers | my_bit);
        }
    } else {
        // L2 miss: retire the L2 victim, then fetch from DRAM.
        if (l2res.evicted) {
            backInvalidate(l2res.victim, l2res.victim_addr);
            if (l2res.victim.dirty || l2res.victim.dirty_l1) {
                ++writebacks_;
                dram_->write(now + latency, l2res.victim_addr, line_bytes);
            }
        }
        latency +=
            dram_->read(now + latency, line_addr, line_bytes, sequential);
        dl->state = LineState::Shared; // "valid" for the L2's own role
        dl->dirty = false;
        dl->sharers = my_bit;
        dl->dirty_l1 = write;
        dl->owner = static_cast<std::uint8_t>(core);
    }

    // Fill the L1.
    xbar_->recordTransfer(line_bytes); // L2/owner -> L1 fill
    latency += xbar_->oneWay();
    const bool shared_elsewhere = (dl->sharers & ~my_bit) != 0;
    l1res.line->state = write ? LineState::Modified
                              : (shared_elsewhere ? LineState::Shared
                                                  : LineState::Exclusive);
    return latency;
}

void
CacheHierarchy::collect(StatsReport &out) const
{
    out.l1_accesses += l1_accesses_;
    out.l1_hits += l1_hits_;
    out.l2_accesses += l2_accesses_;
    out.l2_hits += l2_hits_;
    out.writebacks += writebacks_;
    out.upgrades += upgrades_;
    out.invalidations += invalidations_;
    out.dirty_forwards += dirty_forwards_;
    out.onchip_bytes += xbar_->bytes();
    out.onchip_flits += xbar_->flits();
    out.onchip_packets += xbar_->packets();
    out.dram_reads += dram_->reads();
    out.dram_writes += dram_->writes();
    out.dram_read_bytes += dram_->readBytes();
    out.dram_write_bytes += dram_->writeBytes();
    out.dram_queue_cycles += dram_->queueCycles();
    out.dram_max_queue =
        std::max<std::uint64_t>(out.dram_max_queue, dram_->maxQueue());
}

void
CacheHierarchy::visit(FieldVisitor &v)
{
    v.config("L1 caches", l1_.size());
    for (CacheArray &l1 : l1_)
        l1.visit(v);
    l2_.visit(v);
    v.group("xbar", *xbar_);
    v.group("dram", *dram_);
    v.counter("l1_accesses", l1_accesses_, "L1D accesses");
    v.counter("l1_hits", l1_hits_, "L1D hits");
    v.counter("l2_accesses", l2_accesses_, "shared-L2 accesses");
    v.counter("l2_hits", l2_hits_, "shared-L2 hits");
    v.counter("writebacks", writebacks_, "dirty-line writebacks");
    v.counter("upgrades", upgrades_, "S->M upgrade transactions");
    v.counter("invalidations", invalidations_, "sharer invalidations sent");
    v.counter("dirty_forwards", dirty_forwards_,
              "3-hop dirty-owner forwards");
}

void
CacheHierarchy::flushAll()
{
    for (auto &l1 : l1_)
        l1.flush();
    l2_.flush();
}

} // namespace omega
