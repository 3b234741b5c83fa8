/**
 * @file
 * Cache array implementation.
 */

#include "sim/cache.hh"

#include <algorithm>
#include <atomic>
#include <bit>

#include "util/logging.hh"

namespace omega {

namespace {

/** Set by forceScalarTagScan. */
std::atomic<bool> g_force_scalar_tag_scan{false};

/**
 * The one place a CacheArray's row scan is chosen: the AVX2 scan for a
 * geometry of exactly 8 ways on a host with AVX2, unless a test has
 * forced the scalar scan; the scalar select otherwise.
 */
bool
useAvx2TagScan(unsigned ways)
{
#if defined(__x86_64__)
    static const bool cpu_has_avx2 = __builtin_cpu_supports("avx2");
    return ways == 8 && cpu_has_avx2 && !g_force_scalar_tag_scan.load();
#else
    (void)ways;
    return false;
#endif
}

} // namespace

void
forceScalarTagScan(bool scalar)
{
    g_force_scalar_tag_scan.store(scalar);
}

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways,
                       unsigned line_bytes)
    : line_bytes_(line_bytes), ways_(ways)
{
    omega_assert(line_bytes_ > 0 && (line_bytes_ & (line_bytes_ - 1)) == 0,
                 "line size must be a power of two");
    omega_assert(ways_ > 0, "need at least one way");
    const std::uint64_t lines = std::max<std::uint64_t>(
        size_bytes / line_bytes_, ways_);
    sets_ = std::max<std::uint64_t>(lines / ways_, 1);
    line_shift_ = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes_)));
    sets_pow2_ = std::has_single_bit(sets_);
    set_mask_ = sets_pow2_ ? sets_ - 1 : 0;
    if (!sets_pow2_) {
        omega_assert(sets_ < (std::uint64_t{1} << 32),
                     "fastmod magic requires fewer than 2^32 sets");
        set_magic_ = ~std::uint64_t{0} / sets_ + 1;
    }
    lines_.assign(sets_ * ways_, CacheLine{});
    tags_.assign(sets_ * ways_, kEmptyTag);
    lru_.assign(sets_ * ways_, 0);
    use_avx2_ = useAvx2TagScan(ways_);
}

CacheAccessResult
CacheArray::missFill(std::uint64_t base, std::uint64_t tag,
                     std::uint64_t addr)
{
    omega_assert(tag != kEmptyTag, "address aliases the empty-tag sentinel");

    CacheAccessResult res;

    // No way matched: pick the last invalid way if one exists, otherwise
    // the (first) true-LRU way. The scan runs on the flat tag/lru rows
    // only; a sentinel tag is equivalent to state Invalid here because no
    // fill of this array can be pending while another one starts. Both
    // reductions are fixed-trip selects (cmov) — victim position has no
    // pattern a branch predictor could learn. The LRU min may include
    // stale stamps of invalid ways, but it is only consulted when every
    // way is valid.
    const std::uint64_t *tags = &tags_[base];
    const std::uint64_t *lru = &lru_[base];
    unsigned empty_w = ways_;
    unsigned min_w = 0;
    std::uint64_t min_v = lru[0];
    for (unsigned w = 0; w < ways_; ++w) {
        empty_w = tags[w] == kEmptyTag ? w : empty_w;
        const bool older = lru[w] < min_v;
        min_w = older ? w : min_w;
        min_v = older ? lru[w] : min_v;
    }
    const unsigned vw = empty_w != ways_ ? empty_w : min_w;

    CacheLine *victim = &lines_[base + vw];
    if (victim->state != LineState::Invalid) {
        res.evicted = true;
        res.victim_addr = victim->tag * line_bytes_;
        res.victim = *victim;
        omega_check(setOf(res.victim_addr) == setOf(addr),
                    "evicted a line from a foreign set");
        omega_check(victim->tag != tag,
                    "evicting the line being accessed");
    }
    *victim = CacheLine{};
    victim->tag = tag;
    victim->state = LineState::Invalid; // caller decides the final state
    tags_[base + vw] = tag;
    // Insertion priority: MRU (the baseline's unconditional bump) or, if
    // an installed policy predicts distant reuse, stamp 0 — the line is
    // the set's next victim unless a promoting hit rescues it. The clock
    // only advances on MRU insertions, so the null-policy sequence of
    // stamps is untouched.
    if (policy_ == nullptr || policy_->insertAtMru(addr))
        lru_[base + vw] = ++lru_clock_;
    else
        lru_[base + vw] = 0;
    res.line = victim;
    return res;
}

void
CacheArray::visit(FieldVisitor &v)
{
    v.config("cache sets", sets_);
    v.config("cache ways", ways_);
    v.config("cache line bytes", line_bytes_);
    v.state(lru_clock_);
    v.state(std::span(tags_));
    v.state(std::span(lru_));
    // Line metadata, field by field (CacheLine has padding); the row
    // count is the geometry checked above.
    v.custom(
        [this](SnapshotWriter &w) {
            for (const CacheLine &line : lines_) {
                w.putU64(line.tag);
                w.putU8(static_cast<std::uint8_t>(line.state));
                w.putU32(line.sharers);
                w.putU8(line.owner);
                w.putBool(line.dirty_l1);
                w.putBool(line.dirty);
            }
        },
        [this](SnapshotReader &r) {
            for (CacheLine &line : lines_) {
                line.tag = r.getU64();
                line.state = static_cast<LineState>(r.getU8());
                line.sharers = static_cast<std::uint16_t>(r.getU32());
                line.owner = r.getU8();
                line.dirty_l1 = r.getBool();
                line.dirty = r.getBool();
            }
        });
}

void
CacheArray::invalidate(std::uint64_t addr)
{
    if (CacheLine *line = probe(addr)) {
        tags_[static_cast<std::uint64_t>(line - lines_.data())] = kEmptyTag;
        *line = CacheLine{};
    }
}

void
CacheArray::flush()
{
    std::fill(lines_.begin(), lines_.end(), CacheLine{});
    std::fill(tags_.begin(), tags_.end(), kEmptyTag);
    std::fill(lru_.begin(), lru_.end(), 0);
}

} // namespace omega
