/**
 * @file
 * Set-associative cache array with MESI-capable line metadata.
 *
 * One CacheArray class serves both roles in the hierarchy:
 *  - private L1s track per-line MESI state;
 *  - the shared, inclusive L2 additionally uses each line's sharer vector
 *    and owner field as the coherence directory.
 *
 * The lookup path is the simulator's hottest loop, so indexing avoids
 * hardware division: tags come from a line-size shift, and the set index
 * uses a mask whenever the set count is a power of two. Set counts are
 * NOT rounded up to a power of two — the dataset capacity-scaling policy
 * (DESIGN.md) produces fractional cache sizes on purpose, and changing
 * the geometry would change every simulated result; non-pow2 set counts
 * keep a single hardware modulo instead.
 */

#ifndef OMEGA_SIM_CACHE_HH
#define OMEGA_SIM_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "sim/cache_policy.hh"
#include "sim/field_visitor.hh"
#include "sim/params.hh"
#include "util/check.hh"

namespace omega {

/** MESI line states (Invalid means the way is free). */
enum class LineState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/**
 * One cache line's metadata. Recency stamps live in CacheArray's flat
 * lru_ array (not here) so the victim scan stays on dense rows.
 */
struct CacheLine
{
    std::uint64_t tag = 0;
    LineState state = LineState::Invalid;
    /** Directory info (L2 role): bitmask of L1s holding the line. */
    std::uint16_t sharers = 0;
    /** Directory info: L1 that holds the line Modified (valid if dirty_l1). */
    std::uint8_t owner = 0;
    /** Directory info: some L1 holds the line Modified. */
    bool dirty_l1 = false;
    /** The L2 copy is dirty with respect to DRAM. */
    bool dirty = false;
};

/** Outcome of an allocating access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Line after the access (allocated on miss); never null. */
    CacheLine *line = nullptr;
    /** A valid victim was evicted to make room. */
    bool evicted = false;
    /** Line-aligned address of the victim. */
    std::uint64_t victim_addr = 0;
    /** Victim metadata snapshot (state/sharers/dirty at eviction). */
    CacheLine victim;
};

/**
 * Give CacheArrays constructed from now on the scalar row scan even
 * where the CPU has AVX2 (@p scalar true), or go back to the CPU's
 * choice (false). For tests and microbenchmarks, which check both scans
 * on one host; arrays already built keep theirs.
 */
void forceScalarTagScan(bool scalar);

/**
 * Physically-indexed set-associative array with true-LRU replacement.
 *
 * The array stores only metadata; data movement is accounted by the
 * hierarchy that owns it.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity.
     * @param ways associativity (clamped so there is at least one set).
     * @param line_bytes line size.
     */
    CacheArray(std::uint64_t size_bytes, unsigned ways, unsigned line_bytes);

    /** Line-aligned address of @p addr. */
    std::uint64_t lineAddr(std::uint64_t addr) const
    {
        return addr & ~static_cast<std::uint64_t>(line_bytes_ - 1);
    }

    /** Look up without allocating or touching LRU; null if absent. */
    CacheLine *
    probe(std::uint64_t addr)
    {
        const std::uint64_t tag = addr >> line_shift_;
        const std::uint64_t base = baseIndex(tag);
        const unsigned w = findWay(base, tag);
        return w == ways_ ? nullptr : &lines_[base + w];
    }
    const CacheLine *
    probe(std::uint64_t addr) const
    {
        return const_cast<CacheArray *>(this)->probe(addr);
    }

    /**
     * Hit-only access: bump the LRU clock and return the line, or null
     * on a miss without allocating. Exactly the hit half of access() —
     * callers fall back to access() for the allocation path.
     */
    CacheLine *
    touchHit(std::uint64_t addr)
    {
        const std::uint64_t tag = addr >> line_shift_;
        const std::uint64_t base = baseIndex(tag);
        const unsigned w = findWay(base, tag);
        if (w == ways_)
            return nullptr;
        if (policy_ == nullptr || policy_->promoteOnHit(addr))
            lru_[base + w] = ++lru_clock_;
        return &lines_[base + w];
    }

    /**
     * Access with allocation: on a miss the LRU way is evicted (its
     * snapshot is returned) and the line is (re)tagged with
     * state Invalid — the caller sets the final state. LRU is updated.
     *
     * Hits (the dominant case) return from the inline scan without
     * touching the victim-selection path or the victim snapshot.
     */
    CacheAccessResult
    access(std::uint64_t addr)
    {
        const std::uint64_t tag = addr >> line_shift_;
        const std::uint64_t base = baseIndex(tag);

        if constexpr (kInvariantChecksEnabled) {
            // A tag may occupy at most one way of its set; a duplicate
            // means a fill skipped the lookup path.
            unsigned matches = 0;
            for (unsigned w = 0; w < ways_; ++w) {
                if (tags_[base + w] == tag)
                    ++matches;
            }
            omega_check(matches <= 1,
                        "duplicate tag within one cache set");
        }

        const unsigned w = findWay(base, tag);
        if (w != ways_) {
            if (policy_ == nullptr || policy_->promoteOnHit(addr))
                lru_[base + w] = ++lru_clock_;
            CacheAccessResult res;
            res.hit = true;
            res.line = &lines_[base + w];
            return res;
        }
        return missFill(base, tag, addr);
    }

    /**
     * Allocation half of access() for a caller that already proved the
     * miss with touchHit(): goes straight to victim selection without
     * re-scanning the set. Calling it while the line is present would
     * duplicate the tag within the set.
     */
    CacheAccessResult
    fillAfterMiss(std::uint64_t addr)
    {
        const std::uint64_t tag = addr >> line_shift_;
        const std::uint64_t base = baseIndex(tag);
        if constexpr (kInvariantChecksEnabled) {
            for (unsigned w = 0; w < ways_; ++w) {
                omega_check(tags_[base + w] != tag,
                            "fillAfterMiss() for a line that is present");
            }
        }
        return missFill(base, tag, addr);
    }

    /** Drop a line if present (back-invalidation). */
    void invalidate(std::uint64_t addr);

    /**
     * Install (or with nullptr remove) an insertion/promotion policy.
     * With no policy every fill and hit takes the unconditional
     * MRU-stamp path — bit-identical to the pre-policy array. The policy
     * is consulted with the access address on every hit and fill, and
     * must outlive this array (the caller owns it).
     */
    void setPolicy(CachePolicy *policy) { policy_ = policy; }
    const CachePolicy *policy() const { return policy_; }

    unsigned lineBytes() const { return line_bytes_; }
    /** Set index of @p addr — the profiler's contention-heatmap key. */
    std::uint64_t setIndex(std::uint64_t addr) const { return setOf(addr); }
    std::uint64_t numSets() const { return sets_; }
    unsigned numWays() const { return ways_; }
    /** The row scan this array took at construction: "avx2" (8 ways
     *  on an AVX2 host, not forced scalar) or "scalar". Both give the
     *  same results. */
    const char *tagScanKernel() const
    {
        return use_avx2_ ? "avx2" : "scalar";
    }
    std::uint64_t sizeBytes() const
    {
        return sets_ * ways_ * line_bytes_;
    }

    /** Invalidate everything. */
    void flush();

    /**
     * Geometry (config), the tag/LRU rows and the full line metadata.
     * The installed policy is external configuration and is not
     * serialized.
     */
    void visit(FieldVisitor &v);

  private:
    /**
     * tag mod sets_ for non-pow2 set counts without the hardware divide.
     *
     * Lemire's fastmod: with magic = floor(2^64 / d) + 1, the identity
     * ((magic * n mod 2^64) * d) >> 64 == n mod d holds exactly for all
     * n, d < 2^32 — two multiplies instead of a ~30-cycle division on
     * the hottest path in the simulator. Tags above 2^32 (addresses past
     * 2^38 with 64 B lines) take the division fallback, so the mapping
     * is identical for every address either way.
     */
    std::uint64_t
    modSets(std::uint64_t tag) const
    {
        if (tag >> 32 == 0) {
            const std::uint64_t low = set_magic_ * tag;
            return static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(low) * sets_) >> 64);
        }
        return tag % sets_;
    }

    std::uint64_t
    setOf(std::uint64_t addr) const
    {
        const std::uint64_t tag = addr >> line_shift_;
        return sets_pow2_ ? (tag & set_mask_) : modSets(tag);
    }

    /** Index of the first way of the set holding @p tag. */
    std::uint64_t
    baseIndex(std::uint64_t tag) const
    {
        const std::uint64_t set =
            sets_pow2_ ? (tag & set_mask_) : modSets(tag);
        return set * ways_;
    }

    /**
     * Way holding @p tag within the set at @p base, or ways_ if absent.
     *
     * Fixed-trip select rather than an early-exit scan: true-LRU keeps
     * the resident way uniformly distributed across the set (ways are
     * never reordered on a hit), so an early exit mispredicts on almost
     * every hit, while the select compiles to a short cmov chain. At
     * most one way can match, so reduction order does not matter.
     */
    unsigned
    findWay(std::uint64_t base, std::uint64_t tag) const
    {
        const std::uint64_t *tags = &tags_[base];
#if defined(__x86_64__)
        if (use_avx2_)
            return findWay8Avx2(tags, tag);
#endif
        unsigned hit = ways_;
        for (unsigned w = 0; w < ways_; ++w)
            hit = tags[w] == tag ? w : hit;
        return hit;
    }

#if defined(__x86_64__)
    /**
     * The 8-way row scan as two 4x64-bit vector compares (the row is one
     * 64 B host cache line). At most one way can match — kEmptyTag never
     * equals a real tag — so the combined movemask has at most one bit
     * set and countr_zero recovers the way index; an empty mask is the
     * miss. Selected at construction (useAvx2TagScan in cache.cc);
     * result-identical to the scalar select.
     */
    __attribute__((target("avx2"))) unsigned
    findWay8Avx2(const std::uint64_t *tags, std::uint64_t tag) const
    {
        const __m256i needle =
            _mm256_set1_epi64x(static_cast<long long>(tag));
        const __m256i lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + 4));
        const unsigned mask =
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(lo, needle)))) |
            (static_cast<unsigned>(_mm256_movemask_pd(
                 _mm256_castsi256_pd(_mm256_cmpeq_epi64(hi, needle))))
             << 4);
        return mask != 0 ? static_cast<unsigned>(std::countr_zero(mask))
                         : 8u;
    }
#endif

    /** Miss path: victim selection, eviction snapshot, retag. */
    CacheAccessResult missFill(std::uint64_t base, std::uint64_t tag,
                               std::uint64_t addr);

    unsigned line_bytes_;
    unsigned ways_;
    std::uint64_t sets_;
    /** log2(line_bytes_): line size is asserted to be a power of two. */
    unsigned line_shift_;
    bool sets_pow2_;
    std::uint64_t set_mask_ = 0;
    /** floor(2^64 / sets_) + 1; used only when !sets_pow2_. */
    std::uint64_t set_magic_ = 0;
    std::uint64_t lru_clock_ = 0;
    /** Take the AVX2 row scan: chosen at construction, never flipped
     *  afterwards. */
    bool use_avx2_ = false;
    /** Optional insertion/promotion policy (GRASP); null = true LRU. */
    CachePolicy *policy_ = nullptr;
    /**
     * Lookup tags, one entry per way, kEmptyTag when the way holds no
     * line. Split from lines_ so a hit scan touches a single host cache
     * line (8 ways x 8 B) instead of the full metadata structs. A way
     * is scannable here from the moment missFill() retags it — its
     * CacheLine still says Invalid until the caller sets the final MESI
     * state, but no lookup of that address can occur in between.
     */
    std::vector<std::uint64_t> tags_;
    /** True-LRU stamps, parallel to tags_ (victim scan reads only these). */
    std::vector<std::uint64_t> lru_;
    std::vector<CacheLine> lines_;

    /** No real tag can alias this: tags are addr >> line_shift_ < 2^58. */
    static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
};

} // namespace omega

#endif // OMEGA_SIM_CACHE_HH
