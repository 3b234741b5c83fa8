/**
 * @file
 * Model-checking-style property test: CacheArray against a simple
 * reference implementation (per-set LRU lists) over long random traces,
 * parameterized across geometries and both row scans (the CPU's and the
 * scalar one forced). Any divergence in hit/miss outcomes
 * or victim choice is a bug in one of the two models — the reference is
 * small enough to inspect by eye.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cache.hh"
#include "tag_scan.hh"
#include "util/rng.hh"

namespace omega {
namespace {

/** Obviously-correct per-set LRU cache. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size_bytes, unsigned ways,
                   unsigned line_bytes)
        : ways_(ways), line_bytes_(line_bytes)
    {
        const std::uint64_t lines =
            std::max<std::uint64_t>(size_bytes / line_bytes, ways);
        sets_ = std::max<std::uint64_t>(lines / ways, 1);
    }

    struct Outcome
    {
        bool hit;
        bool evicted;
        std::uint64_t victim_addr;
    };

    Outcome
    access(std::uint64_t addr)
    {
        const std::uint64_t tag = addr / line_bytes_;
        auto &set = sets_lru_[(addr / line_bytes_) % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.push_back(tag); // most recently used at the back
                return {true, false, 0};
            }
        }
        Outcome out{false, false, 0};
        if (set.size() == ways_) {
            out.evicted = true;
            out.victim_addr = set.front() * line_bytes_;
            set.pop_front();
        }
        set.push_back(tag);
        return out;
    }

    void
    invalidate(std::uint64_t addr)
    {
        const std::uint64_t tag = addr / line_bytes_;
        auto &set = sets_lru_[(addr / line_bytes_) % sets_];
        set.remove(tag);
    }

  private:
    unsigned ways_;
    unsigned line_bytes_;
    std::uint64_t sets_;
    std::map<std::uint64_t, std::list<std::uint64_t>> sets_lru_;
};

struct Geometry
{
    std::uint64_t size;
    unsigned ways;
    unsigned line;
};

/** A geometry, and whether the scalar row scan is forced. */
class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<Geometry, bool>>
{
  protected:
    CacheVsReference() { forceScalarTagScan(std::get<1>(GetParam())); }
    ~CacheVsReference() override { forceScalarTagScan(false); }
};

TEST_P(CacheVsReference, RandomTraceAgrees)
{
    const Geometry geo = std::get<0>(GetParam());
    CacheArray cache(geo.size, geo.ways, geo.line);
    ReferenceCache ref(geo.size, geo.ways, geo.line);
    Rng rng(geo.size ^ geo.ways);

    // Footprint ~4x the cache so hits and misses both happen often.
    const std::uint64_t footprint = 4 * geo.size;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t addr = rng.nextBounded(footprint);
        if (rng.nextBool(0.02)) {
            cache.invalidate(addr);
            ref.invalidate(addr);
            continue;
        }
        auto got = cache.access(addr);
        if (!got.hit)
            got.line->state = LineState::Exclusive; // validate the fill
        const auto want = ref.access(addr);
        ASSERT_EQ(got.hit, want.hit) << "step " << i << " addr " << addr;
        ASSERT_EQ(got.evicted, want.evicted) << "step " << i;
        if (want.evicted) {
            ASSERT_EQ(got.victim_addr, want.victim_addr) << "step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Combine(
        ::testing::Values(Geometry{1024, 2, 64},     // 8 sets x 2 ways
                          Geometry{4096, 4, 64},     // 16 sets x 4 ways
                          Geometry{512, 8, 64},      // single set, 8 ways
                          Geometry{32768, 8, 64},    // 64 sets x 8 ways
                          Geometry{8192, 1, 64},     // direct mapped
                          Geometry{2048, 4, 32},     // small lines
                          Geometry{65536, 16, 128}), // wide and big
        ::testing::Bool()),
    [](const auto &info) {
        const Geometry &geo = std::get<0>(info.param);
        return "s" + std::to_string(geo.size) + "w" +
               std::to_string(geo.ways) + "l" + std::to_string(geo.line) +
               "_" + tagScanName(std::get<1>(info.param));
    });

using SkewedVsReference = EveryTagScan;

INSTANTIATE_TEST_SUITE_P(TagScan, SkewedVsReference, ::testing::Bool(),
                         [](const auto &info) {
                             return tagScanName(info.param);
                         });

TEST_P(SkewedVsReference, SkewedTraceAgrees)
{
    // Zipf-ish trace: the access pattern OMEGA targets, on a 4-way
    // array and on an 8-way one, which the AVX2 row scan serves.
    for (const unsigned ways : {4u, 8u}) {
        SCOPED_TRACE("ways=" + std::to_string(ways));
        CacheArray cache(512 * ways, ways, 64);
        ReferenceCache ref(512 * ways, ways, 64);
        Rng rng(7);
        for (int i = 0; i < 20000; ++i) {
            // 80% of accesses to 20% of a 16 KB footprint.
            const bool hot = rng.nextBool(0.8);
            const std::uint64_t addr =
                hot ? rng.nextBounded(3277) : 3277 + rng.nextBounded(13107);
            auto got = cache.access(addr);
            if (!got.hit)
                got.line->state = LineState::Shared;
            const auto want = ref.access(addr);
            ASSERT_EQ(got.hit, want.hit) << i;
            if (want.evicted) {
                ASSERT_EQ(got.victim_addr, want.victim_addr) << i;
            }
        }
    }
}

} // namespace
} // namespace omega
