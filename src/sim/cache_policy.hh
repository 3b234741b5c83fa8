/**
 * @file
 * Pluggable LLC insertion/promotion policy (GRASP).
 *
 * The baseline replacement is true LRU: every fill and every hit bumps
 * the line to MRU. Faldu et al. ("Domain-Specialized Cache Management
 * for Graph Analytics", PAPERS.md) show that for natural graphs this
 * lets the torrent of single-use lines — cold vertex properties touched
 * through the power-law tail, the streamed edge array — wash the small
 * set of hot vertex properties out of the LLC. GRASP fixes that purely
 * through replacement priorities, using the same software-provided
 * property-range bounds OMEGA's scratchpad monitors already consume: no
 * extra storage, just where a fill enters the recency order and whether
 * a hit promotes.
 *
 * A CacheArray consults its installed policy at exactly two points:
 *
 *  - on a fill: insertAtMru() decides between the LRU-stamp bump of the
 *    baseline (MRU, long expected reuse) and a distant-reuse insertion
 *    (stamp 0: the line is the set's next victim unless it proves reuse);
 *  - on a hit: promoteOnHit() decides whether the line moves to MRU.
 *
 * With no policy installed (every machine except GRASP) both call sites
 * compile to the unconditional stamp bump the baseline always performed,
 * so simulated results are bit-identical to the pre-policy code.
 */

#ifndef OMEGA_SIM_CACHE_POLICY_HH
#define OMEGA_SIM_CACHE_POLICY_HH

#include <cstdint>
#include <vector>

namespace omega {

class FieldVisitor;
struct MachineConfig;

/** LLC insertion/promotion hook. Addresses are line-aligned. */
class CachePolicy
{
  public:
    virtual ~CachePolicy() = default;

    /** Policy label for stats/debug output. */
    virtual const char *policyName() const = 0;

    /**
     * Called once per fill (miss allocation) with the line address.
     * @return true to insert at MRU (baseline behavior), false to insert
     *         at distant-reuse priority (immediate victim candidate).
     */
    virtual bool insertAtMru(std::uint64_t line_addr) = 0;

    /**
     * Called once per hit with the line address.
     * @return true to promote the line to MRU (baseline behavior).
     */
    virtual bool promoteOnHit(std::uint64_t line_addr) = 0;
};

/**
 * The identity policy: every fill at MRU, every hit promoted — byte-for-
 * byte the baseline true-LRU behavior, exercised through the policy call
 * sites. Exists so tests can prove the hook itself is timing-neutral.
 */
class DefaultCachePolicy final : public CachePolicy
{
  public:
    const char *policyName() const override { return "default-lru"; }
    bool insertAtMru(std::uint64_t) override { return true; }
    bool promoteOnHit(std::uint64_t) override { return true; }
};

/**
 * One monitored property range, pre-split at the hot/warm boundaries:
 * [start, hot_end) holds the top in-degree vertices (after the paper's
 * hot-first reordering), [hot_end, warm_end) the next tier, and
 * [warm_end, end) the power-law tail. Bounds are byte addresses and must
 * be ordered; regions must not overlap.
 */
struct GraspRegion
{
    std::uint64_t start = 0;
    std::uint64_t hot_end = 0;
    std::uint64_t warm_end = 0;
    std::uint64_t end = 0;
};

/** Counters the GRASP policy maintains at its two decision points. */
struct GraspPolicyStats
{
    /** Fills by region class (hot/warm/cold inside a monitored property
     *  range; other = edge array, active lists, unmonitored data). */
    std::uint64_t hot_inserts = 0;
    std::uint64_t warm_inserts = 0;
    std::uint64_t cold_inserts = 0;
    std::uint64_t other_inserts = 0;
    /** Fills that entered at distant-reuse priority (never hot). */
    std::uint64_t distant_inserts = 0;
    /** Hits promoted to MRU. */
    std::uint64_t promoted_hits = 0;
    /** Hits left in place (cold lines never earn protection). */
    std::uint64_t unpromoted_hits = 0;

    std::uint64_t inserts() const
    {
        return hot_inserts + warm_inserts + cold_inserts + other_inserts;
    }
    std::uint64_t hits() const { return promoted_hits + unpromoted_hits; }
};

/**
 * GRASP: pin the hot vertex properties, make everything else prove its
 * reuse.
 *
 *  - Hot lines insert at MRU and promote on hit: the protected set.
 *  - Warm and unmonitored ("other") lines insert at distant priority but
 *    promote on hit — thrash-resistant LIP-style insertion that still
 *    retains anything with demonstrated reuse (active lists, frontier
 *    data).
 *  - Cold lines (the power-law tail of a monitored range) insert at
 *    distant priority and never promote: one irregular touch must not
 *    displace the protected set.
 */
class GraspPolicy final : public CachePolicy
{
  public:
    /** Region class of a line address. */
    enum class Region : std::uint8_t { Other, Hot, Warm, Cold };

    GraspPolicy() = default;
    /** Construct with regions; aborts on invalid/overlapping bounds. */
    explicit GraspPolicy(std::vector<GraspRegion> regions);

    /**
     * Install the monitored regions (sorted internally). Aborts if any
     * region's bounds are out of order or two regions overlap — a
     * misconfigured protection map silently degrades to noise, so it is
     * rejected at configuration time.
     */
    void setRegions(std::vector<GraspRegion> regions);

    /**
     * Derive the regions from a run's machine configuration: each
     * monitored property range splits at hot_boundary (the paper's
     * top-k% in-degree cut the engine already computes) and at
     * hot_boundary * warm_factor.
     */
    static std::vector<GraspRegion>
    regionsFromConfig(const MachineConfig &config, unsigned warm_factor);

    Region classify(std::uint64_t line_addr) const;

    const char *policyName() const override { return "grasp"; }
    bool insertAtMru(std::uint64_t line_addr) override;
    bool promoteOnHit(std::uint64_t line_addr) override;

    const GraspPolicyStats &stats() const { return stats_; }
    /** The decision counters (the region map is configuration,
     *  re-derived by configure() on resume). */
    void visit(FieldVisitor &v);

    const std::vector<GraspRegion> &regions() const { return regions_; }

  private:
    std::vector<GraspRegion> regions_;
    GraspPolicyStats stats_;
};

/** Lowercase label for a region class ("hot", "warm", "cold", "other"). */
const char *regionName(GraspPolicy::Region r);

} // namespace omega

#endif // OMEGA_SIM_CACHE_POLICY_HH
