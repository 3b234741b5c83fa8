/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named Counter / Scalar / Histogram objects in a
 * StatGroup. Groups nest, and dump() renders the whole tree in a
 * gem5-stats-like "name  value  # description" format. Values are plain
 * doubles/uint64s — this is an accounting layer, not a sampling profiler.
 */

#ifndef OMEGA_UTIL_STATS_HH
#define OMEGA_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace omega {

class JsonWriter;

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Fixed-bucket histogram over a [lo, hi) range with linear buckets. */
class Histogram
{
  public:
    Histogram() = default;

    /**
     * Configure the bucketing.
     *
     * @param lo inclusive lower bound of the tracked range.
     * @param hi exclusive upper bound; samples >= hi land in the overflow.
     * @param buckets number of equal-width buckets.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /**
     * Log-spaced variant: bucket i spans [lo*r^i, lo*r^(i+1)) with
     * r = (hi/lo)^(1/buckets). Requires 0 < lo < hi. Built for
     * heavy-tailed distributions — e.g. reuse distances spanning
     * 1..1e8 — where linear buckets dump every sample into bin 0.
     */
    static Histogram logSpaced(double lo, double hi, std::size_t buckets);

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Approximate p-quantile (0..1) from bucket midpoints. */
    double quantile(double p) const;

    /** True when the buckets are log-spaced (see logSpaced()). */
    bool logSpacedBuckets() const { return log_; }

    /**
     * @name Snapshot support.
     * The mutable accumulators as raw 64-bit words (doubles bit-cast);
     * geometry (bounds, bucket count, spacing) is construction-time
     * configuration and is NOT exported — importState() onto a
     * differently shaped histogram throws std::invalid_argument.
     * Exposed as plain words so util/ stays independent of the sim/
     * snapshot layer.
     * @{
     */
    std::vector<std::uint64_t> exportState() const;
    void importState(const std::vector<std::uint64_t> &state);
    /** @} */

  private:
    double lo_ = 0.0;
    double hi_ = 1.0;
    /** Bucket width; in log mode this is the width in log(value) space. */
    double width_ = 1.0;
    bool log_ = false;
    double log_lo_ = 0.0;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A named collection of statistics.
 *
 * Components own their counters directly (for speed) and register pointers
 * here for reporting. The group does not own registered objects; their
 * lifetime must cover the group's dump calls. Child groups made with
 * addGroup() are owned by their parent.
 *
 * Registering two entries (or two children) under the same name in one
 * group is a hard error: silently shadowing a counter would corrupt every
 * downstream report, so the collision aborts at registration time.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under this group. */
    void addCounter(const std::string &name, const Counter *c,
                    const std::string &desc = "");
    /** Register an externally-maintained scalar. */
    void addScalar(const std::string &name, const double *v,
                   const std::string &desc = "");
    void addScalar(const std::string &name, const std::uint64_t *v,
                   const std::string &desc = "");
    /** Register a histogram (mean/min/max are reported). */
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc = "");
    /** Attach a child group. */
    void addChild(StatGroup *child);
    /** Create, attach and own a child group named @p name. */
    StatGroup &addGroup(const std::string &name);

    const std::string &name() const { return name_; }

    /** Render the tree as "group.stat  value  # desc" lines. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Emit the subtree as one JSON object value: scalars/counters as
     * numbers, histograms as {count, sum, mean, min, max, p50, p95,
     * underflow, overflow, buckets}, children as nested objects.
     */
    void writeJson(JsonWriter &w) const;

    /** Look up a registered value by dotted path; returns NaN if missing. */
    double lookup(const std::string &dotted_path) const;

  private:
    struct Entry
    {
        enum class Kind { CounterK, ScalarD, ScalarU, HistogramK } kind;
        const void *ptr;
        std::string desc;
    };

    double entryValue(const Entry &e) const;

    std::string name_;
    std::map<std::string, Entry> entries_;
    std::vector<StatGroup *> children_;
    std::vector<std::unique_ptr<StatGroup>> owned_;
};

} // namespace omega

#endif // OMEGA_UTIL_STATS_HH
