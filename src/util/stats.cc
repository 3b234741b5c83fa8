/**
 * @file
 * Statistics package implementation.
 */

#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <stdexcept>

#include "util/json.hh"
#include "util/logging.hh"

namespace omega {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), buckets_(buckets, 0)
{
    omega_assert(hi > lo && buckets > 0, "bad histogram range");
    width_ = (hi - lo) / static_cast<double>(buckets);
}

Histogram
Histogram::logSpaced(double lo, double hi, std::size_t buckets)
{
    omega_assert(lo > 0.0, "log-spaced histogram needs lo > 0");
    Histogram h(lo, hi, buckets);
    h.log_ = true;
    h.log_lo_ = std::log(lo);
    h.width_ = (std::log(hi) - h.log_lo_) / static_cast<double>(buckets);
    return h;
}

void
Histogram::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    if (buckets_.empty())
        return;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>(
            log_ ? (std::log(v) - log_lo_) / width_ : (v - lo_) / width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
    }
}

std::vector<std::uint64_t>
Histogram::exportState() const
{
    std::vector<std::uint64_t> out;
    out.reserve(buckets_.size() + 7);
    out.push_back(buckets_.size());
    for (const std::uint64_t b : buckets_)
        out.push_back(b);
    out.push_back(underflow_);
    out.push_back(overflow_);
    out.push_back(count_);
    out.push_back(std::bit_cast<std::uint64_t>(sum_));
    out.push_back(std::bit_cast<std::uint64_t>(min_));
    out.push_back(std::bit_cast<std::uint64_t>(max_));
    return out;
}

void
Histogram::importState(const std::vector<std::uint64_t> &state)
{
    if (state.size() != buckets_.size() + 7 ||
        state[0] != buckets_.size()) {
        throw std::invalid_argument(
            "Histogram::importState: bucket geometry mismatch");
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] = state[1 + i];
    std::size_t at = 1 + buckets_.size();
    underflow_ = state[at++];
    overflow_ = state[at++];
    count_ = state[at++];
    sum_ = std::bit_cast<double>(state[at++]);
    min_ = std::bit_cast<double>(state[at++]);
    max_ = std::bit_cast<double>(state[at++]);
}

double
Histogram::quantile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(p * count_);
    // p == 1.0 makes target == count_, which no cumulative count can
    // exceed: the largest observed sample is the exact answer.
    if (target >= count_)
        return max_;
    std::uint64_t seen = underflow_;
    if (seen > target) {
        // The quantile lands in the underflow mass, which lives at
        // unknown values below lo_; the observed minimum is the honest
        // bound (lo_ would overstate it).
        return min_;
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target) {
            const double mid = static_cast<double>(i) + 0.5;
            return log_ ? std::exp(log_lo_ + width_ * mid)
                        : lo_ + width_ * mid;
        }
    }
    // Remaining mass is overflow (samples >= hi_): report the observed
    // maximum instead of silently attributing it to hi_.
    return max_;
}

void
StatGroup::addCounter(const std::string &name, const Counter *c,
                      const std::string &desc)
{
    omega_assert(entries_.find(name) == entries_.end(),
                 "duplicate stat registration: ", name_, ".", name);
    entries_[name] = Entry{Entry::Kind::CounterK, c, desc};
}

void
StatGroup::addScalar(const std::string &name, const double *v,
                     const std::string &desc)
{
    omega_assert(entries_.find(name) == entries_.end(),
                 "duplicate stat registration: ", name_, ".", name);
    entries_[name] = Entry{Entry::Kind::ScalarD, v, desc};
}

void
StatGroup::addScalar(const std::string &name, const std::uint64_t *v,
                     const std::string &desc)
{
    omega_assert(entries_.find(name) == entries_.end(),
                 "duplicate stat registration: ", name_, ".", name);
    entries_[name] = Entry{Entry::Kind::ScalarU, v, desc};
}

void
StatGroup::addHistogram(const std::string &name, const Histogram *h,
                        const std::string &desc)
{
    omega_assert(entries_.find(name) == entries_.end(),
                 "duplicate stat registration: ", name_, ".", name);
    entries_[name] = Entry{Entry::Kind::HistogramK, h, desc};
}

void
StatGroup::addChild(StatGroup *child)
{
    for (const StatGroup *existing : children_) {
        omega_assert(existing->name() != child->name(),
                     "duplicate stat child group: ", name_, ".",
                     child->name());
    }
    children_.push_back(child);
}

StatGroup &
StatGroup::addGroup(const std::string &name)
{
    owned_.push_back(std::make_unique<StatGroup>(name));
    addChild(owned_.back().get());
    return *owned_.back();
}

double
StatGroup::entryValue(const Entry &e) const
{
    switch (e.kind) {
      case Entry::Kind::CounterK:
        return static_cast<double>(
            static_cast<const Counter *>(e.ptr)->value());
      case Entry::Kind::ScalarD:
        return *static_cast<const double *>(e.ptr);
      case Entry::Kind::ScalarU:
        return static_cast<double>(
            *static_cast<const std::uint64_t *>(e.ptr));
      case Entry::Kind::HistogramK:
        return static_cast<const Histogram *>(e.ptr)->mean();
    }
    return std::numeric_limits<double>::quiet_NaN();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &[name, e] : entries_) {
        os << std::left << std::setw(48) << (full + "." + name)
           << std::right << std::setw(18);
        const double v = entryValue(e);
        if (std::floor(v) == v && std::abs(v) < 1e15)
            os << static_cast<long long>(v);
        else
            os << std::setprecision(6) << v;
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
    }
    for (const auto *child : children_)
        child->dump(os, full);
}

void
StatGroup::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[name, e] : entries_) {
        w.key(name);
        if (e.kind == Entry::Kind::HistogramK) {
            const auto *h = static_cast<const Histogram *>(e.ptr);
            w.beginObject();
            w.field("count", h->count());
            w.field("sum", h->sum());
            w.field("mean", h->mean());
            w.field("min", h->min());
            w.field("max", h->max());
            w.field("p50", h->quantile(0.5));
            w.field("p95", h->quantile(0.95));
            w.field("underflow", h->underflow());
            w.field("overflow", h->overflow());
            w.key("buckets").beginArray();
            for (std::size_t i = 0; i < h->numBuckets(); ++i)
                w.value(h->bucketCount(i));
            w.endArray();
            w.endObject();
        } else {
            w.value(entryValue(e));
        }
    }
    for (const StatGroup *child : children_) {
        w.key(child->name());
        child->writeJson(w);
    }
    w.endObject();
}

double
StatGroup::lookup(const std::string &dotted_path) const
{
    const auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        auto it = entries_.find(dotted_path);
        if (it == entries_.end())
            return std::numeric_limits<double>::quiet_NaN();
        return entryValue(it->second);
    }
    const std::string head = dotted_path.substr(0, dot);
    const std::string rest = dotted_path.substr(dot + 1);
    for (const auto *child : children_) {
        if (child->name() == head)
            return child->lookup(rest);
    }
    // Entries may themselves contain dots? They do not; report missing.
    auto it = entries_.find(dotted_path);
    if (it != entries_.end())
        return entryValue(it->second);
    return std::numeric_limits<double>::quiet_NaN();
}

} // namespace omega
