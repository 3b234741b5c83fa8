/**
 * @file
 * Unit tests for the util module: RNG, stats, tables, strings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

namespace omega {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int c : seen)
        EXPECT_GT(c, 800); // roughly uniform
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(9);
    int trues = 0;
    for (int i = 0; i < 10000; ++i)
        trues += rng.nextBool(0.3);
    EXPECT_NEAR(trues / 10000.0, 0.3, 0.03);
}

TEST(Rng, ParetoAboveMinimum)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.nextPareto(2.0, 1.5), 1.5);
}

TEST(Rng, WorksWithStdShuffle)
{
    Rng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::shuffle(v.begin(), v.end(), rng);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Rng, AdvanceEqualsRepeatedNext)
{
    for (std::uint64_t n : {0ull, 1ull, 63ull, 64ull, 255ull, 256ull, 257ull,
                            1000003ull}) {
        SCOPED_TRACE(n);
        Rng jumped(42);
        Rng stepped(42);
        jumped.advance(n);
        for (std::uint64_t i = 0; i < n; ++i)
            stepped.next();
        for (int w = 0; w < 4; ++w)
            EXPECT_EQ(jumped.stateWords()[w], stepped.stateWords()[w]);
        EXPECT_EQ(jumped.next(), stepped.next());
    }
}

TEST(Rng, TwoToThe128StepsIsTheReferenceJump)
{
    // The xoshiro256** reference jump() applies these words; they are
    // x^(2^128) mod P.
    Rng::Poly p = {2, 0, 0, 0}; // x
    for (int i = 0; i < 128; ++i)
        p = Rng::mulModP(p, p);
    const Rng::Poly reference = {0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                                 0xa9582618e03fc9aaull,
                                 0x39abdc4529b1661cull};
    EXPECT_EQ(p, reference);
}

TEST(Rng, CharPolyIsBerlekampMasseyOfTheStateBits)
{
    // Bit 0 of state word 0 over 512 steps: P is primitive, so the
    // shortest linear recurrence of that sequence has P as its
    // characteristic polynomial.
    constexpr int kBits = 512;
    Rng rng(3);
    std::vector<int> bits(kBits);
    for (int &b : bits) {
        b = static_cast<int>(rng.stateWords()[0] & 1);
        rng.next();
    }
    // Berlekamp-Massey over GF(2): connection polynomial c with
    // bits[k] = sum_{i=1..len} c[i] bits[k - i].
    std::vector<int> c(kBits + 1, 0);
    std::vector<int> b(kBits + 1, 0);
    c[0] = b[0] = 1;
    int len = 0;
    int shift = 1;
    for (int k = 0; k < kBits; ++k) {
        int d = bits[k];
        for (int i = 1; i <= len; ++i)
            d ^= c[i] & bits[k - i];
        if (d == 0) {
            ++shift;
            continue;
        }
        const std::vector<int> prev = c;
        for (int i = 0; i + shift <= kBits; ++i)
            c[i + shift] ^= b[i];
        if (2 * len <= k) {
            len = k + 1 - len;
            b = prev;
            shift = 1;
        } else {
            ++shift;
        }
    }
    ASSERT_EQ(len, 256);
    // P(x) = x^256 c(1/x): the coefficient of x^j is c[256 - j].
    Rng::Poly p = {};
    for (int j = 0; j < 256; ++j)
        p[j / 64] |= static_cast<std::uint64_t>(c[256 - j]) << (j % 64);
    EXPECT_EQ(p, Rng::kCharPoly);
}

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BasicMoments)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(10.5);
    h.sample(3.5);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Histogram, QuantileEmptyHistogramIsZero)
{
    const Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileExtremesClampToRange)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    // p=0 resolves to the first populated bucket's midpoint; p=1 (and
    // anything beyond, after clamping) to the largest observed sample.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
    EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Histogram, QuantileAllUnderflow)
{
    Histogram h(10.0, 20.0, 5);
    for (int i = 0; i < 4; ++i)
        h.sample(-1.0);
    // Every sample sits below the range: the underflow mass reports the
    // observed minimum, not lo (which would overstate it by 11).
    EXPECT_DOUBLE_EQ(h.quantile(0.0), -1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), -1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), -1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), -1.0);
    EXPECT_EQ(h.underflow(), 4u);
}

TEST(Histogram, QuantileAllOverflow)
{
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 4; ++i)
        h.sample(99.0);
    // Every sample sits above the range: the overflow mass reports the
    // observed maximum, not hi (which would understate it by 89).
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 99.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 99.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
    EXPECT_EQ(h.overflow(), 4u);
}

TEST(Histogram, QuantileMixedUnderflowAndOverflow)
{
    Histogram h(10.0, 20.0, 5);
    h.sample(2.0);  // underflow
    h.sample(3.0);  // underflow
    h.sample(15.0); // interior
    h.sample(50.0); // overflow
    // Quantiles walk min -> buckets -> max as p sweeps the mass.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);  // underflow -> min
    EXPECT_DOUBLE_EQ(h.quantile(0.3), 2.0);  // still in underflow
    EXPECT_DOUBLE_EQ(h.quantile(0.6), 15.0); // interior bucket midpoint
    EXPECT_DOUBLE_EQ(h.quantile(0.9), 50.0); // overflow -> max
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(Histogram, QuantileSingleBucket)
{
    Histogram h(0.0, 10.0, 1);
    h.sample(1.0);
    h.sample(9.0);
    // One bucket: every interior quantile is its midpoint; p=1 is the
    // exact observed maximum.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 9.0);
}

TEST(Histogram, QuantileLogSpacedInterior)
{
    // Buckets at decade boundaries: [1,10), [10,100), [100,1000).
    Histogram h = Histogram::logSpaced(1.0, 1000.0, 3);
    for (int i = 0; i < 8; ++i)
        h.sample(5.0);
    h.sample(50.0);
    h.sample(500.0);
    // 80% of the mass is in the first decade; its geometric midpoint is
    // 10^0.5. The tail quantiles land in the later decades.
    EXPECT_NEAR(h.quantile(0.5), std::pow(10.0, 0.5), 1e-9);
    EXPECT_NEAR(h.quantile(0.85), std::pow(10.0, 1.5), 1e-9);
    EXPECT_NEAR(h.quantile(0.95), std::pow(10.0, 2.5), 1e-9);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0);
}

TEST(Histogram, QuantileLogSpacedUnderOverflow)
{
    Histogram h = Histogram::logSpaced(10.0, 1000.0, 2);
    h.sample(0.5);    // below lo: underflow
    h.sample(100.0);  // interior
    h.sample(5000.0); // above hi: overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);     // underflow -> min
    EXPECT_NEAR(h.quantile(0.5), std::pow(10.0, 2.5), 1e-9);
    EXPECT_DOUBLE_EQ(h.quantile(0.9), 5000.0);  // overflow -> max
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 5000.0);
}

TEST(StatGroup, DumpAndLookup)
{
    StatGroup root("machine");
    Counter c;
    c += 42;
    double util = 0.5;
    root.addCounter("accesses", &c, "number of accesses");
    root.addScalar("utilization", &util);

    StatGroup child("l2");
    Counter hits;
    hits += 7;
    child.addCounter("hits", &hits);
    root.addChild(&child);

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("machine.accesses"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("machine.l2.hits"), std::string::npos);
    EXPECT_NE(out.find("# number of accesses"), std::string::npos);

    EXPECT_DOUBLE_EQ(root.lookup("accesses"), 42.0);
    EXPECT_DOUBLE_EQ(root.lookup("l2.hits"), 7.0);
    EXPECT_TRUE(std::isnan(root.lookup("nope")));
}

TEST(StatGroup, LookupMissingPathsAreNaN)
{
    StatGroup root("machine");
    Counter c;
    root.addCounter("accesses", &c);
    StatGroup child("l2");
    Counter hits;
    child.addCounter("hits", &hits);
    root.addChild(&child);

    EXPECT_TRUE(std::isnan(root.lookup("missing")));
    EXPECT_TRUE(std::isnan(root.lookup("l2.missing")));
    EXPECT_TRUE(std::isnan(root.lookup("nogroup.hits")));
    EXPECT_TRUE(std::isnan(root.lookup("l2.hits.deeper")));
    // The valid paths still resolve.
    EXPECT_DOUBLE_EQ(root.lookup("accesses"), 0.0);
    EXPECT_DOUBLE_EQ(root.lookup("l2.hits"), 0.0);
}

using StatGroupDeathTest = ::testing::Test;

TEST(StatGroupDeathTest, DuplicateEntryRegistrationAborts)
{
    StatGroup g("m");
    Counter a;
    std::uint64_t b = 0;
    g.addCounter("x", &a);
    EXPECT_DEATH(g.addCounter("x", &a), "duplicate stat registration");
    // Collisions across entry kinds are just as fatal: the name is the
    // namespace, not the (name, kind) pair.
    EXPECT_DEATH(g.addScalar("x", &b), "duplicate stat registration");
}

TEST(StatGroupDeathTest, DuplicateChildGroupAborts)
{
    StatGroup root("m");
    StatGroup c1("sub");
    StatGroup c2("sub");
    root.addChild(&c1);
    EXPECT_DEATH(root.addChild(&c2), "duplicate stat child group");
}

TEST(Table, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(std::uint64_t(10));
    t.row().cell("b").cell(3.14159, 2);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.at(1, 1), "3.14");

    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas)
{
    Table t({"a", "b"});
    t.row().cell("x,y").cell("plain");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Formatters, Helpers)
{
    EXPECT_EQ(formatDouble(1.005, 1), "1.0");
    EXPECT_EQ(formatSpeedup(2.0), "2.00x");
    EXPECT_EQ(formatPercent(0.421, 1), "42.1%");
    EXPECT_EQ(formatBytes(1024), "1KB");
    EXPECT_EQ(formatBytes(16ull * 1024 * 1024), "16MB");
    EXPECT_EQ(formatBytes(1536), "1.5KB");
}

TEST(Strings, SplitTrimJoin)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(trim("  hi \t"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_EQ(join({"x", "y"}, "-"), "x-y");
}

} // namespace
} // namespace omega
