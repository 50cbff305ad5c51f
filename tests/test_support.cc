/**
 * @file
 * Tests for support utilities: RNG determinism and distribution sanity,
 * divisor/factorization enumeration, small math helpers, and the
 * logging level gate.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace ft {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(MathUtil, DivisorsOfTwelve)
{
    EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
}

TEST(MathUtil, DivisorsOfPrime)
{
    EXPECT_EQ(divisorsOf(13), (std::vector<int64_t>{1, 13}));
}

TEST(MathUtil, DivisorsOfOne)
{
    EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
}

class FactorizationTest : public ::testing::TestWithParam<
                              std::tuple<int64_t, int>>
{};

TEST_P(FactorizationTest, EveryTupleMultipliesToN)
{
    auto [n, parts] = GetParam();
    auto fs = factorizations(n, parts);
    ASSERT_FALSE(fs.empty());
    std::set<std::vector<int64_t>> unique;
    for (const auto &f : fs) {
        ASSERT_EQ(static_cast<int>(f.size()), parts);
        EXPECT_EQ(product(f), n);
        unique.insert(f);
    }
    EXPECT_EQ(unique.size(), fs.size()) << "duplicate factorizations";
    // SplitSubSpace::indexOf binary-searches tuples in this order.
    EXPECT_TRUE(std::is_sorted(fs.begin(), fs.end()))
        << "not in ascending lexicographic order";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FactorizationTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 4),
                      std::make_tuple(7, 3), std::make_tuple(12, 2),
                      std::make_tuple(64, 4), std::make_tuple(96, 3),
                      std::make_tuple(1024, 4), std::make_tuple(448, 4),
                      std::make_tuple(100, 3)));

TEST(MathUtil, FactorizationCountsMatchFormulaForPowersOfTwo)
{
    // Ordered 4-factorizations of 2^k = C(k+3, 3).
    EXPECT_EQ(factorizations(1024, 4).size(), 286u); // k=10
    EXPECT_EQ(factorizations(16, 4).size(), 35u);    // k=4
}

TEST(MathUtil, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
}

TEST(MathUtil, LargestPowerOfTwoDivisor)
{
    EXPECT_EQ(largestPowerOfTwoDivisor(96), 32);
    EXPECT_EQ(largestPowerOfTwoDivisor(7), 1);
    EXPECT_EQ(largestPowerOfTwoDivisor(1024), 1024);
}

TEST(MathUtil, IsPowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(MathUtil, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

/** Counts how often a log call formats it. */
struct FormatCounter
{
    int *formatted;
};

std::ostream &
operator<<(std::ostream &os, const FormatCounter &c)
{
    ++*c.formatted;
    return os << "counted";
}

TEST(Logging, DroppedMessagesAreNeverFormatted)
{
    const LogLevel saved = logLevel();
    int formatted = 0;
    const FormatCounter counter{&formatted};

    setLogLevel(LogLevel::Silent);
    inform("dropped ", counter);
    warn("dropped ", counter);
    debug("dropped ", counter);
    EXPECT_EQ(formatted, 0);

    // At Warning only warn() prints, so only it formats.
    setLogLevel(LogLevel::Warning);
    inform("dropped ", counter);
    debug("dropped ", counter);
    EXPECT_EQ(formatted, 0);
    warn("printed ", counter);
    EXPECT_EQ(formatted, 1);
    setLogLevel(saved);
}

} // namespace
} // namespace ft
