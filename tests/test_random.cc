/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.hh"

namespace sysscale {
namespace {

TEST(Random, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Random, UniformStaysInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Random, UniformIntInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(2, 4);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 4);
        saw_lo |= v == 2;
        saw_hi |= v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, ExponentialMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Random, ChanceRespectsBias)
{
    Rng rng(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Random, ForkedStreamsAreIndependent)
{
    Rng parent(23);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

class RandomSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomSeedSweep, UniformMeanNearHalf)
{
    Rng rng(GetParam());
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeedSweep,
                         ::testing::Values(1u, 2u, 42u, 1337u,
                                           0xdeadbeefu, 987654321u));

} // namespace
} // namespace sysscale
