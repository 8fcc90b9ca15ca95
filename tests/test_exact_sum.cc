/**
 * @file
 * Property tests for addRepeated(): over random and adversarial
 * operands it must leave the accumulator with exactly the bits of
 * the plain `for n: for a in adds: x += a` loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "sim/exact_sum.hh"
#include "sim/random.hh"

namespace sysscale {
namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

double
naive(double x, const std::vector<double> &adds, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        for (double a : adds)
            x += a;
    }
    return x;
}

/** Fails with the operands when the jump and the loop disagree. */
void
expectExact(double x, const std::vector<double> &adds, std::uint64_t n)
{
    double fast = x;
    addRepeated(fast, adds.data(), adds.size(), n);
    const double want = naive(x, adds, n);
    ASSERT_EQ(bitsOf(fast), bitsOf(want))
        << std::hexfloat << "x=" << x << " n=" << n << " adds["
        << adds.size() << "]=" << adds[0] << " got " << fast
        << " want " << want;
}

/** ulp of a positive normal @p x. */
double
ulpOf(double x)
{
    return std::nextafter(x, std::numeric_limits<double>::infinity()) -
           x;
}

TEST(ExactSum, RandomOperands)
{
    Rng rng(2020);
    for (int trial = 0; trial < 20000; ++trial) {
        const double x = rng.uniform(1.0, 2.0) *
                         std::ldexp(1.0, static_cast<int>(
                                             rng.uniformInt(-40, 40)));
        std::vector<double> adds(
            static_cast<std::size_t>(rng.uniformInt(1, 3)));
        for (double &a : adds) {
            a = x * std::pow(10.0, rng.uniform(-19.0, -1.0));
            if (rng.uniform() < 0.1)
                a = 0.0;
        }
        expectExact(x, adds,
                    static_cast<std::uint64_t>(rng.uniformInt(0, 3000)));
    }
}

TEST(ExactSum, LongRunsCrossManyBinades)
{
    Rng rng(9);
    for (int trial = 0; trial < 12; ++trial) {
        const double x = rng.uniform(0.5, 4.0);
        std::vector<double> adds(
            static_cast<std::size_t>(rng.uniformInt(1, 3)));
        for (double &a : adds)
            a = rng.uniform(1e-7, 1e-3);
        expectExact(x, adds, 1000000);
    }
}

TEST(ExactSum, TiesRoundToEvenPerStep)
{
    // a = k u + u/2: every add is a tie whose rounding alternates with
    // the last bit of the partial sum.
    for (double x : {1.0, 1.5, 3.0 + 3 * ulpOf(3.0), 1e6 + 0.25}) {
        const double u = ulpOf(x);
        for (double k : {0.0, 1.0, 2.0, 7.0}) {
            expectExact(x, {k * u + u / 2}, 2000);
            expectExact(x, {u, k * u + u / 2}, 2000);
            expectExact(x, {k * u + u / 2, 3 * u, u / 4}, 2000);
        }
    }
}

TEST(ExactSum, JustUnderTheBinadeTop)
{
    for (int e : {-3, 0, 1, 20}) {
        const double top = std::ldexp(1.0, e);
        for (double back : {1.0, 2.0, 5.0, 100.0}) {
            const double x = top - back * ulpOf(top / 2);
            const double u = ulpOf(x);
            expectExact(x, {u}, 300);
            expectExact(x, {0.6 * u}, 300);
            expectExact(x, {u, 2 * u}, 300);
            expectExact(x, {back * u}, 3);
        }
    }
}

TEST(ExactSum, ShortRunsAcrossTheLoopBound)
{
    // Up to kLoopRounds rounds run the plain loop, one more takes the
    // jump. Ties and starts just under the binade top are where either
    // path would go wrong first.
    for (std::uint64_t n = 2; n <= kLoopRounds + 1; ++n) {
        for (double x : {1.0, 1.5, 3.0 + 3 * ulpOf(3.0), 1e6 + 0.25}) {
            const double u = ulpOf(x);
            expectExact(x, {u / 2}, n);
            expectExact(x, {3 * u + u / 2}, n);
            expectExact(x, {u, u / 2, 0.1 * x}, n);
        }
        for (int e : {-3, 0, 20}) {
            const double top = std::ldexp(1.0, e);
            for (double back : {1.0, 2.0, 3.0}) {
                const double x = top - back * ulpOf(top / 2);
                const double u = ulpOf(x);
                expectExact(x, {u}, n);
                expectExact(x, {0.6 * u}, n);
                expectExact(x, {u, 2 * u}, n);
                expectExact(x, {u / 2}, n);
            }
        }
    }
}

TEST(ExactSum, ZeroAndSubnormalStarts)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double min_normal = std::numeric_limits<double>::min();
    for (double x : {0.0, -0.0, tiny, 7 * tiny, min_normal / 2,
                     min_normal}) {
        expectExact(x, {tiny}, 1000);
        expectExact(x, {1e-300}, 1000);
        expectExact(x, {0.25}, 1000);
        expectExact(x, {0.0}, 1000);
        expectExact(x, {-0.0, 0.5}, 1000);
    }
}

TEST(ExactSum, NonFiniteAndNegativeOperands)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double x : {1.0, -1.0, -3.5, inf, -inf, nan, 1e300}) {
        expectExact(x, {0.125}, 500);
        expectExact(x, {-0.125}, 500);
        expectExact(x, {0.125, -0.0625}, 500);
        expectExact(x, {inf}, 50);
        expectExact(x, {1.0, -inf}, 50);
        expectExact(x, {nan}, 50);
        expectExact(x, {1e308}, 50);
        expectExact(x, {-0.0}, 50);
    }
}

TEST(ExactSum, ZeroAndOneRounds)
{
    for (double x : {0.0, 1.0, 123.456}) {
        for (std::uint64_t n : {0u, 1u}) {
            expectExact(x, {0.1}, n);
            expectExact(x, {0.1, 0.2, 0.3}, n);
        }
    }
    double x = 2.0;
    addRepeated(x, 0.5, 4);
    EXPECT_EQ(x, 4.0);
}

} // namespace
} // namespace sysscale
