/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/random.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"

namespace sysscale {
namespace {

using stats::Average;
using stats::ExactSum;
using stats::Scalar;
using stats::StatGroup;
using stats::TimeAverage;

TEST(Stats, ScalarAccumulates)
{
    StatGroup root(nullptr, "root");
    Scalar s(&root, "count", "a counter");
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
}

TEST(Stats, AverageTracksMeanAndExtrema)
{
    StatGroup root(nullptr, "root");
    Average a(&root, "avg", "an average");
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, AverageHonorsWeights)
{
    StatGroup root(nullptr, "root");
    Average a(&root, "avg", "weighted");
    a.sample(1.0, 3.0);
    a.sample(5.0, 1.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Stats, RepeatedSamplesMatchSingleOnes)
{
    // A replay batch hands n like samples over in one call.
    StatGroup root(nullptr, "root");
    Average one(&root, "one", "n single samples");
    Average many(&root, "many", "one call of n samples");
    Scalar s1(&root, "s1", "n single adds");
    Scalar sn(&root, "sn", "one call of n adds");
    one.sample(0.3, 1.0);
    many.sample(0.3, 1.0);
    s1 += 0.7;
    sn += 0.7;
    for (int i = 0; i < 999; ++i) {
        one.sample(0.1 + 1e-17, 1.0);
        s1 += 1e-3;
    }
    many.sample(0.1 + 1e-17, 1.0, 999);
    sn.add(1e-3, 999);
    EXPECT_EQ(one.count(), many.count());
    EXPECT_EQ(one.mean(), many.mean());
    EXPECT_EQ(one.min(), many.min());
    EXPECT_EQ(one.max(), many.max());
    EXPECT_EQ(s1.value(), sn.value());
    many.sample(5.0, 1.0, 0);
    EXPECT_EQ(one.max(), many.max());
    EXPECT_EQ(one.count(), many.count());
}

TEST(Stats, TimeAverageWeightsByDuration)
{
    StatGroup root(nullptr, "root");
    TimeAverage t(&root, "util", "utilization");
    t.set(1.0, 0);
    t.set(0.0, 750);   // 1.0 held for 750 ticks
    t.finish(1000);    // 0.0 held for 250 ticks
    EXPECT_DOUBLE_EQ(t.mean(), 0.75);
}

/** A term of random sign and magnitude, 2^-70 to 2^40. */
double
randomTerm(Rng &rng)
{
    const double mag = std::ldexp(rng.uniform(1.0, 2.0),
                                  static_cast<int>(rng.next() % 111) - 70);
    return rng.next() % 4 == 0 ? -mag : mag;
}

TEST(ExactSum, RoundsEachTermToTheNearestQuantum)
{
    // A term is std::nearbyint(std::ldexp(term, 64)) quanta: ties to
    // even, tiny terms to zero.
    Rng rng(7);
    std::vector<double> terms = {0x1p-65,   0x1.8p-64, 0x1.4p-63,
                                 -0x1.4p-63, 0x1p-66,  0x1.0000000000001p-12,
                                 0.1,       -1e-3,     1.7e11,
                                 0.0,       -0.0,      std::nextafter(0x1p62, 0.0)};
    for (int i = 0; i < 10000; ++i)
        terms.push_back(randomTerm(rng));
    for (const double t : terms) {
        ExactSum s;
        s.add(t);
        EXPECT_EQ(s.value(), std::nearbyint(std::ldexp(t, 64)) * 0x1p-64)
            << std::hexfloat << t;
    }
}

TEST(ExactSum, RepeatedAddEqualsSingleAdds)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const double t = randomTerm(rng);
        const std::uint64_t n = rng.next() % 3000;
        ExactSum one;
        ExactSum many;
        one.add(randomTerm(rng));
        many = one;
        for (std::uint64_t i = 0; i < n; ++i)
            one.add(t, 1);
        many.add(t, n);
        EXPECT_EQ(one, many) << std::hexfloat << t << " n=" << n;

        // A term that sums m addends, n rounds.
        const double addends[] = {t, randomTerm(rng), randomTerm(rng)};
        ExactSum::Term round;
        for (std::uint64_t i = 0; i < n; ++i) {
            for (const double a : addends)
                one.add(a);
        }
        for (const double a : addends)
            round += a;
        many.add(round, n);
        EXPECT_EQ(one, many) << std::hexfloat << t << " n=" << n;
    }
}

TEST(ExactSum, OrderDoesNotMatter)
{
    Rng rng(13);
    std::vector<double> terms;
    for (int i = 0; i < 5000; ++i)
        terms.push_back(randomTerm(rng));
    ExactSum forward;
    for (const double t : terms)
        forward.add(t);
    for (int trial = 0; trial < 20; ++trial) {
        for (std::size_t i = terms.size() - 1; i > 0; --i)
            std::swap(terms[i], terms[rng.next() % (i + 1)]);
        ExactSum shuffled;
        for (const double t : terms)
            shuffled.add(t);
        EXPECT_EQ(forward, shuffled);
    }
}

TEST(ExactSum, NonFiniteAndOutOfRangeTermsDie)
{
    ExactSum s;
    EXPECT_DEATH(s.add(std::numeric_limits<double>::quiet_NaN()), "");
    EXPECT_DEATH(s.add(std::numeric_limits<double>::infinity()), "");
    EXPECT_DEATH(s.add(-std::numeric_limits<double>::infinity()), "");
    EXPECT_DEATH(s.add(std::numeric_limits<double>::quiet_NaN(), 0), "");
    // One call takes less than 2^62 in magnitude.
    EXPECT_DEATH(s.add(0x1p62), "");
    EXPECT_DEATH(s.add(-0x1p62), "");
    EXPECT_DEATH(s.add(0x1p61, 2), "");
    ExactSum::Term two = 0x1.8p60;
    two += 0x1.8p60;
    EXPECT_DEATH(two += 0x1.8p60, "");
    EXPECT_DEATH(s.add(two, 2), "");
    // The sum stays below 2^63.
    const double most = std::nextafter(0x1p62, 0.0);
    s.add(most);
    s.add(most);
    EXPECT_DEATH(s.add(most), "");
    EXPECT_DEATH(s.add(0x1p10, 1), "");
}

TEST(ExactSum, StateIoRoundTripIsBitExact)
{
    Rng rng(17);
    std::vector<ExactSum> sums(4);
    sums[1].add(-0x1p-64);
    sums[2].add(-1.7e11, 1000);
    sums[2].add(0x1p-60);
    for (int i = 0; i < 1000; ++i)
        sums[3].add(randomTerm(rng));
    // A tie at double precision but for the lowest quantum.
    sums.emplace_back();
    sums.back().add(0x1p53);
    sums.back().add(1.0);
    sums.back().add(0x1p-64);
    EXPECT_EQ(sums.back().value(), 0x1p53 + 2.0);
    for (int i = 0; i < 200; ++i) {
        sums.emplace_back();
        sums.back().add(randomTerm(rng), rng.next() % 100000);
        sums.back().add(randomTerm(rng));
    }

    SnapshotWriter w("exact-sum-test v1");
    StateIO out(w);
    for (std::size_t i = 0; i < sums.size(); ++i)
        out.field("sum" + std::to_string(i), sums[i]);

    // value() rounds as the library's __int128 conversion does.
    const std::string text = w.str();
    for (std::size_t i = 0; i < sums.size(); ++i) {
        const std::string key = "\nsum" + std::to_string(i) + " = ";
        const std::size_t at = text.find(key) + key.size();
        EXPECT_EQ(decodeExactSum(text.substr(at, 32)), sums[i].value()) << i;
    }

    SnapshotReader r(text, "exact-sum-test v1");
    StateIO in(r);
    for (std::size_t i = 0; i < sums.size(); ++i) {
        ExactSum back;
        back.add(12.5);
        in.field("sum" + std::to_string(i), back);
        EXPECT_EQ(back, sums[i]) << i;
        EXPECT_EQ(back.value(), sums[i].value()) << i;
    }
    r.finish();
    EXPECT_LT(sums[1].value(), 0.0);
    EXPECT_LT(sums[2].value(), 0.0);
}

TEST(Stats, GroupPathAndHierarchicalDump)
{
    StatGroup root(nullptr, "soc");
    StatGroup child(&root, "mc");
    Scalar s(&child, "bytes", "serviced bytes");
    s += 42.0;

    std::ostringstream os;
    root.dumpStats(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("mc.bytes"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Stats, EmptyAverageIsZero)
{
    StatGroup root(nullptr, "root");
    Average a(&root, "avg", "");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

} // namespace
} // namespace sysscale
