/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace sysscale {
namespace {

using stats::Average;
using stats::Distribution;
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

TEST(Stats, DistributionBucketsAndOverflow)
{
    StatGroup root(nullptr, "root");
    Distribution d(&root, "dist", "histogram", 0.0, 10.0, 5);
    d.sample(1.0);  // bucket 0
    d.sample(3.0);  // bucket 1
    d.sample(9.9);  // bucket 4
    d.sample(-1.0); // underflow
    d.sample(11.0); // overflow
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 1u);
    EXPECT_EQ(d.bucketCount(4), 1u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.samples(), 5u);
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
