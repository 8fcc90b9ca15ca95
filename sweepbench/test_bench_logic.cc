/**
 * @file
 * Tests of the sweep benchmark's own logic: the percentile rule,
 * span self time, the host-timing-blind row comparison, the
 * paper-gap arithmetic, and the seed reaching the generated inputs.
 */

#include <gtest/gtest.h>

#include <set>

#include "bench_logic.hh"
#include "cells.hh"
#include "exp/spec_codec.hh"

using namespace sweepbench;
using sysscale::exp::RunResult;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(static_cast<double>(i));
    return xs;
}

std::set<std::string>
keysOf(const std::vector<sysscale::exp::ExperimentSpec> &cells,
       const std::string &figure, bool match)
{
    std::set<std::string> keys;
    for (const auto &c : cells) {
        if ((c.labels.front().second == figure) == match)
            keys.insert(sysscale::exp::specKey(c));
    }
    return keys;
}

} // namespace

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(ramp(10)).pct, 50.0);
    EXPECT_EQ(tailPercentile(ramp(99)).pct, 50.0);
    EXPECT_EQ(tailPercentile(ramp(100)).pct, 90.0);
    EXPECT_EQ(tailPercentile(ramp(999)).pct, 90.0);
    EXPECT_EQ(tailPercentile(ramp(1000)).pct, 99.0);
    EXPECT_DOUBLE_EQ(tailPercentile(ramp(10000)).pct, 99.9);

    const Tail t = tailPercentile(ramp(101));
    EXPECT_EQ(t.count, 101u);
    EXPECT_DOUBLE_EQ(t.value, 90.0); // 0..100: the p90 order statistic.
}

TEST(SpanSelfTime, SubtractsNestedChildren)
{
    // root [0, 100) holds a [10, 30) and b [50, 90); b holds c [60, 70).
    const std::vector<Span> spans = {
        {"root", "exp", 0, 100, -1, ""},
        {"a", "soc", 10, 30, 0, "x"},
        {"b", "dist", 50, 90, 0, "y"},
        {"c", "sim", 60, 70, 2, "y"},
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self, (std::vector<std::int64_t>{40, 20, 30, 10}));
}

TEST(SpanSelfTime, OverlappingAndOverhangingChildrenCountOnce)
{
    const std::vector<Span> spans = {
        {"root", "exp", 0, 100, -1, ""},
        {"a", "soc", 10, 40, 0, ""},
        {"b", "soc", 30, 60, 0, ""},  // overlaps a over [30, 40)
        {"c", "soc", 90, 120, 0, ""}, // overhangs the parent's end
    };
    EXPECT_EQ(selfTimes(spans)[0], 100 - 50 - 10);
}

TEST(RowComparison, IgnoresOnlyHostSeconds)
{
    RunResult a;
    a.id = "fig7/403.gcc/sysscale";
    a.ok = true;
    a.metrics.ips = 1.5e9;
    a.statsDump = "soc.steps 22000\n";
    RunResult b = a;
    b.hostSeconds = 0.25;
    EXPECT_TRUE(sameRowIgnoringHost(a, b));

    RunResult c = b;
    c.metrics.ips = 1.5e9 + 1.0;
    EXPECT_FALSE(sameRowIgnoringHost(a, c));

    RunResult d = b;
    d.statsDump = "soc.steps 22001\n";
    EXPECT_FALSE(sameRowIgnoringHost(a, d));
}

TEST(PaperGap, MeanAbsoluteDifference)
{
    EXPECT_NEAR(paperGapPp({7.8}, {9.2}), 1.4, 1e-12);
    EXPECT_NEAR(paperGapPp({12.5, 15.8, 14.1, 11.1}, {6.4, 9.5, 7.6, 10.7}),
                4.825, 1e-12);
    EXPECT_NEAR(paperGapPp({5.0, 5.0}, {6.0, 4.0}), 1.0, 1e-12);
}

TEST(Seed, ReachesGeneratedInputsButNotFigureCells)
{
    for (const Workload w : allWorkloads()) {
        const auto one = cellsFor(w, 1);
        const auto again = cellsFor(w, 1);
        const auto two = cellsFor(w, 2);
        ASSERT_EQ(one.size(), two.size()) << workloadName(w);

        // Same seed, same inputs in the same order.
        for (std::size_t i = 0; i < one.size(); ++i)
            EXPECT_EQ(sysscale::exp::serializeSpec(one[i]),
                      sysscale::exp::serializeSpec(again[i]));

        const std::string fig = w == Workload::SpecSweep ? "fig7" : "fig9";
        // The figure cells are fixed; the seeded cells change.
        EXPECT_EQ(keysOf(one, fig, true), keysOf(two, fig, true));
        const auto seeded1 = keysOf(one, fig, false);
        EXPECT_FALSE(seeded1.empty());
        EXPECT_NE(seeded1, keysOf(two, fig, false)) << workloadName(w);

        // The seed also reorders the cells.
        bool reordered = false;
        for (std::size_t i = 0; i < one.size(); ++i)
            reordered |= one[i].id != two[i].id;
        EXPECT_TRUE(reordered);
    }
}
