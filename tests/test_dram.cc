/**
 * @file
 * Unit tests for the DRAM spec, timings, power model, and device.
 */

#include <gtest/gtest.h>

#include "dram/device.hh"
#include "dram/power.hh"
#include "dram/spec.hh"
#include "dram/timing.hh"
#include "sim/sim_object.hh"

namespace sysscale {
namespace dram {
namespace {

TEST(DramSpec, Lpddr3MatchesTable2)
{
    const DramSpec spec = lpddr3Spec();
    EXPECT_EQ(spec.type(), DramType::LPDDR3);
    EXPECT_EQ(spec.numBins(), 3u);
    // Bins sorted highest first: 1600, 1066, 800.
    EXPECT_DOUBLE_EQ(spec.bin(0).dataRateMTs, 1600.0);
    EXPECT_DOUBLE_EQ(spec.bin(1).dataRateMTs, 1066.0);
    EXPECT_DOUBLE_EQ(spec.bin(2).dataRateMTs, 800.0);
}

TEST(DramSpec, PeakBandwidthIs25GBs)
{
    // Paper Sec. 3: dual-channel LPDDR3-1600 peaks at 25.6 GB/s.
    const DramSpec spec = lpddr3Spec();
    EXPECT_NEAR(spec.peakBandwidth(0), 25.6e9, 1e6);
}

TEST(DramSpec, ClockRelationships)
{
    const FreqBin bin{1600.0};
    EXPECT_DOUBLE_EQ(bin.busClock(), 800.0 * kMHz);
    EXPECT_DOUBLE_EQ(bin.mcClock(), 800.0 * kMHz);
    EXPECT_DOUBLE_EQ(bin.transferRate(), 1600.0 * kMHz);
}

TEST(DramSpec, BinIndexLookup)
{
    const DramSpec spec = lpddr3Spec();
    EXPECT_EQ(spec.binIndexFor(1066.0), 1u);
    EXPECT_DEATH((void)spec.binIndexFor(1234.0), "");
}

TEST(DramSpec, Ddr4SensitivityBins)
{
    // Sec. 7.4 evaluates DDR4 1866 -> 1333.
    const DramSpec spec = ddr4Spec();
    EXPECT_DOUBLE_EQ(spec.bin(0).dataRateMTs, 1866.0);
    EXPECT_DOUBLE_EQ(spec.bin(1).dataRateMTs, 1333.0);
}

TEST(Timing, AnalogConstraintsAreClockInvariant)
{
    const DramSpec spec = lpddr3Spec();
    const TimingSet hi = optimizedTimings(spec, 0);
    const TimingSet lo = optimizedTimings(spec, 1);
    // Random-access time in ns stays roughly constant across bins
    // (the array is the same silicon).
    EXPECT_NEAR(hi.randomAccessNs(), lo.randomAccessNs(),
                hi.randomAccessNs() * 0.15);
    EXPECT_GT(lo.tCKNs, hi.tCKNs);
}

TEST(Timing, CyclesConversionRoundsUp)
{
    const DramSpec spec = lpddr3Spec();
    const TimingSet t = optimizedTimings(spec, 0);
    // A constraint shorter than one clock still costs one cycle.
    EXPECT_GE(t.cyclesOf(0.1), 1u);
}

TEST(DramPower, BackgroundScalesWithClock)
{
    const DramSpec spec = lpddr3Spec();
    const DramPowerModel model(spec);
    const auto hi = model.activePower(0, 0.0, 0.0, 1e-3);
    const auto lo = model.activePower(1, 0.0, 0.0, 1e-3);
    EXPECT_GT(hi.background, lo.background);
    // A floor remains: background does not go to zero proportionally.
    EXPECT_GT(lo.background, hi.background * (1066.0 / 1600.0) * 0.9);
}

TEST(DramPower, IoEnergyPerBitRisesAsClockDrops)
{
    // Paper Sec. 2.4: each access occupies the interface longer at a
    // lower frequency, raising read/write/termination energy.
    const DramSpec spec = lpddr3Spec();
    const DramPowerModel model(spec);
    const double bytes = 1e6;
    const auto hi = model.activePower(0, bytes, 0.0, 1e-3);
    const auto lo = model.activePower(1, bytes, 0.0, 1e-3);
    EXPECT_GT(lo.io, hi.io);
}

TEST(DramPower, TerminationFollowsUnoptimizedFactor)
{
    const DramSpec spec = ddr4Spec();
    const DramPowerModel model(spec);
    const double bytes = 5e6;
    const auto trained = model.activePower(0, bytes, bytes, 1e-3, 1.0);
    const auto unopt = model.activePower(0, bytes, bytes, 1e-3, 1.85);
    EXPECT_NEAR(unopt.termination, trained.termination * 1.85, 1e-9);
}

TEST(DramPower, SelfRefreshFarBelowActive)
{
    const DramSpec spec = lpddr3Spec();
    const DramPowerModel model(spec);
    const auto active = model.activePower(0, 0.0, 0.0, 1e-3);
    EXPECT_LT(model.selfRefreshPower(), active.total() * 0.2);
}

TEST(DramDevice, BinSwitchRequiresSelfRefresh)
{
    Simulator sim;
    DramDevice dev(sim, nullptr, lpddr3Spec());
    EXPECT_DEATH(dev.setBin(1), "");

    dev.enterSelfRefresh();
    dev.setBin(1);
    EXPECT_EQ(dev.binIndex(), 1u);
    dev.exitSelfRefresh(true);
    EXPECT_EQ(dev.mode(), DramMode::Active);
}

TEST(DramDevice, FastRelockExitUnder5us)
{
    // Paper Sec. 5: SysScale bounds self-refresh exit below 5us.
    Simulator sim;
    DramDevice dev(sim, nullptr, lpddr3Spec());
    dev.enterSelfRefresh();
    const Tick fast = dev.exitSelfRefresh(true);
    EXPECT_LT(fast, 5 * kTicksPerUs);

    dev.enterSelfRefresh();
    const Tick slow = dev.exitSelfRefresh(false);
    EXPECT_GT(slow, fast);
}

TEST(DramDevice, TrafficWhileParkedPanics)
{
    Simulator sim;
    DramDevice dev(sim, nullptr, lpddr3Spec());
    dev.enterSelfRefresh();
    EXPECT_DEATH(dev.activePower(64.0, 0.0, kTicksPerUs, 1.0), "");
    EXPECT_DEATH(dev.commitTraffic(64.0, 0.0, 1.0, kTicksPerUs), "");
}

class DramBinSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(DramBinSweep, PeakBandwidthMatchesDataRate)
{
    const DramSpec spec = lpddr3Spec();
    const std::size_t bin = GetParam();
    const double expected = 2.0 * 8.0 * spec.bin(bin).dataRateMTs *
                            1e6;
    EXPECT_NEAR(spec.peakBandwidth(bin), expected, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllBins, DramBinSweep,
                         ::testing::Values(0u, 1u, 2u));

} // namespace
} // namespace dram
} // namespace sysscale
