/**
 * @file
 * Unit tests for the IO fabric, CSR space, display, ISP, and DMA.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "interconnect/fabric.hh"
#include "io/csr.hh"
#include "io/display.hh"
#include "io/dma.hh"
#include "io/isp.hh"
#include "power/power_model.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace {

TEST(Fabric, CapacityIsWidthTimesClock)
{
    Simulator sim;
    interconnect::IoFabric fab(sim, nullptr, 0.8 * kGHz, 0.8, 32);
    EXPECT_NEAR(fab.capacity(), 32.0 * 0.8e9, 1.0);
}

TEST(Fabric, IsochronousPriority)
{
    Simulator sim;
    interconnect::IoFabric fab(sim, nullptr, 0.8 * kGHz, 0.8);
    interconnect::FabricDemand d;
    d.isochronous = 20e9;
    d.bestEffort = 20e9; // together oversubscribe 25.6 GB/s
    const auto r = fab.service(d, kTicksPerMs);
    EXPECT_NEAR(r.achievedIso, 20e9, 1.0);
    EXPECT_LT(r.achievedBestEffort, d.bestEffort);
    EXPECT_FALSE(r.qosViolation);
}

TEST(Fabric, QosViolationFlagged)
{
    Simulator sim;
    interconnect::IoFabric fab(sim, nullptr, 0.4 * kGHz, 0.64);
    interconnect::FabricDemand d;
    d.isochronous = 20e9; // above the 12.8 GB/s link
    const auto r = fab.service(d, kTicksPerMs);
    EXPECT_TRUE(r.qosViolation);
}

TEST(Fabric, RetargetRequiresBlock)
{
    Simulator sim;
    interconnect::IoFabric fab(sim, nullptr, 0.8 * kGHz, 0.8);
    EXPECT_DEATH(fab.setFrequency(0.4 * kGHz), "");

    const Tick drain = fab.blockAndDrain();
    EXPECT_LT(drain, 2 * kTicksPerUs);
    fab.setFrequency(0.4 * kGHz);
    fab.release();
    EXPECT_DOUBLE_EQ(fab.frequency(), 0.4 * kGHz);
}

TEST(Fabric, LatencyGrowsWhenClockDrops)
{
    Simulator sim;
    interconnect::IoFabric hi(sim, nullptr, 0.8 * kGHz, 0.8);
    interconnect::IoFabric lo(sim, nullptr, 0.4 * kGHz, 0.64);
    EXPECT_GT(lo.baseLatencyNs(), hi.baseLatencyNs());
}

TEST(Fabric, PowerDropsWithVoltageAndClock)
{
    EXPECT_LT(interconnect::IoFabric::powerAt(0.64, 0.4e9, 0.3),
              interconnect::IoFabric::powerAt(0.80, 0.8e9, 0.3));
}

// Fabric leakage is cached where V_SA is written (constructor,
// setVsa(), a restoring visitState()); every path must answer bit for
// bit like the uncached leakagePower() expression.

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

void
expectFabricUncached(const interconnect::IoFabric &fab,
                     const std::string &what)
{
    using interconnect::IoFabric;
    SCOPED_TRACE(what);
    const Volt v = fab.vsa();
    for (const double u : {0.0, 0.25, 0.6, 1.0}) {
        const Watt want =
            power::dynamicPower(IoFabric::kCdynFarad, v, fab.frequency(),
                                0.20 + 0.80 * u) +
            power::leakagePower(IoFabric::kLeakK, v, 50.0);
        ASSERT_EQ(bits(fab.power(u)), bits(want)) << "util " << u;
        ASSERT_EQ(bits(IoFabric::powerAt(v, fab.frequency(), u)),
                  bits(want));
    }
}

TEST(FabricLeakageCache, MatchesUncachedAcrossVsa)
{
    Simulator sim;
    interconnect::IoFabric fab(sim, nullptr, 0.8 * kGHz, 0.8);
    expectFabricUncached(fab, "constructed");
    for (int i = 0; i <= 50; ++i) {
        fab.setVsa(0.55 + 0.01 * i);
        expectFabricUncached(fab, "vsa " + std::to_string(fab.vsa()));
    }
    // A clock change moves the dynamic term only.
    fab.blockAndDrain();
    fab.setFrequency(0.4 * kGHz);
    fab.release();
    expectFabricUncached(fab, "0.4 GHz");
}

TEST(FabricLeakageCache, RestoreRefreshesLeakage)
{
    for (int i = 0; i <= 50; ++i) {
        const Volt v = 0.55 + 0.01 * i;
        Simulator sim;
        interconnect::IoFabric source(sim, nullptr, 0.4 * kGHz, v);
        interconnect::IoFabric restored(sim, nullptr, 0.8 * kGHz,
                                        v + 0.1);
        SnapshotWriter w("0000000000000000", 0);
        StateIO save(w);
        source.visitState(save);
        SnapshotReader r(w.str());
        StateIO load(r);
        restored.visitState(load);
        r.finish();
        expectFabricUncached(restored, "vsa " + std::to_string(v));
    }
}

/** Every stat under @p sim's root, doubles as bit patterns. */
std::string
statBits(Simulator &sim)
{
    SnapshotWriter w("0000000000000000", 0);
    StateIO io(w);
    sim.statsRoot().visitStats(io);
    return w.str();
}

TEST(FabricSplit, NCommitsOfOneEvaluationEqualNServiceCalls)
{
    // service() is evaluate() then commit(), and a replayed step
    // commits one evaluation many times: both must leave every stat,
    // the saved state and the result bitwise where N service() calls
    // leave them. N = 1 is the slow path's split itself.
    const interconnect::FabricDemand demands[] = {
        {0.0, 0.0},   // idle link
        {2e9, 1e9},   // light
        {10e9, 8e9},  // best effort squeezed
        {20e9, 3e9},  // isochronous over the 12.8 GB/s link
    };
    for (const interconnect::FabricDemand &d : demands) {
        for (const int n : {1, 5, 300}) {
            SCOPED_TRACE("iso " + std::to_string(d.isochronous) +
                         " n " + std::to_string(n));
            Simulator sa, sb, sc;
            interconnect::IoFabric a(sa, nullptr, 0.4 * kGHz, 0.64);
            interconnect::IoFabric b(sb, nullptr, 0.4 * kGHz, 0.64);
            interconnect::IoFabric c(sc, nullptr, 0.4 * kGHz, 0.64);

            interconnect::FabricResult ra;
            for (int i = 0; i < n; ++i)
                ra = a.service(d, 37 * kTicksPerUs + 1);
            const interconnect::FabricResult rb = b.evaluate(d);
            for (int i = 0; i < n; ++i)
                b.commit(rb, 37 * kTicksPerUs + 1);
            // A replay batch commits all N in one call.
            c.commit(c.evaluate(d), 37 * kTicksPerUs + 1,
                     static_cast<std::uint64_t>(n));
            EXPECT_EQ(statBits(sa), statBits(sc));

            EXPECT_EQ(bits(ra.achievedIso), bits(rb.achievedIso));
            EXPECT_EQ(bits(ra.achievedBestEffort),
                      bits(rb.achievedBestEffort));
            EXPECT_EQ(bits(ra.utilization), bits(rb.utilization));
            EXPECT_EQ(bits(ra.latencyNs), bits(rb.latencyNs));
            EXPECT_EQ(bits(ra.readPendingOccupancy),
                      bits(rb.readPendingOccupancy));
            EXPECT_EQ(ra.qosViolation, rb.qosViolation);
            EXPECT_EQ(statBits(sa), statBits(sb));

            SnapshotWriter wa("0000000000000000", 0);
            SnapshotWriter wb("0000000000000000", 0);
            StateIO ia(wa);
            StateIO ib(wb);
            a.visitState(ia);
            b.visitState(ib);
            EXPECT_EQ(wa.str(), wb.str());
        }
    }
}

TEST(Csr, DefineReadWriteReset)
{
    io::CsrSpace csr;
    csr.define("a", 7);
    EXPECT_TRUE(csr.defined("a"));
    EXPECT_EQ(csr.read("a"), 7u);
    csr.write("a", 9);
    EXPECT_EQ(csr.read("a"), 9u);
    csr.reset();
    EXPECT_EQ(csr.read("a"), 7u);
}

TEST(Csr, UndefinedAccessFatal)
{
    io::CsrSpace csr;
    EXPECT_DEATH((void)csr.read("nope"), "");
    EXPECT_DEATH(csr.write("nope", 1), "");
    csr.define("a");
    EXPECT_DEATH(csr.define("a"), "");
}

TEST(Display, HdPanelNearSeventeenPercentOfPeak)
{
    // Fig. 3b: one HD panel consumes ~17% of the 25.6 GB/s peak.
    const io::PanelConfig hd{io::PanelResolution::HD, 60.0, 4};
    const double share =
        io::DisplayEngine::panelBandwidth(hd) / 25.6e9;
    EXPECT_NEAR(share, 0.17, 0.02);
}

TEST(Display, UhdPanelNearSeventyPercentOfPeak)
{
    // Fig. 3b: a single 4K panel consumes ~70% of the peak.
    const io::PanelConfig uhd{io::PanelResolution::UHD4K, 60.0, 4};
    const double share =
        io::DisplayEngine::panelBandwidth(uhd) / 25.6e9;
    EXPECT_NEAR(share, 0.70, 0.05);
}

TEST(Display, ThreePanelsTripleTheDemand)
{
    // Sec. 4.2: three identical panels demand nearly 3x one panel.
    Simulator sim;
    io::CsrSpace csr;
    io::DisplayEngine disp(sim, nullptr, csr);
    const io::PanelConfig hd{io::PanelResolution::HD, 60.0, 4};
    disp.attachPanel(0, hd);
    const BytesPerSec one = disp.bandwidthDemand();
    disp.attachPanel(1, hd);
    disp.attachPanel(2, hd);
    EXPECT_NEAR(disp.bandwidthDemand(), 3.0 * one, 1.0);
    EXPECT_EQ(disp.activePanels(), 3u);
}

TEST(Display, CsrsTrackConfiguration)
{
    Simulator sim;
    io::CsrSpace csr;
    io::DisplayEngine disp(sim, nullptr, csr);
    EXPECT_EQ(csr.read(io::DisplayEngine::kCsrActivePanels), 0u);

    disp.attachPanel(1, {io::PanelResolution::QHD, 120.0, 4});
    EXPECT_EQ(csr.read(io::DisplayEngine::kCsrActivePanels), 1u);
    EXPECT_EQ(csr.read(io::DisplayEngine::csrResolution(1)), 3u);
    EXPECT_EQ(csr.read(io::DisplayEngine::csrRefresh(1)), 120u);

    disp.detachPanel(1);
    EXPECT_EQ(csr.read(io::DisplayEngine::kCsrActivePanels), 0u);
    EXPECT_EQ(csr.read(io::DisplayEngine::csrResolution(1)), 0u);
}

TEST(Display, RefreshScalesDemand)
{
    const io::PanelConfig hd60{io::PanelResolution::HD, 60.0, 4};
    const io::PanelConfig hd120{io::PanelResolution::HD, 120.0, 4};
    // The composition term doubles; the per-pipe base does not.
    EXPECT_GT(io::DisplayEngine::panelBandwidth(hd120),
              io::DisplayEngine::panelBandwidth(hd60) * 1.35);
}

TEST(Isp, StreamDemandAndCsrs)
{
    Simulator sim;
    io::CsrSpace csr;
    io::IspEngine isp(sim, nullptr, csr);
    EXPECT_DOUBLE_EQ(isp.bandwidthDemand(), 0.0);
    EXPECT_EQ(csr.read(io::IspEngine::kCsrActive), 0u);

    io::CameraConfig cam;
    cam.width = 1280;
    cam.height = 720;
    cam.fps = 30.0;
    cam.bytesPerPixel = 2;
    isp.startCamera(cam);

    const double pixel_rate = 1280.0 * 720.0 * 30.0;
    EXPECT_NEAR(isp.bandwidthDemand(),
                pixel_rate * 2.0 * io::IspEngine::kPassCount, 1.0);
    EXPECT_EQ(csr.read(io::IspEngine::kCsrActive), 1u);

    isp.stopCamera();
    EXPECT_DOUBLE_EQ(isp.bandwidthDemand(), 0.0);
}

TEST(Dma, BacklogAccumulatesUnderBackpressure)
{
    Simulator sim;
    io::DmaDevice dma(sim, nullptr, "dma", 10e9);
    dma.recordService(4e9, kTicksPerMs); // 6 GB/s shortfall for 1 ms
    EXPECT_NEAR(dma.backlogBytes(), 6e6, 1.0);

    // Full service drains the backlog.
    dma.setOfferedRate(0.0);
    dma.recordService(10e9, kTicksPerMs);
    EXPECT_NEAR(dma.backlogBytes(), 0.0, 1.0);
}

} // namespace
} // namespace sysscale
