/**
 * @file
 * Unit tests for the MRC store, DDRIO, and memory controller.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dram/device.hh"
#include "mem/controller.hh"
#include "mem/ddrio.hh"
#include "mem/mrc.hh"
#include "power/power_model.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace mem {
namespace {

TEST(Mrc, FitsSramBudget)
{
    // Paper Sec. 5: ~0.5KB of SRAM for all per-bin register images.
    const MrcStore store(dram::lpddr3Spec());
    EXPECT_EQ(store.numSets(), 3u);
    EXPECT_LE(store.sramBytes(), MrcStore::kSramBudgetBytes);
}

TEST(Mrc, LoadLatencyUnderOneMicrosecond)
{
    const MrcStore store(dram::lpddr3Spec());
    EXPECT_LT(store.loadLatency(), 1 * kTicksPerUs);
}

TEST(Mrc, OptimizedSetsAreTrained)
{
    const MrcStore store(dram::lpddr3Spec());
    for (std::size_t i = 0; i < store.numSets(); ++i) {
        const MrcRegisterSet &set = store.optimizedSet(i);
        EXPECT_TRUE(set.optimized());
        EXPECT_DOUBLE_EQ(set.terminationFactor, 1.0);
        EXPECT_DOUBLE_EQ(set.latencyAdderNs, 0.0);
    }
}

TEST(Mrc, CrossBinSetCarriesFig4Penalties)
{
    const MrcStore store(dram::lpddr3Spec());
    const MrcRegisterSet cross = store.crossBinSet(0, 1);
    EXPECT_FALSE(cross.optimized());
    EXPECT_LT(cross.interfaceEfficiency,
              store.optimizedSet(1).interfaceEfficiency);
    EXPECT_GT(cross.terminationFactor, 1.0);
    EXPECT_GT(cross.latencyAdderNs, 0.0);
    EXPECT_GT(cross.ddrioActivityFactor, 1.0);
}

TEST(Mrc, CrossBinSameBinIsOptimized)
{
    const MrcStore store(dram::lpddr3Spec());
    const MrcRegisterSet same = store.crossBinSet(1, 1);
    EXPECT_TRUE(same.optimized());
}

TEST(Ddrio, PowerScalesWithVoltageSquared)
{
    Ddrio lo(dram::lpddr3Spec(), 0.85);
    Ddrio hi(dram::lpddr3Spec(), 1.00);
    EXPECT_GT(hi.digitalPower(0.5), lo.digitalPower(0.5));
}

TEST(Ddrio, PowerScalesWithBin)
{
    Ddrio d(dram::lpddr3Spec(), 1.0);
    const Watt hi = d.digitalPower(0.5);
    d.setBin(1);
    EXPECT_LT(d.digitalPower(0.5), hi);
}

TEST(Ddrio, UnoptimizedActivityRaisesPower)
{
    Ddrio d(dram::lpddr3Spec(), 1.0);
    EXPECT_GT(d.digitalPower(0.5, 1.35), d.digitalPower(0.5, 1.0));
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : sim_(), dev_(sim_, nullptr, dram::lpddr3Spec()),
          mrc_(dram::lpddr3Spec()),
          mc_(sim_, nullptr, dev_, mrc_, 0.80)
    {
    }

    Simulator sim_;
    dram::DramDevice dev_;
    MrcStore mrc_;
    MemoryController mc_;
};

TEST_F(ControllerTest, CapacityIsEfficiencyScaledPeak)
{
    EXPECT_NEAR(mc_.capacity(), 25.6e9 * 0.90, 1e6);
}

TEST_F(ControllerTest, LoadedLatencyMonotonicInUtilization)
{
    double prev = mc_.loadedLatencyAt(0.0);
    for (double rho = 0.1; rho <= 0.9; rho += 0.1) {
        const double lat = mc_.loadedLatencyAt(rho);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
    // Near saturation the queue dominates the base latency.
    EXPECT_GT(mc_.loadedLatencyAt(0.95), 2.0 * mc_.baseLatencyNs());
}

TEST_F(ControllerTest, IsochronousServedFirst)
{
    MemDemand d;
    d.ioIso = 10e9;
    d.cpuRead = 30e9; // oversubscribes the interface
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    EXPECT_NEAR(r.achievedIso, 10e9, 1.0);
    EXPECT_LT(r.achievedCpuRead, d.cpuRead);
    EXPECT_FALSE(r.qosViolation);
}

TEST_F(ControllerTest, QosViolationWhenIsoExceedsCapacity)
{
    MemDemand d;
    d.ioIso = 30e9; // above the 23 GB/s trained capacity
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    EXPECT_TRUE(r.qosViolation);
}

TEST_F(ControllerTest, ProportionalSharingUnderPressure)
{
    MemDemand d;
    d.cpuRead = 20e9;
    d.gfx = 10e9;
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    // 30 GB/s demanded over ~23 GB/s capacity: both clamp by the
    // same ratio.
    const double ratio_cpu = r.achievedCpuRead / d.cpuRead;
    const double ratio_gfx = r.achievedGfx / d.gfx;
    EXPECT_NEAR(ratio_cpu, ratio_gfx, 1e-9);
    EXPECT_LT(ratio_cpu, 1.0);
}

TEST_F(ControllerTest, OccupancyFollowsLittlesLaw)
{
    MemDemand d;
    d.cpuRead = 6.4e9; // 100M lines/s
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    const double expected =
        d.cpuRead / 64.0 * r.loadedLatencyNs * 1e-9;
    EXPECT_NEAR(r.readPendingOccupancy, expected, 1e-6);
}

TEST_F(ControllerTest, BlockAndDrainBoundedUnder2us)
{
    const Tick drain = mc_.blockAndDrain();
    EXPECT_LT(drain, 2 * kTicksPerUs);
    EXPECT_TRUE(mc_.blocked());
    mc_.release();
    EXPECT_FALSE(mc_.blocked());
}

TEST_F(ControllerTest, ServiceWhileBlockedPanics)
{
    mc_.blockAndDrain();
    MemDemand d;
    EXPECT_DEATH(mc_.service(d, kTicksPerMs), "");
}

TEST_F(ControllerTest, ProgrammingRequiresBlockAndSelfRefresh)
{
    const MrcRegisterSet set = mrc_.optimizedSet(1);
    EXPECT_DEATH(mc_.programRegisters(set), "");
}

TEST_F(ControllerTest, ReprogrammingMovesBinAndCapacity)
{
    mc_.blockAndDrain();
    dev_.enterSelfRefresh();
    dev_.setBin(1);
    mc_.programRegisters(mrc_.optimizedSet(1));
    dev_.exitSelfRefresh(true);
    mc_.release();

    EXPECT_EQ(mc_.binIndex(), 1u);
    EXPECT_NEAR(mc_.capacity(), 1066.0 * 1e6 * 16.0 * 0.90, 1e6);
    EXPECT_DOUBLE_EQ(mc_.clock(), 533.0 * kMHz);
}

TEST_F(ControllerTest, UnoptimizedRegistersShrinkCapacity)
{
    mc_.blockAndDrain();
    dev_.enterSelfRefresh();
    dev_.setBin(1);
    mc_.programRegisters(mrc_.crossBinSet(0, 1));
    dev_.exitSelfRefresh(false);
    mc_.release();

    const BytesPerSec trained = 1066.0 * 1e6 * 16.0 * 0.90;
    EXPECT_LT(mc_.capacity(), trained);
    EXPECT_GT(mc_.baseLatencyNs(), 0.0);
}

TEST_F(ControllerTest, PowerDropsWithVoltageAndClock)
{
    const Watt hi = mc_.controllerPower(0.5);
    mc_.setVsa(0.68);
    const Watt lower_v = mc_.controllerPower(0.5);
    EXPECT_LT(lower_v, hi);

    EXPECT_LT(MemoryController::powerAt(0.68, 533 * kMHz, 0.5),
              MemoryController::powerAt(0.80, 800 * kMHz, 0.5));
}

// ---------------------------------------------------------------------
// The controller caches its register-derived constants (capacity, base
// latency, line service time, peak bandwidth). The cache is refreshed
// by every writer of the registers and never snapshotted, so a bin
// reached through programRegisters() and the same bin restored by
// a restoring visitState() must answer bit for bit alike.
// ---------------------------------------------------------------------

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** A DRAM population and its controller, driven by the DVFS flow. */
struct McRig
{
    explicit McRig(const dram::DramSpec &spec)
        : dev(sim, nullptr, spec), mrc(spec),
          mc(sim, nullptr, dev, mrc, 0.80)
    {
    }

    /** Flow steps 3-9: block, self-refresh, switch, program, resume. */
    void
    program(const MrcRegisterSet &regs)
    {
        mc.blockAndDrain();
        dev.enterSelfRefresh();
        dev.setBin(regs.appliedBin);
        mc.programRegisters(regs);
        dev.exitSelfRefresh(true);
        mc.release();
    }

    void
    visit(StateIO &io)
    {
        io.push("dram");
        dev.visitState(io);
        io.pop();
        io.push("mc");
        mc.visitState(io);
        io.pop();
    }

    std::string
    save()
    {
        SnapshotWriter w("0000000000000000", 0);
        StateIO io(w);
        visit(io);
        return w.str();
    }

    void
    load(const std::string &text)
    {
        SnapshotReader r(text);
        StateIO io(r);
        visit(io);
        r.finish();
    }

    Simulator sim;
    dram::DramDevice dev;
    MrcStore mrc;
    MemoryController mc;
};

void
expectSameDerived(McRig &a, McRig &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.mc.binIndex(), b.mc.binIndex());
    EXPECT_EQ(bits(a.mc.capacity()), bits(b.mc.capacity()));
    EXPECT_EQ(bits(a.mc.baseLatencyNs()), bits(b.mc.baseLatencyNs()));
    EXPECT_EQ(bits(a.mc.clock()), bits(b.mc.clock()));
    for (int i = 0; i <= 100; ++i) {
        const double rho = i / 100.0;
        EXPECT_EQ(bits(a.mc.loadedLatencyAt(rho)),
                  bits(b.mc.loadedLatencyAt(rho)))
            << "rho " << rho;
    }

    MemDemand d;
    for (const double scale : {0.0, 0.1, 0.5, 1.0, 2.0}) {
        d.cpuRead = 8e9 * scale;
        d.cpuWrite = 3e9 * scale;
        d.gfx = 4e9 * scale;
        d.ioIso = 2e9 * scale;
        d.ioBestEffort = 1e9 * scale;
        const MemServiceResult ra = a.mc.service(d, 100 * kTicksPerUs);
        const MemServiceResult rb = b.mc.service(d, 100 * kTicksPerUs);
        EXPECT_EQ(bits(ra.achievedTotal()), bits(rb.achievedTotal()));
        EXPECT_EQ(bits(ra.utilization), bits(rb.utilization));
        EXPECT_EQ(bits(ra.loadedLatencyNs), bits(rb.loadedLatencyNs));
        EXPECT_EQ(bits(ra.readPendingOccupancy),
                  bits(rb.readPendingOccupancy));
        EXPECT_EQ(ra.qosViolation, rb.qosViolation);
        EXPECT_EQ(bits(a.mc.lastDramPower()),
                  bits(b.mc.lastDramPower()));
    }
}

TEST(ControllerCache, ProgramAndRestoreDeriveIdenticalConstants)
{
    for (const dram::DramSpec &spec :
         {dram::lpddr3Spec(), dram::ddr4Spec()}) {
        const std::size_t bins = spec.numBins();
        for (std::size_t trained = 0; trained < bins; ++trained) {
            for (std::size_t applied = 0; applied < bins; ++applied) {
                const std::string what =
                    spec.name() + " trained " + std::to_string(trained) +
                    " applied " + std::to_string(applied);

                // Reached through programRegisters().
                McRig programmed(spec);
                programmed.program(
                    programmed.mrc.crossBinSet(trained, applied));

                // Reached through a visitState() save/restore round
                // trip of a controller left at that bin, loaded into one
                // parked at another bin so a stale cache cannot pass.
                McRig source(spec);
                source.program(source.mrc.crossBinSet(trained, applied));
                McRig restored(spec);
                const std::size_t other = (applied + 1) % bins;
                restored.program(restored.mrc.optimizedSet(other));
                restored.load(source.save());

                expectSameDerived(programmed, restored, what);
            }
        }
    }
}

TEST(ControllerCache, RestoreRejectsOutOfRangeBin)
{
    // A well-formed register image naming a bin the spec lacks must
    // fail the restore, not index past the bin table when the cache
    // is derived.
    McRig rig(dram::lpddr3Spec());
    SnapshotWriter w("0000000000000000", 0);
    w.push("regs");
    w.putU64("trained_bin", 0);
    w.putU64("applied_bin", rig.dev.spec().numBins());
    for (const char *k :
         {"t_ck_ns", "t_cl_ns", "t_rcd_ns", "t_rp_ns", "t_ras_ns",
          "t_wr_ns", "t_rfc_ns", "t_refi_ns", "t_xsr_ns", "t_faw_ns",
          "interface_efficiency", "latency_adder_ns",
          "termination_factor", "ddrio_activity_factor"}) {
        w.putDouble(k, 1.0);
    }
    w.pop();
    SnapshotReader r(w.str());
    StateIO io(r);
    EXPECT_THROW(rig.mc.visitState(io), SnapshotError);
}

// ---------------------------------------------------------------------
// Leakage on the V_SA and V_IO rails is cached where the voltage is
// written: MemoryController at its constructor, setVsa() and a
// restoring visitState(); Ddrio at its constructor and setVio() (the
// controller's restore goes through setVio()). Every path must answer
// bit for bit like the uncached leakagePower() expression.
// ---------------------------------------------------------------------

/** A V_SA/V_IO sweep: the Table 1 rail span plus its neighbours. */
std::vector<Volt>
railSweep()
{
    std::vector<Volt> out;
    for (int i = 0; i <= 50; ++i)
        out.push_back(0.55 + 0.01 * i);
    out.push_back(std::nextafter(0.8, 0.0));
    out.push_back(std::nextafter(0.8, 2.0));
    return out;
}

const std::vector<double> kUtils = {0.0, 0.25, 0.6, 1.0};

void
expectMcUncached(const MemoryController &mc, const std::string &what)
{
    SCOPED_TRACE(what);
    const Volt v = mc.vsa();
    for (const double u : kUtils) {
        const Watt want =
            power::dynamicPower(MemoryController::kCdynFarad, v,
                                mc.clock(), 0.25 + 0.75 * u) +
            power::leakagePower(MemoryController::kLeakK, v, 50.0);
        ASSERT_EQ(bits(mc.controllerPower(u)), bits(want)) << "util " << u;
        ASSERT_EQ(bits(MemoryController::powerAt(v, mc.clock(), u)),
                  bits(want));
    }
}

void
expectDdrioUncached(const Ddrio &d, double activity_factor,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    const Volt v = d.vio();
    for (const double u : kUtils) {
        const double act = (0.30 + 0.70 * u) * activity_factor;
        const Watt want =
            power::dynamicPower(Ddrio::kCdynFarad, v, d.clock(), act) +
            power::leakagePower(Ddrio::kLeakK, v, 50.0);
        ASSERT_EQ(bits(d.digitalPower(u, activity_factor)), bits(want))
            << "util " << u;
        ASSERT_EQ(
            bits(Ddrio::powerAt(v, d.clock(), u, activity_factor)),
            bits(want));
    }
}

TEST(LeakageCache, ControllerMatchesUncachedAcrossVsa)
{
    McRig rig(dram::lpddr3Spec());
    expectMcUncached(rig.mc, "constructed");
    for (const Volt v : railSweep()) {
        rig.mc.setVsa(v);
        expectMcUncached(rig.mc, "vsa " + std::to_string(v));
    }
    // A bin change moves the clock, not the rail.
    rig.program(rig.mrc.optimizedSet(1));
    expectMcUncached(rig.mc, "bin 1");
}

TEST(LeakageCache, DdrioMatchesUncachedAcrossVio)
{
    for (const dram::DramSpec &spec :
         {dram::lpddr3Spec(), dram::ddr4Spec()}) {
        Ddrio d(spec, 1.0);
        expectDdrioUncached(d, 1.0, spec.name() + " constructed");
        for (std::size_t bin = 0; bin < spec.numBins(); ++bin) {
            d.setBin(bin);
            for (const Volt v : railSweep()) {
                d.setVio(v);
                for (const double af : {1.0, 1.35}) {
                    expectDdrioUncached(d, af,
                                        spec.name() + " bin " +
                                            std::to_string(bin) + " vio " +
                                            std::to_string(v));
                }
            }
        }
    }
}

TEST(LeakageCache, ControllerRestoreRefreshesBothRails)
{
    const std::vector<Volt> sweep = railSweep();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const Volt vsa = sweep[i];
        const Volt vio = sweep[sweep.size() - 1 - i];
        McRig source(dram::lpddr3Spec());
        source.mc.setVsa(vsa);
        source.mc.ddrio().setVio(vio);

        // Parked at other rail voltages, so a stale cache cannot pass.
        McRig restored(dram::lpddr3Spec());
        restored.mc.setVsa(vsa + 0.1);
        restored.mc.ddrio().setVio(vio + 0.1);
        restored.load(source.save());

        const std::string what = "vsa " + std::to_string(vsa) + " vio " +
                                 std::to_string(vio);
        expectMcUncached(restored.mc, what);
        expectDdrioUncached(restored.mc.ddrio(), 1.0, what);
        for (const double u : kUtils) {
            EXPECT_EQ(bits(restored.mc.ddrioDigitalPower(u)),
                      bits(source.mc.ddrioDigitalPower(u)));
        }
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

TEST(ControllerSplit, NCommitsOfOneEvaluationEqualNServiceCalls)
{
    // service() is evaluate() then commit(), and a replayed step
    // commits one evaluation many times: both must leave every MC and
    // DRAM stat, the saved state and the result bitwise where N
    // service() calls leave them. N = 1 is the slow path's split
    // itself. The odd interval stands in for a step's DRAM-active
    // share, which the MC serves over its own tick count.
    MemDemand light;
    light.cpuRead = 1e9;
    light.cpuWrite = 4e8;
    light.ioIso = 5e8;
    MemDemand squeezed;
    squeezed.cpuRead = 20e9;
    squeezed.cpuWrite = 8e9;
    squeezed.gfx = 6e9;
    squeezed.ioIso = 3e9;
    squeezed.ioBestEffort = 2e9;
    MemDemand qos;
    qos.ioIso = 40e9;
    qos.cpuRead = 1e9;

    for (const dram::DramSpec &spec :
         {dram::lpddr3Spec(), dram::ddr4Spec()}) {
        for (std::size_t bin = 0; bin < spec.numBins(); ++bin) {
            for (const MemDemand &d : {MemDemand{}, light, squeezed, qos}) {
                for (const int n : {1, 5, 300}) {
                    SCOPED_TRACE(spec.name() + " bin " +
                                 std::to_string(bin) + " total " +
                                 std::to_string(d.total()) + " n " +
                                 std::to_string(n));
                    McRig a(spec);
                    McRig b(spec);
                    McRig c(spec);
                    a.program(a.mrc.optimizedSet(bin));
                    b.program(b.mrc.optimizedSet(bin));
                    c.program(c.mrc.optimizedSet(bin));
                    const Tick interval = 46 * kTicksPerUs + 237;

                    MemServiceResult ra;
                    for (int i = 0; i < n; ++i)
                        ra = a.mc.service(d, interval);
                    const MemServiceCommit cb =
                        b.mc.evaluate(d, interval);
                    for (int i = 0; i < n; ++i)
                        b.mc.commit(cb);
                    // A replay batch commits all N in one call.
                    c.mc.commit(c.mc.evaluate(d, interval),
                                static_cast<std::uint64_t>(n));
                    EXPECT_EQ(statBits(a.sim), statBits(c.sim));
                    const MemServiceResult &rb = cb.result;

                    EXPECT_EQ(cb.interval, interval);
                    EXPECT_EQ(bits(ra.achievedCpuRead),
                              bits(rb.achievedCpuRead));
                    EXPECT_EQ(bits(ra.achievedCpuWrite),
                              bits(rb.achievedCpuWrite));
                    EXPECT_EQ(bits(ra.achievedGfx), bits(rb.achievedGfx));
                    EXPECT_EQ(bits(ra.achievedIso), bits(rb.achievedIso));
                    EXPECT_EQ(bits(ra.achievedBestEffort),
                              bits(rb.achievedBestEffort));
                    EXPECT_EQ(bits(ra.utilization), bits(rb.utilization));
                    EXPECT_EQ(bits(ra.loadedLatencyNs),
                              bits(rb.loadedLatencyNs));
                    EXPECT_EQ(bits(ra.readPendingOccupancy),
                              bits(rb.readPendingOccupancy));
                    EXPECT_EQ(ra.qosViolation, rb.qosViolation);
                    EXPECT_EQ(bits(a.mc.lastDramPower()),
                              bits(b.mc.lastDramPower()));
                    EXPECT_EQ(statBits(a.sim), statBits(b.sim));
                    EXPECT_EQ(a.save(), b.save());
                }
            }
        }
    }
}

} // namespace
} // namespace mem
} // namespace sysscale
