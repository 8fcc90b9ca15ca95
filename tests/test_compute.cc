/**
 * @file
 * Unit tests for the CPU cluster, graphics engine, LLC, and C-states.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "compute/cpu.hh"
#include "compute/cstates.hh"
#include "compute/gfx.hh"
#include "compute/llc.hh"
#include "power/vf_curve.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace compute {
namespace {

power::PStateTable
coreTable()
{
    return power::PStateTable(power::skylakeCoreCurve(), 1.05e-9,
                              0.18, 50.0, 28);
}

power::PStateTable
gfxTable()
{
    return power::PStateTable(power::skylakeGfxCurve(), 1.5e-9, 0.22,
                              50.0, 28);
}

TEST(Cpu, IpcMatchesIntervalModel)
{
    Simulator sim;
    CpuCluster cpu(sim, nullptr, 2, 2, coreTable());
    cpu.setPState(power::PState{1.2 * kGHz, 0.70, 1.0});

    CoreWork w;
    w.cpiBase = 1.0;
    w.mpki = 10.0;
    w.blockingFactor = 0.5;

    // 100ns at 1.2GHz = 120 cycles; mem CPI = .01*.5*120 = 0.6.
    EXPECT_NEAR(cpu.ipcAt(w, 100.0), 1.0 / 1.6, 1e-9);
    // Ideal memory: IPC = 1/cpiBase.
    EXPECT_NEAR(cpu.ipcAt(w, 0.0), 1.0, 1e-9);
}

TEST(Cpu, MemoryLatencyHurtsBoundWorkloadsOnly)
{
    Simulator sim;
    CpuCluster cpu(sim, nullptr, 2, 2, coreTable());
    cpu.setPState(power::PState{1.2 * kGHz, 0.70, 1.0});

    CoreWork compute_bound;
    compute_bound.cpiBase = 0.6;
    compute_bound.mpki = 0.1;
    compute_bound.blockingFactor = 0.3;

    CoreWork mem_bound = compute_bound;
    mem_bound.mpki = 15.0;
    mem_bound.blockingFactor = 0.8;

    const double cb_drop = cpu.ipcAt(compute_bound, 130.0) /
                           cpu.ipcAt(compute_bound, 100.0);
    const double mb_drop = cpu.ipcAt(mem_bound, 130.0) /
                           cpu.ipcAt(mem_bound, 100.0);
    EXPECT_GT(cb_drop, 0.995); // < 0.5% loss
    EXPECT_LT(mb_drop, 0.90);  // > 10% loss
}

TEST(Cpu, BandwidthClampLimitsRetirement)
{
    Simulator sim;
    CpuCluster cpu(sim, nullptr, 2, 2, coreTable());
    cpu.setPState(power::PState{2.0 * kGHz, 0.87, 1.0});

    CoreWork w;
    w.cpiBase = 0.6;
    w.mpki = 30.0;
    w.blockingFactor = 0.35;
    w.bytesPerInstr = 40.0;

    const CoreResult full = cpu.retire(w, 90.0, 1.0, kTicksPerMs);
    const CoreResult half = cpu.retire(w, 90.0, 0.5, kTicksPerMs);
    EXPECT_TRUE(half.bandwidthLimited);
    EXPECT_NEAR(half.instructions, full.instructions * 0.5, 1e-3);
}

TEST(Cpu, RetireAccountsStallCycles)
{
    Simulator sim;
    CpuCluster cpu(sim, nullptr, 2, 2, coreTable());
    cpu.setPState(power::PState{1.0 * kGHz, 0.66, 1.0});

    CoreWork w;
    w.cpiBase = 1.0;
    w.mpki = 5.0;
    w.blockingFactor = 0.6;

    const CoreResult r = cpu.retire(w, 100.0, 1.0, kTicksPerMs);
    const double expected =
        r.instructions * 0.005 * 0.6 * 100.0 * 1e-9 * 1.0e9;
    EXPECT_NEAR(r.stallCycles, expected, expected * 1e-6);
}

TEST(Cpu, PowerGrowsWithThreadsAndSmtYieldsLess)
{
    Simulator sim;
    CpuCluster cpu(sim, nullptr, 2, 2, coreTable());
    cpu.setPState(power::PState{1.6 * kGHz, 0.78, 1.0});

    const Watt one = cpu.power(1, 0.8);
    const Watt two = cpu.power(2, 0.8);
    const Watt four = cpu.power(4, 0.8);
    EXPECT_GT(two, one);
    EXPECT_GT(four, two);
    // SMT sibling adds less than a full core.
    EXPECT_LT(four - two, two - cpu.leakage());
}

TEST(Gfx, FpsIsMinOfShaderAndBandwidth)
{
    Simulator sim;
    GfxEngine gfx(sim, nullptr, gfxTable());
    gfx.setPState(power::PState{0.9 * kGHz, 0.92, 1.0});

    GfxWork w;
    w.cyclesPerFrame = 15e6; // shader-limited at 60 fps
    w.bytesPerFrame = 100e6;

    const GfxResult roomy = gfx.render(w, 20e9, kTicksPerMs);
    EXPECT_NEAR(roomy.fps, 60.0, 1e-6);
    EXPECT_FALSE(roomy.bandwidthLimited);

    const GfxResult starved = gfx.render(w, 3e9, kTicksPerMs);
    EXPECT_NEAR(starved.fps, 30.0, 1e-6);
    EXPECT_TRUE(starved.bandwidthLimited);
}

TEST(Gfx, VsyncCapsFrameRate)
{
    Simulator sim;
    GfxEngine gfx(sim, nullptr, gfxTable());
    gfx.setPState(power::PState{1.05 * kGHz, 1.05, 1.0});

    GfxWork w;
    w.cyclesPerFrame = 5e6;
    w.targetFps = 60.0;
    EXPECT_NEAR(gfx.shaderLimitedFps(w), 60.0, 1e-9);
}

TEST(Gfx, IdleWorkDrawsLeakageOnly)
{
    Simulator sim;
    GfxEngine gfx(sim, nullptr, gfxTable());
    const GfxWork idle;
    const GfxWork busy{15e6, 100e6, 0.0, 0.8};
    EXPECT_LT(gfx.power(idle), gfx.power(busy));
}

TEST(Llc, MissScaleFollowsSquareRootRule)
{
    Simulator sim;
    Llc llc(sim, nullptr, 1 * 1024 * 1024);
    // Profile characterized at 4MB on a 1MB cache: misses x2.
    EXPECT_NEAR(llc.missScale(4 * 1024 * 1024), 2.0, 1e-9);

    Llc same(sim, nullptr, 4 * 1024 * 1024);
    EXPECT_NEAR(same.missScale(4 * 1024 * 1024), 1.0, 1e-9);
}

TEST(Llc, RecordsCounterObservables)
{
    Simulator sim;
    Llc llc(sim, nullptr, 4 * 1024 * 1024);
    llc.recordInterval(100.0, 50.0, 2000.0, 7.5);
    EXPECT_DOUBLE_EQ(llc.lastGfxMisses(), 50.0);
    EXPECT_DOUBLE_EQ(llc.lastStallCycles(), 2000.0);
    EXPECT_DOUBLE_EQ(llc.lastPendingOccupancy(), 7.5);
}

// ---------------------------------------------------------------------
// Leakage is derived where a unit's voltage is written (constructor,
// setPState(), a restoring visitState()) or, for the LLC, memoized on
// the bit pattern of the voltage it is handed. Nothing is snapshotted,
// so every path to a voltage must answer bit for bit like the uncached
// leakagePower() expression.
// ---------------------------------------------------------------------

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

template <typename Unit>
std::string
saveOf(Unit &unit)
{
    SnapshotWriter w("0000000000000000", 0);
    StateIO io(w);
    unit.visitState(io);
    return w.str();
}

template <typename Unit>
void
loadInto(Unit &unit, const std::string &text)
{
    SnapshotReader r(text);
    StateIO io(r);
    unit.visitState(io);
    r.finish();
}

/** Every state up, then down again, so each is entered from both sides. */
std::vector<power::PState>
walkStates(const power::PStateTable &t)
{
    std::vector<power::PState> out(t.states().begin(), t.states().end());
    out.insert(out.end(), t.states().rbegin(), t.states().rend());
    return out;
}

/** A state whose voltage differs from @p v: where a restore parks. */
const power::PState &
parkedAway(const power::PStateTable &t, Volt v)
{
    return v == t.max().voltage ? t.min() : t.max();
}

Watt
refCpuLeakage(const CpuCluster &cpu)
{
    const power::PStateTable &t = cpu.pstates();
    return power::leakagePower(t.leakK(), cpu.voltage(), t.temperature()) *
           static_cast<double>(cpu.numCores());
}

/** CpuCluster::power() with the leakage term recomputed. */
Watt
refCpuPower(const CpuCluster &cpu, std::size_t threads, double activity)
{
    const std::size_t cores = cpu.numCores();
    const double smt = threads > cores
                           ? static_cast<double>(threads - cores) *
                                 (CpuCluster::kSmtYield - 1.0)
                           : 0.0;
    const double core_eq =
        static_cast<double>(std::min(cores, threads)) + smt;
    return power::dynamicPower(cpu.pstates().cdyn(), cpu.voltage(),
                               cpu.frequency(), activity) *
               core_eq +
           refCpuLeakage(cpu);
}

void
expectCpuUncached(const CpuCluster &cpu, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(bits(cpu.leakage()), bits(refCpuLeakage(cpu)));
    for (std::size_t n = 0; n <= cpu.numThreads(); ++n) {
        for (const double a : {0.0, 0.45, 1.0}) {
            ASSERT_EQ(bits(cpu.power(n, a)), bits(refCpuPower(cpu, n, a)))
                << n << " threads, activity " << a;
        }
    }
}

TEST(LeakageCache, CpuMatchesUncachedAtEveryPState)
{
    Simulator sim;
    CpuCluster cpu(sim, nullptr, 2, 2, coreTable());
    expectCpuUncached(cpu, "constructed");
    for (const power::PState &s : walkStates(cpu.pstates())) {
        cpu.setPState(s);
        expectCpuUncached(cpu, "state " + std::to_string(s.freq));
        // Same voltage, other clock: the cache must survive as is.
        cpu.setPState(power::PState{s.freq * 0.5, s.voltage, 0.0});
        expectCpuUncached(cpu, "clock-only " + std::to_string(s.freq));
    }
}

TEST(LeakageCache, CpuRestoreRefreshesLeakage)
{
    const power::PStateTable table = coreTable();
    for (const power::PState &s : table.states()) {
        Simulator sim;
        CpuCluster source(sim, nullptr, 2, 2, coreTable());
        source.setPState(s);
        CpuCluster restored(sim, nullptr, 2, 2, coreTable());
        restored.setPState(parkedAway(restored.pstates(), s.voltage));
        loadInto(restored, saveOf(source));
        expectCpuUncached(restored, "restored " + std::to_string(s.freq));
        EXPECT_EQ(bits(restored.leakage()), bits(source.leakage()));
    }
}

void
expectGfxUncached(const GfxEngine &gfx, const std::string &what)
{
    SCOPED_TRACE(what);
    const power::PStateTable &t = gfx.pstates();
    const Watt leak =
        power::leakagePower(t.leakK(), gfx.voltage(), t.temperature());
    ASSERT_EQ(bits(gfx.leakage()), bits(leak));
    ASSERT_EQ(bits(gfx.power(GfxWork{})), bits(leak));
    const GfxWork busy{15e6, 100e6, 0.0, 0.8};
    ASSERT_EQ(bits(gfx.power(busy)),
              bits(power::dynamicPower(t.cdyn(), gfx.voltage(),
                                       gfx.frequency(), busy.activity) +
                   leak));
}

TEST(LeakageCache, GfxMatchesUncachedAtEveryPState)
{
    Simulator sim;
    GfxEngine gfx(sim, nullptr, gfxTable());
    expectGfxUncached(gfx, "constructed");
    for (const power::PState &s : walkStates(gfx.pstates())) {
        gfx.setPState(s);
        expectGfxUncached(gfx, "state " + std::to_string(s.freq));
        gfx.setPState(power::PState{s.freq * 0.5, s.voltage, 0.0});
        expectGfxUncached(gfx, "clock-only " + std::to_string(s.freq));
    }
}

TEST(LeakageCache, GfxRestoreRefreshesLeakage)
{
    const power::PStateTable table = gfxTable();
    for (const power::PState &s : table.states()) {
        Simulator sim;
        GfxEngine source(sim, nullptr, gfxTable());
        source.setPState(s);
        GfxEngine restored(sim, nullptr, gfxTable());
        restored.setPState(parkedAway(restored.pstates(), s.voltage));
        loadInto(restored, saveOf(source));
        expectGfxUncached(restored, "restored " + std::to_string(s.freq));
    }
}

Watt
refLlcPower(Volt v, double utilization)
{
    return power::dynamicPower(Llc::kCdynFarad, v, Llc::kAccessClock,
                               0.1 + 0.9 * utilization) +
           power::leakagePower(Llc::kLeakK, v, 50.0);
}

TEST(LeakageCache, LlcMemoFollowsTheVoltageBits)
{
    Simulator sim;
    Llc llc(sim, nullptr, 4 * 1024 * 1024);
    // Every core P-state voltage, revisited out of order, plus the
    // zero-volt seed and neighbouring doubles of one state.
    std::vector<Volt> volts = {0.0};
    for (const power::PState &s : walkStates(coreTable()))
        volts.push_back(s.voltage);
    const Volt mid = coreTable().states()[14].voltage;
    for (const Volt v : {mid, std::nextafter(mid, 0.0), mid,
                         std::nextafter(mid, 2.0), 0.0, mid}) {
        volts.push_back(v);
    }
    for (const Volt v : volts) {
        for (const double u : {0.0, 0.3, 1.0}) {
            ASSERT_EQ(bits(llc.power(v, u)), bits(refLlcPower(v, u)))
                << "voltage " << v << " utilization " << u;
        }
    }
}

TEST(LeakageCache, LlcRestoreKeepsMemoConsistent)
{
    // The memo is not snapshotted: a restored LLC that memoized some
    // other voltage must still answer for the source's.
    Simulator sim;
    const power::PStateTable t = coreTable();
    Llc source(sim, nullptr, 4 * 1024 * 1024);
    source.recordInterval(10.0, 5.0, 200.0, 1.5);
    source.power(t.max().voltage, 0.5);
    Llc restored(sim, nullptr, 4 * 1024 * 1024);
    restored.power(t.min().voltage, 0.5);
    loadInto(restored, saveOf(source));
    EXPECT_EQ(bits(restored.power(t.max().voltage, 0.5)),
              bits(refLlcPower(t.max().voltage, 0.5)));
    EXPECT_EQ(bits(restored.power(t.min().voltage, 0.2)),
              bits(refLlcPower(t.min().voltage, 0.2)));
}

// ---------------------------------------------------------------------
// Evaluate/commit split. A replayed step commits a recorded evaluation
// instead of calling retire()/render() again, so N commits of one
// evaluation must leave every stat bitwise where N calls leave it.
// N = 1 is the slow path's split itself.
// ---------------------------------------------------------------------

/** Every stat under @p sim's root, doubles as bit patterns. */
std::string
statBits(Simulator &sim)
{
    SnapshotWriter w("0000000000000000", 0);
    StateIO io(w);
    sim.statsRoot().visitStats(io);
    return w.str();
}

TEST(RetireSplit, NCommitsOfOneEvaluationEqualNRetireCalls)
{
    CoreWork compute_bound;
    compute_bound.cpiBase = 0.8;
    compute_bound.mpki = 0.5;
    CoreWork streaming;
    streaming.cpiBase = 0.6;
    streaming.mpki = 30.0;
    streaming.blockingFactor = 0.35;
    streaming.bytesPerInstr = 40.0;

    for (const CoreWork &w : {compute_bound, streaming}) {
        for (const double grant : {1.0, 0.37}) {
            for (const int n : {1, 5, 300}) {
                SCOPED_TRACE("mpki " + std::to_string(w.mpki) +
                             " grant " + std::to_string(grant) +
                             " n " + std::to_string(n));
                Simulator sa, sb, sc;
                CpuCluster a(sa, nullptr, 2, 2, coreTable());
                CpuCluster b(sb, nullptr, 2, 2, coreTable());
                CpuCluster c(sc, nullptr, 2, 2, coreTable());
                a.setPState(power::PState{2.0 * kGHz, 0.87, 1.0});
                b.setPState(power::PState{2.0 * kGHz, 0.87, 1.0});
                c.setPState(power::PState{2.0 * kGHz, 0.87, 1.0});
                const Tick exec = 61 * kTicksPerUs + 13;

                CoreResult ra;
                for (int i = 0; i < n; ++i)
                    ra = a.retire(w, 93.5, grant, exec);
                const CoreResult rb =
                    b.evaluateRetire(w, 93.5, grant, exec);
                for (int i = 0; i < n; ++i)
                    b.commitRetire(rb);
                // A replay batch commits all N in one call.
                c.commitRetire(&rb, 1, static_cast<std::uint64_t>(n));
                EXPECT_EQ(statBits(sa), statBits(sc));

                EXPECT_EQ(bits(ra.instructions), bits(rb.instructions));
                EXPECT_EQ(bits(ra.ipc), bits(rb.ipc));
                EXPECT_EQ(bits(ra.stallCycles), bits(rb.stallCycles));
                EXPECT_EQ(ra.bandwidthLimited, rb.bandwidthLimited);
                EXPECT_EQ(statBits(sa), statBits(sb));
            }
        }
    }
}

TEST(RetireSplit, BatchedThreadsCommitInStepOrder)
{
    // A replayed step retires every active thread in order; a batch
    // of N steps must leave the bits of N such rounds.
    CoreWork w;
    w.cpiBase = 0.7;
    w.mpki = 3.0;
    Simulator sa, sb;
    CpuCluster a(sa, nullptr, 2, 2, coreTable());
    CpuCluster b(sb, nullptr, 2, 2, coreTable());
    const CoreResult rs[] = {
        a.evaluateRetire(w, 80.0, 1.0, 61 * kTicksPerUs + 13),
        a.evaluateRetire(w, 80.0, 0.41, 7 * kTicksPerUs),
        a.evaluateRetire(w, 95.0, 1.0, 3 * kTicksPerUs + 1),
    };
    for (int i = 0; i < 700; ++i) {
        for (const CoreResult &r : rs)
            a.commitRetire(r);
    }
    b.commitRetire(rs, 3, 700);
    EXPECT_EQ(statBits(sa), statBits(sb));
}

TEST(RenderSplit, NCommitsOfOneEvaluationEqualNRenderCalls)
{
    const GfxWork shader_bound{15e6, 100e6, 0.0, 0.8};
    const GfxWork vsync{5e6, 40e6, 60.0, 0.8};
    for (const GfxWork &w : {shader_bound, vsync}) {
        for (const BytesPerSec bw : {20e9, 3e9}) {
            for (const int n : {1, 5, 300}) {
                SCOPED_TRACE("cycles " + std::to_string(w.cyclesPerFrame) +
                             " bw " + std::to_string(bw) + " n " +
                             std::to_string(n));
                Simulator sa, sb, sc;
                GfxEngine a(sa, nullptr, gfxTable());
                GfxEngine b(sb, nullptr, gfxTable());
                GfxEngine c(sc, nullptr, gfxTable());
                a.setPState(power::PState{0.9 * kGHz, 0.92, 1.0});
                b.setPState(power::PState{0.9 * kGHz, 0.92, 1.0});
                c.setPState(power::PState{0.9 * kGHz, 0.92, 1.0});
                const Tick exec = 61 * kTicksPerUs + 13;

                GfxResult ra;
                for (int i = 0; i < n; ++i)
                    ra = a.render(w, bw, exec);
                const GfxResult rb = b.evaluateRender(w, bw, exec);
                for (int i = 0; i < n; ++i)
                    b.commitRender(rb);
                // A replay batch commits all N in one call.
                c.commitRender(rb, static_cast<std::uint64_t>(n));
                EXPECT_EQ(statBits(sa), statBits(sc));

                EXPECT_EQ(bits(ra.fps), bits(rb.fps));
                EXPECT_EQ(bits(ra.frames), bits(rb.frames));
                EXPECT_EQ(ra.bandwidthLimited, rb.bandwidthLimited);
                EXPECT_EQ(statBits(sa), statBits(sb));
            }
        }
    }
}

TEST(RenderSplit, IdleWorkEvaluatesToNothingAndCountsNothing)
{
    Simulator sim;
    GfxEngine gfx(sim, nullptr, gfxTable());
    const std::string before = statBits(sim);
    const GfxResult r = gfx.render(GfxWork{}, 20e9, kTicksPerMs);
    EXPECT_EQ(r.frames, 0.0);
    EXPECT_EQ(r.fps, 0.0);
    EXPECT_EQ(statBits(sim), before);
}

TEST(CStates, ResidencyMustSumToOne)
{
    std::array<double, kNumCStates> bad{};
    bad[cstateIndex(CState::C0)] = 0.5;
    EXPECT_DEATH(CStateResidency{bad}, "");
}

TEST(CStates, VideoPlaybackResidencyWeights)
{
    // Sec. 7.3: C0/C2/C8 = 10/5/85%; DRAM active only in C0+C2.
    std::array<double, kNumCStates> f{};
    f[cstateIndex(CState::C0)] = 0.10;
    f[cstateIndex(CState::C2)] = 0.05;
    f[cstateIndex(CState::C8)] = 0.85;
    const CStateResidency r(f);
    EXPECT_NEAR(r.dramActiveFraction(), 0.15, 1e-12);
    EXPECT_NEAR(r.activeFraction(), 0.10, 1e-12);
    EXPECT_NEAR(r.computeDynWeight(), 0.10, 1e-12);
    EXPECT_LT(r.uncoreWeight(), 0.20);
}

TEST(CStates, DeeperStatesGateMorePower)
{
    EXPECT_GT(cstateTraits(CState::C2).uncoreFactor,
              cstateTraits(CState::C6).uncoreFactor);
    EXPECT_GT(cstateTraits(CState::C6).uncoreFactor,
              cstateTraits(CState::C8).uncoreFactor);
    EXPECT_TRUE(cstateTraits(CState::C2).dramActive);
    EXPECT_FALSE(cstateTraits(CState::C8).dramActive);
}

TEST(Hdc, EngagesOnlyBelowThresholdTdp)
{
    EXPECT_DOUBLE_EQ(HardwareDutyCycle(7.0).dutyFactor(), 1.0);
    EXPECT_DOUBLE_EQ(HardwareDutyCycle(15.0).dutyFactor(), 1.0);
    const double duty35 = HardwareDutyCycle(3.5).dutyFactor();
    EXPECT_LT(duty35, 1.0);
    EXPECT_GE(duty35, HardwareDutyCycle::kMinDuty);
    EXPECT_LT(HardwareDutyCycle(3.5).dutyFactor(),
              HardwareDutyCycle(4.5).dutyFactor());
}

} // namespace
} // namespace compute
} // namespace sysscale
