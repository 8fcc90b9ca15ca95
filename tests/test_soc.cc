/**
 * @file
 * Unit tests for the SoC layer: configs, operating points, counters,
 * PMU cadence, and the assembled Soc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/governor.hh"
#include "core/governors.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/config.hh"
#include "soc/counters.hh"
#include "soc/op_point.hh"
#include "soc/soc.hh"
#include "workloads/micro.hh"

namespace sysscale {
namespace soc {
namespace {

TEST(SocConfig, SkylakeMatchesTable2)
{
    const SocConfig cfg = skylakeConfig();
    EXPECT_EQ(cfg.cores, 2u);
    EXPECT_EQ(cfg.threadsPerCore, 2u);
    EXPECT_DOUBLE_EQ(cfg.coreBaseFreq, 1.2 * kGHz);
    EXPECT_DOUBLE_EQ(cfg.gfxBaseFreq, 0.3 * kGHz);
    EXPECT_EQ(cfg.llcBytes, 4u * 1024 * 1024);
    EXPECT_DOUBLE_EQ(cfg.tdp, 4.5);
    EXPECT_EQ(cfg.dramSpec.type(), dram::DramType::LPDDR3);
}

TEST(SocConfig, ValidationCatchesBadCadence)
{
    SocConfig cfg = skylakeConfig();
    cfg.sampleInterval = 3 * kTicksPerUs; // not a step multiple
    cfg.stepInterval = 2 * kTicksPerUs;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(OpPoints, OnePointPerBinHighestFirst)
{
    const SocConfig cfg = skylakeConfig();
    const OpPointTable table(cfg);
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.high().dramBin, 0u);
    EXPECT_EQ(table.low().dramBin, 1u);
    EXPECT_GT(table.high().fabricFreq, table.low().fabricFreq);
}

TEST(OpPoints, VoltagesFollowTable1Direction)
{
    // Table 1: the MD-DVFS point lowers V_SA and V_IO below boot.
    const SocConfig cfg = skylakeConfig();
    const OpPointTable table(cfg);
    EXPECT_DOUBLE_EQ(table.high().vSa, cfg.vSaBoot);
    EXPECT_DOUBLE_EQ(table.high().vIo, cfg.vIoBoot);
    EXPECT_LT(table.low().vSa, table.high().vSa);
    EXPECT_NEAR(table.low().vIo, 0.85, 5e-3); // ~0.85 * V_IO
}

TEST(OpPoints, The800PointSavesLittleOver1066)
{
    // Sec. 7.4: V_SA hits Vmin at 1066, so 800 frees almost nothing.
    const SocConfig cfg = skylakeConfig();
    const OpPointTable table(cfg);
    const Watt hi = ioMemBudgetDemand(cfg, table.high());
    const Watt lo = ioMemBudgetDemand(cfg, table.point(1));
    const Watt lowest = ioMemBudgetDemand(cfg, table.point(2));
    EXPECT_LT((lo - lowest), (hi - lo) * 0.45);
}

TEST(OpPoints, UnoptimizedMrcCostsPower)
{
    const SocConfig cfg = skylakeConfig();
    const OpPointTable table(cfg);
    OperatingPoint cross = table.low();
    cross.mrcTrainedBin = 0;
    EXPECT_GT(ioMemBudgetDemand(cfg, cross, false),
              ioMemBudgetDemand(cfg, cross, true));
}

TEST(Counters, NormalizesToEventsPerMillisecond)
{
    Simulator sim;
    PerfCounterBlock blk(sim, nullptr);
    // Two half-millisecond steps of 500 misses each = 1000/ms.
    blk.accumulate(500.0, 4.0, 1000.0, 2.0, kTicksPerMs / 2);
    blk.accumulate(500.0, 4.0, 1000.0, 2.0, kTicksPerMs / 2);
    blk.sample();

    const CounterSnapshot avg = blk.windowAverage();
    EXPECT_NEAR(avg[Counter::GfxLlcMisses], 1000.0, 1e-9);
    EXPECT_NEAR(avg[Counter::LlcStalls], 2000.0, 1e-9);
    // Occupancies are time-weighted, not summed.
    EXPECT_NEAR(avg[Counter::LlcOccupancyTracer], 4.0, 1e-9);
    EXPECT_NEAR(avg[Counter::IoRpq], 2.0, 1e-9);
}

TEST(Counters, WindowAveragesAcrossSamples)
{
    Simulator sim;
    PerfCounterBlock blk(sim, nullptr);
    blk.accumulate(100.0, 1.0, 0.0, 0.0, kTicksPerMs);
    blk.sample();
    blk.accumulate(300.0, 3.0, 0.0, 0.0, kTicksPerMs);
    blk.sample();
    EXPECT_EQ(blk.windowSamples(), 2u);
    EXPECT_NEAR(blk.windowAverage()[Counter::GfxLlcMisses], 200.0,
                1e-9);
    blk.clearWindow();
    EXPECT_EQ(blk.windowSamples(), 0u);
}

TEST(Pmu, CadenceMatchesConfig)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    EXPECT_EQ(chip.pmu().sampleInterval(), 1 * kTicksPerMs);
    EXPECT_EQ(chip.pmu().evaluationInterval(), 30 * kTicksPerMs);
    EXPECT_EQ(chip.pmu().samplesPerWindow(), 30u);
}

TEST(Pmu, EvaluatesOncePerInterval)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    core::FixedGovernor gov;
    chip.pmu().setGovernor(&gov);
    chip.run(100 * kTicksPerMs);
    EXPECT_EQ(chip.pmu().evaluations(), 3u); // t = 30, 60, 90 ms
}

namespace {

/** Records each evaluation's window sample count and average. */
class WindowRecorder : public core::Governor
{
  public:
    const char *name() const override { return "window-recorder"; }

    void
    decide(core::GovernorDriver &, Soc &soc,
           const CounterSnapshot &avg) override
    {
        windows.push_back(soc.counters().windowSamples());
        averages.push_back(avg);
    }

    std::vector<std::size_t> windows;
    std::vector<CounterSnapshot> averages;
};

/** What a WindowRecorder saw over one run, and the PMU's average. */
struct RecordedRun
{
    std::vector<std::size_t> windows;
    std::vector<CounterSnapshot> averages;
    CounterSnapshot runAverage;
};

/**
 * Run a Soc for @p total with a WindowRecorder installed, idle or
 * (with @p stream) running the stream microbenchmark. With @p cut > 0
 * the run stops at @p cut, the kernel's snapshot sections (events,
 * objects, stats, RNG) are saved, and a fresh Soc restored from them
 * runs the rest: the restore path runCellSlice() takes.
 */
RecordedRun
recordWindows(bool skip_ahead, Tick total, Tick cut,
              bool stream = false)
{
    workloads::ProfileAgent agent(workloads::streamMicro());
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    chip.setSkipAhead(skip_ahead);
    if (stream)
        chip.setWorkload(&agent);
    WindowRecorder rec;
    chip.pmu().setGovernor(&rec);
    if (cut == 0) {
        chip.run(total);
        return {rec.windows, rec.averages, chip.pmu().runAverage()};
    }
    chip.run(cut);
    SnapshotWriter w("0000000000000000", sim.now());
    StateIO save(w);
    sim.visitState(save);

    workloads::ProfileAgent agent2(workloads::streamMicro());
    Simulator sim2;
    Soc chip2(sim2, skylakeConfig());
    chip2.setSkipAhead(skip_ahead);
    if (stream)
        chip2.setWorkload(&agent2);
    WindowRecorder rec2;
    chip2.pmu().setGovernor(&rec2);
    SnapshotReader r(w.str());
    StateIO load(r);
    sim2.visitState(load);
    r.finish();

    chip2.run(total - cut);
    RecordedRun all{rec.windows, rec.averages,
                    chip2.pmu().runAverage()};
    all.windows.insert(all.windows.end(), rec2.windows.begin(),
                       rec2.windows.end());
    all.averages.insert(all.averages.end(), rec2.averages.begin(),
                        rec2.averages.end());
    return all;
}

} // anonymous namespace

/**
 * At a tick that is both a sample and an evaluation tick, the governor
 * evaluates first and the sample opens the next window: the first
 * window lacks the tick-0 sample (29), every later one holds 30. The
 * same holds with skip-ahead off and across a restore at an off-grid
 * tick, which re-derives the next sample tick.
 */
TEST(Pmu, EvaluationPrecedesTheBoundarySample)
{
    const std::vector<std::size_t> expected = {29, 30, 30};
    const Tick total = 100 * kTicksPerMs;
    const Tick cut = 45 * kTicksPerMs + 37;
    for (bool skip_ahead : {true, false}) {
        EXPECT_EQ(recordWindows(skip_ahead, total, 0).windows,
                  expected)
            << "skip-ahead " << skip_ahead;
        EXPECT_EQ(recordWindows(skip_ahead, total, cut).windows,
                  expected)
            << "skip-ahead " << skip_ahead << ", restored";
    }
}

/**
 * The PMU's run average is the mean of the window averages its
 * governor was handed, summed in evaluation order and divided by the
 * evaluation count, bit for bit; the run sum rides the PMU's
 * snapshot, so a restore at an off-grid tick changes nothing.
 */
TEST(Pmu, RunAverageIsTheMeanOfEvaluatedWindows)
{
    const Tick total = 100 * kTicksPerMs;
    const Tick cut = 45 * kTicksPerMs + 37;
    const RecordedRun run =
        recordWindows(true, total, 0, /*stream=*/true);
    ASSERT_EQ(run.averages.size(), 3u);

    CounterSnapshot mean;
    for (const CounterSnapshot &avg : run.averages) {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            mean.values[i] += avg.values[i];
    }
    bool any_nonzero = false;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        mean.values[i] /= static_cast<double>(run.averages.size());
        EXPECT_EQ(run.runAverage.values[i], mean.values[i])
            << "counter " << i;
        any_nonzero = any_nonzero || mean.values[i] != 0.0;
    }
    EXPECT_TRUE(any_nonzero) << "the stream run moved no counter";

    const RecordedRun restored =
        recordWindows(true, total, cut, /*stream=*/true);
    ASSERT_EQ(restored.averages.size(), 3u);
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        EXPECT_EQ(restored.runAverage.values[i], mean.values[i])
            << "counter " << i << ", restored";
    }
}

TEST(Pmu, OversizedFirmwareRejected)
{
    class FatGovernor : public core::Governor
    {
      public:
        const char *name() const override { return "fat"; }
        void decide(core::GovernorDriver &, Soc &,
                    const CounterSnapshot &) override
        {}
        std::size_t firmwareBytes() const override { return 10000; }
    };

    Simulator sim;
    Soc chip(sim, skylakeConfig());
    FatGovernor fat;
    EXPECT_DEATH(chip.pmu().setGovernor(&fat), "");
}

TEST(Soc, BootsAtHighPointWithBudget)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    EXPECT_EQ(chip.currentOpPoint().dramBin, 0u);
    EXPECT_GT(chip.computeBudget(), 0.0);
    EXPECT_LT(chip.computeBudget(), chip.config().tdp);
}

TEST(Soc, IsoDemandTracksPeripherals)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    EXPECT_DOUBLE_EQ(chip.isoBandwidthDemand(), 0.0);
    chip.display().attachPanel(0, io::PanelConfig{});
    EXPECT_GT(chip.isoBandwidthDemand(), 3e9);
}

TEST(Soc, IdleRunConsumesIdlePower)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    const RunMetrics m = chip.run(100 * kTicksPerMs);
    EXPECT_GT(m.avgPower, 0.0);
    EXPECT_LT(m.avgPower, chip.config().tdp);
    EXPECT_DOUBLE_EQ(m.instructions, 0.0);
}

TEST(Soc, RunWithWorkloadRetiresInstructions)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    workloads::ProfileAgent agent(workloads::spinMicro());
    chip.setWorkload(&agent);
    const RunMetrics m = chip.run(200 * kTicksPerMs);
    EXPECT_GT(m.instructions, 1e8);
    EXPECT_GT(m.avgCoreFreq, 1.0 * kGHz);
}

/**
 * A DVFS flow longer than one step's stall cap must carry its
 * remainder into subsequent steps: the total stall charged equals
 * the flow latency exactly, instead of silently dropping everything
 * beyond kMaxStallFraction of a single step.
 */
TEST(Soc, StallCarryOverConservesFlowLatency)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    const Tick step = chip.config().stepInterval;
    const Tick cap = static_cast<Tick>(
        Soc::kMaxStallFraction * static_cast<double>(step));

    // 2.5 steps of flow latency: needs three steps to drain.
    const Tick latency = 2 * step + step / 2;
    ASSERT_GT(latency, cap);
    chip.noteTransition(chip.opPoints().high(), latency);
    EXPECT_EQ(chip.pendingStallTicks(), latency);

    Tick remaining = latency;
    while (remaining > 0) {
        chip.run(step); // exactly one model step
        remaining -= std::min(remaining, cap);
        EXPECT_EQ(chip.pendingStallTicks(), remaining);
    }
    // Fully drained; later steps charge nothing extra.
    chip.run(step);
    EXPECT_EQ(chip.pendingStallTicks(), 0u);
}

/** Long flows actually cost execution time now that stall carries. */
TEST(Soc, LongFlowsSlowRetirementMoreThanShortFlows)
{
    const Tick step = skylakeConfig().stepInterval;
    auto instructions_with_flow_latency = [step](Tick latency) {
        Simulator sim;
        Soc chip(sim, skylakeConfig());
        workloads::ProfileAgent agent(workloads::spinMicro());
        chip.setWorkload(&agent);
        chip.run(10 * kTicksPerMs);
        chip.noteTransition(chip.opPoints().high(), latency);
        // Five steps: the long flow stalls ~3 of them, the short
        // flow only half of one.
        return chip.run(5 * step).instructions;
    };

    const double short_flow =
        instructions_with_flow_latency(step / 2);
    const double long_flow =
        instructions_with_flow_latency(3 * step);
    // Pre-fix, everything beyond 0.9 steps was dropped and the two
    // retired nearly identically; now the long flow costs ~3x.
    EXPECT_LT(long_flow, short_flow * 0.85);
}

TEST(Soc, SetTdpRebasesBudgetAndDutyCycle)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig(7.0));
    const Watt budget_hi = chip.computeBudget();
    chip.setTdp(3.5);
    EXPECT_DOUBLE_EQ(chip.config().tdp, 3.5);
    EXPECT_DOUBLE_EQ(chip.pbm().tdp(), 3.5);
    EXPECT_LT(chip.computeBudget(), budget_hi);
    chip.setTdp(7.0);
    EXPECT_DOUBLE_EQ(chip.computeBudget(), budget_hi);
}

TEST(Soc, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        Simulator sim(7);
        Soc chip(sim, skylakeConfig());
        chip.display().attachPanel(0, io::PanelConfig{});
        workloads::ProfileAgent agent(workloads::streamMicro());
        chip.setWorkload(&agent);
        core::SysScaleGovernor gov;
        chip.pmu().setGovernor(&gov);
        return chip.run(300 * kTicksPerMs);
    };

    const RunMetrics a = run_once();
    const RunMetrics b = run_once();
    EXPECT_DOUBLE_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.energy, b.energy);
    EXPECT_EQ(a.transitions, b.transitions);
}

TEST(Soc, PowerStaysWithinTdpEnvelope)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(workloads::streamMicro());
    chip.setWorkload(&agent);
    core::FixedGovernor gov;
    chip.pmu().setGovernor(&gov);
    chip.run(500 * kTicksPerMs); // let the reactive cap converge
    const RunMetrics m = chip.run(500 * kTicksPerMs);
    // Average power respects TDP plus the unmanaged platform floor.
    EXPECT_LT(m.avgPower,
              chip.config().tdp + chip.config().platformFloor);
}

class TdpSweep : public ::testing::TestWithParam<double>
{};

TEST_P(TdpSweep, ComputeBudgetGrowsWithTdp)
{
    Simulator sim;
    Soc chip(sim, skylakeConfig(GetParam()));
    EXPECT_GT(chip.computeBudget(), 0.0);

    Simulator sim_hi;
    Soc chip_hi(sim_hi, skylakeConfig(GetParam() + 1.0));
    EXPECT_GT(chip_hi.computeBudget(), chip.computeBudget());
}

INSTANTIATE_TEST_SUITE_P(Tdps, TdpSweep,
                         ::testing::Values(3.5, 4.5, 7.0, 15.0));

} // namespace
} // namespace soc
} // namespace sysscale
