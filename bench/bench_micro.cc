/**
 * @file
 * Microbenchmarks (google-benchmark): costs of the kernel and model
 * hot paths, and the per-step cost of the assembled SoC.
 */

#include <benchmark/benchmark.h>

#include "core/governor.hh"
#include "core/governor_driver.hh"
#include "core/governor_registry.hh"
#include "core/governors.hh"
#include "core/threshold_trainer.hh"
#include "core/transition_flow.hh"
#include "obs/trace.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/profile.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue q;
    EventFunctionWrapper ev("ev", [] {});
    Tick t = 1;
    for (auto _ : state) {
        q.schedule(&ev, t);
        q.step();
        ++t;
    }
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_RngUniform(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void
BM_McService(benchmark::State &state)
{
    Simulator sim;
    dram::DramDevice dev(sim, nullptr, dram::lpddr3Spec());
    mem::MrcStore mrc(dram::lpddr3Spec());
    mem::MemoryController mc(sim, nullptr, dev, mrc, 0.80);
    mem::MemDemand d;
    d.cpuRead = 6e9;
    d.ioIso = 4.3e9;
    for (auto _ : state)
        benchmark::DoNotOptimize(mc.service(d, 100 * kTicksPerUs));
}
BENCHMARK(BM_McService);

void
BM_LoadedLatency(benchmark::State &state)
{
    Simulator sim;
    dram::DramDevice dev(sim, nullptr, dram::lpddr3Spec());
    mem::MrcStore mrc(dram::lpddr3Spec());
    mem::MemoryController mc(sim, nullptr, dev, mrc, 0.80);
    double rho = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mc.loadedLatencyAt(rho));
        rho = rho > 0.9 ? 0.0 : rho + 0.01;
    }
}
BENCHMARK(BM_LoadedLatency);

/**
 * The slow step's P-state hand-off: PowerBudgetManager::grant() of a
 * max-frequency request on skylakeConfig()'s 28-step core table, with
 * the budget bound at a mid-table state so every call falls through
 * to the highestUnder() scan (the common case at 4.5 W).
 */
void
BM_PStateGrant(benchmark::State &state)
{
    const soc::SocConfig cfg = soc::skylakeConfig();
    const power::PStateTable table(power::skylakeCoreCurve(),
                                   cfg.coreCdyn, cfg.coreLeakK,
                                   cfg.temperature, cfg.pstateSteps);
    const power::PowerBudgetManager pbm(cfg.tdp, cfg.pbmReserve);
    const double activity = 0.8;
    const Watt budget = table.powerAt(
        table.states()[cfg.pstateSteps / 2].freq, activity);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            &pbm.grant(table, table.max().freq, budget, activity));
    }
}
BENCHMARK(BM_PStateGrant);

void
BM_PredictorDecision(benchmark::State &state)
{
    const core::DemandPredictor pred(
        core::SysScaleGovernor::defaultThresholds(), {});
    soc::CounterSnapshot snap;
    snap[soc::Counter::LlcStalls] = 1e5;
    for (auto _ : state)
        benchmark::DoNotOptimize(pred.demandsHighPoint(snap, 4.3e9));
}
BENCHMARK(BM_PredictorDecision);

void
BM_ThresholdTraining(benchmark::State &state)
{
    Rng rng(3);
    std::vector<core::TrainingSample> corpus(1000);
    for (auto &s : corpus) {
        s.counters[soc::Counter::LlcStalls] = rng.uniform(0, 2e6);
        s.counters[soc::Counter::LlcOccupancyTracer] =
            rng.uniform(0, 20);
        s.normPerf = rng.uniform(0.85, 1.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::ThresholdTrainer::train(corpus, 0.01));
    }
}
BENCHMARK(BM_ThresholdTraining);

void
BM_TransitionFlow(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::TransitionFlow flow(chip);
    bool low = true;
    for (auto _ : state) {
        flow.execute(low ? chip.opPoints().low()
                         : chip.opPoints().high());
        low = !low;
    }
}
BENCHMARK(BM_TransitionFlow);

void
BM_SocStep(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(
        workloads::specBenchmark("470.lbm"));
    chip.setWorkload(&agent);
    chip.run(kTicksPerMs);
    for (auto _ : state)
        chip.run(100 * kTicksPerUs); // one model step
}
BENCHMARK(BM_SocStep);

/**
 * BM_SocStep with a live TraceSink installed: the same model step
 * plus event capture (spans, change-filtered counters) into the
 * bounded in-memory buffer. The strict perf ledger holds the gap to
 * the untraced variant — tracing is supposed to be cheap enough to
 * leave on for any diagnostic run.
 */
void
BM_SocStepTraced(benchmark::State &state)
{
    Simulator sim;
    obs::TraceSink sink;
    sim.setTraceSink(&sink);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(
        workloads::specBenchmark("470.lbm"));
    chip.setWorkload(&agent);
    chip.run(kTicksPerMs);
    for (auto _ : state)
        chip.run(100 * kTicksPerUs); // one model step
}
BENCHMARK(BM_SocStepTraced)->Name("BM_SocStep/traced");

/**
 * Fig. 9-class idle-heavy run (video playback: C0/C2/C8 = 10/5/85)
 * with the constant-step replay path toggled by the benchmark arg
 * (0 = off, 1 = on). The strict perf ledger requires the enabled
 * variant to hold a >= 3x wall-clock advantage over the disabled
 * one; each iteration simulates 10ms. Items are simulated steps, so
 * items_per_second gives the cost of one (mostly replayed) step.
 */
void
BM_Fig9IdleRun(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(workloads::videoPlayback());
    chip.setWorkload(&agent);
    chip.setSkipAhead(state.range(0) != 0);
    chip.run(kTicksPerMs);
    const Tick span = 10 * kTicksPerMs;
    for (auto _ : state)
        chip.run(span);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(span / chip.config().stepInterval));
}
BENCHMARK(BM_Fig9IdleRun)->Arg(0)->Arg(1);

/**
 * One replay batch of the BM_Fig9IdleRun cell per iteration, the
 * benchmark arg steps long. The PMU evaluation is pushed past the
 * run, so the run limit is the only thing that ends a batch (the
 * counter samples still fall every 10 steps), and a 1 s warm-up
 * settles the EWMAs at their fixed point. A batch costs
 * O(accumulators), not O(steps): the time per iteration should barely
 * grow from 16 to 1024 steps.
 */
void
BM_ReplayBatch(benchmark::State &state)
{
    soc::SocConfig cfg = soc::skylakeConfig();
    cfg.evaluationInterval = 1000 * kTicksPerSec;
    Simulator sim;
    soc::Soc chip(sim, cfg);
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(workloads::videoPlayback());
    chip.setWorkload(&agent);
    chip.setSkipAhead(true);
    chip.run(kTicksPerSec);
    const Tick span =
        static_cast<Tick>(state.range(0)) * cfg.stepInterval;
    const std::uint64_t replayed = chip.replayedStepCount();
    for (auto _ : state)
        chip.run(span);
    if (chip.replayedStepCount() - replayed !=
        state.iterations() * static_cast<std::uint64_t>(state.range(0)))
        state.SkipWithError("a step left the replay path");
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_ReplayBatch)->Arg(16)->Arg(128)->Arg(1024);

/**
 * The TDP-bound 470.lbm/fixed cell with the replay path toggled by
 * the benchmark arg (0 = off, 1 = on), 100 steps per iteration after
 * a 50 ms warm-up. The reactive throttle moves on nearly every step
 * while the P-states it grants change only every few, so the replay
 * path engages only because it keys on the grants. Items are
 * simulated steps.
 */
void
BM_ThrottleWalkRun(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::kDefaultHdPanel);
    workloads::ProfileAgent agent(workloads::specBenchmark("470.lbm"));
    chip.setWorkload(&agent);
    const std::unique_ptr<core::Governor> gov =
        core::makeGovernor("fixed", {});
    chip.pmu().setGovernor(gov.get());
    chip.setSkipAhead(state.range(0) != 0);
    chip.run(50 * kTicksPerMs);
    const Tick span = 100 * chip.config().stepInterval;
    for (auto _ : state)
        chip.run(span);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            100);
}
BENCHMARK(BM_ThrottleWalkRun)->Arg(0)->Arg(1);

/**
 * Cost of one governor evaluation interval through the
 * policy/driver stack: decide() -> driver request (running the
 * transition flow when the point moves) -> budget refresh. The
 * governor is installed through Pmu::setGovernor, so decide() runs
 * on the PMU's own driver. One variant per registered governor, at
 * default parameters, so the perf ledger watches every policy in
 * the zoo.
 */
void
BM_GovernorDecide(benchmark::State &state, const std::string &name)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    const std::unique_ptr<core::Governor> gov =
        core::makeGovernor(name, {});
    chip.pmu().setGovernor(gov.get());
    core::GovernorDriver &drv = chip.pmu().driver();
    soc::CounterSnapshot avg;
    avg[soc::Counter::LlcStalls] = 1e5;
    avg[soc::Counter::LlcOccupancyTracer] = 8.0;
    avg[soc::Counter::IoRpq] = 12.0;
    for (auto _ : state)
        gov->decide(drv, chip, avg);
}

const int kGovernorDecideRegistered = [] {
    for (const auto &entry : core::governorRegistry()) {
        benchmark::RegisterBenchmark(
            ("BM_GovernorDecide/" + entry.name).c_str(),
            [name = entry.name](benchmark::State &st) {
                BM_GovernorDecide(st, name);
            });
    }
    return 0;
}();

void
BM_DisplayPanelBandwidth(benchmark::State &state)
{
    const io::PanelConfig cfg{io::PanelResolution::UHD4K, 60.0, 4};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            io::DisplayEngine::panelBandwidth(cfg));
    }
}
BENCHMARK(BM_DisplayPanelBandwidth);

} // namespace

BENCHMARK_MAIN();
