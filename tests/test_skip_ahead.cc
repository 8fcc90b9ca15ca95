/**
 * @file
 * Skip-ahead tests: the constant-step replay path (Soc skip-ahead)
 * engages on idle-heavy runs, stays frozen when disabled, fires
 * scripted mutations at their exact tick, survives checkpoint cuts
 * inside a replay batch or right after a plan capture, and replays a
 * power-capped throttle's limit cycle from its ring of plans. That
 * every output and every stat bit is identical with the fast path on
 * and off is pinned over a whole corpus by the skip-ahead-off mode
 * of tests/test_contracts.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "compute/cstates.hh"
#include "exp/experiment.hh"
#include "exp/spec_codec.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"
#include "tests/test_util.hh"
#include "workloads/battery.hh"
#include "workloads/profile.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"

using namespace sysscale;
using test::SkipAheadGuard;
using test::snapshotField;
using test::statLines;
using test::statValue;
using test::TempDir;

namespace {

/** A mostly-idle single-phase profile (standby-like). */
workloads::WorkloadProfile
standbyProfile()
{
    workloads::Phase p;
    p.duration = kTicksPerSec;
    p.work.cpiBase = 1.0;
    p.residency = compute::CStateResidency({0.05, 0.0, 0.0, 0.0, 0.95});
    p.coreFreqRequest = workloads::kBatteryCoreFreq;
    return workloads::WorkloadProfile("standby", workloads::WorkloadClass::Micro,
                                      {p});
}

/** A standby cell long enough for replay batches to form. */
exp::ExperimentSpec
standbySpec()
{
    exp::ExperimentSpec spec;
    spec.id = "standby/checkpoint";
    spec.workload = standbyProfile();
    spec.governor = "sysscale";
    spec.warmup = 10 * kTicksPerMs;
    spec.window = 120 * kTicksPerMs;
    return spec;
}

/**
 * The TDP-bound cell of BM_ThrottleWalkRun: 470.lbm under the fixed
 * governor, 200 ms. The reactive throttle walks between a few P-state
 * grant sets, and each switch moves the memory latency.
 */
exp::ExperimentSpec
throttleWalkSpec()
{
    exp::ExperimentSpec spec;
    spec.id = "470.lbm/fixed";
    spec.workload = workloads::specBenchmark("470.lbm");
    spec.governor = "fixed";
    spec.warmup = 50 * kTicksPerMs;
    spec.window = 150 * kTicksPerMs;
    return spec;
}

/** Steps a snapshot text counts that did not replay. */
double
slowSteps(const std::string &snapshot)
{
    return statValue(snapshot, "stats.soc.steps.value") -
           statValue(snapshot, "stats.soc.replayed_steps.value");
}

/**
 * The replayed_steps scalar from a RunResult stats dump
 * ("<path>.replayed_steps <value> # desc"). -1 when absent.
 */
double
replayedFromDump(const std::string &dump)
{
    const std::string needle = ".replayed_steps ";
    const std::size_t at = dump.find(needle);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(dump.c_str() + at + needle.size(), nullptr);
}

/** Run @p opts' slice of @p spec and return the snapshot it wrote. */
std::string
sliceSnapshot(const exp::ExperimentSpec &spec, exp::SliceOptions opts,
              const std::string &path)
{
    opts.outSnap = path;
    const exp::RunResult r = exp::runCellSlice(spec, opts);
    EXPECT_TRUE(r.ok) << r.error;
    return readSnapshotFile(path);
}

} // anonymous namespace

TEST(SkipAhead, FastPathEngagesOnIdleHeavyRuns)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    workloads::ProfileAgent agent(standbyProfile());
    chip.setWorkload(&agent);
    chip.setSkipAhead(true);

    chip.run(200 * kTicksPerMs);
    EXPECT_GT(chip.replayedStepCount(), 0u);

    // Disabled: the replay counter must stay frozen.
    const std::uint64_t replayed = chip.replayedStepCount();
    chip.setSkipAhead(false);
    chip.run(100 * kTicksPerMs);
    EXPECT_EQ(chip.replayedStepCount(), replayed);
}

TEST(SkipAhead, MidIdleTdpStepFiresAtExactTick)
{
    // A TDP step scheduled mid-standby, off the step grid: the script
    // event must fire at exactly its tick in both modes, with the
    // same observable SoC state before and after.
    const Tick at = 100 * kTicksPerMs + 37;

    for (const bool skip : {true, false}) {
        Simulator sim(1);
        soc::Soc chip(sim, soc::skylakeConfig(4.5));
        workloads::ProfileAgent agent(standbyProfile());
        chip.setWorkload(&agent);
        chip.setSkipAhead(skip);

        workloads::ScenarioScript script(
            sim, chip,
            {{at, workloads::ScenarioActionKind::SetTdp, 3.0}});

        chip.run(at - 1); // one tick short of the action
        EXPECT_EQ(sim.now(), at - 1) << "skip=" << skip;
        EXPECT_EQ(script.applied(), 0u) << "skip=" << skip;
        EXPECT_DOUBLE_EQ(chip.config().tdp, 4.5) << "skip=" << skip;

        chip.run(1); // lands exactly on the action tick
        EXPECT_EQ(sim.now(), at) << "skip=" << skip;
        EXPECT_EQ(script.applied(), 1u) << "skip=" << skip;
        EXPECT_DOUBLE_EQ(chip.config().tdp, 3.0) << "skip=" << skip;

        if (skip) { // the idle lead-in must have used the fast path
            EXPECT_GT(chip.replayedStepCount(), 0u);
        }
    }
}

TEST(SkipAhead, SaveInsideReplayBatchMatchesRunThrough)
{
    // Checkpoint a 95%-idle cell at an off-grid tick chosen to land
    // inside a replay batch: the save must force the StepPlan to
    // re-frame around the cut without perturbing anything observable.
    // Metrics, counters, and the full stats dump (which includes
    // replayed_steps itself) must match the uninterrupted run.
    SkipAheadGuard guard(true);
    const exp::ExperimentSpec spec = standbySpec();
    const Tick total = spec.warmup + spec.window;
    const Tick k = 70 * kTicksPerMs + 37;
    ASSERT_LT(k, total);

    const exp::RunResult a = exp::runCell(spec);
    ASSERT_TRUE(a.ok) << a.error;
    // The premise: replay batches actually form in this cell, so the
    // cut at k genuinely lands inside one.
    ASSERT_GT(replayedFromDump(a.statsDump), 0.0);

    const TempDir dir("replay-batch");
    const std::string snap = dir.path() + "/standby.t70.snap";
    exp::SliceOptions first;
    first.t1 = k;
    first.outSnap = snap;
    const exp::RunResult mid = exp::runCellSlice(spec, first);
    ASSERT_TRUE(mid.ok) << mid.error;

    exp::SliceOptions second;
    second.t0 = k;
    second.inSnap = snap;
    const exp::RunResult b = exp::runCellSlice(spec, second);
    ASSERT_TRUE(b.ok) << b.error;

    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
    EXPECT_EQ(a.metrics.energy, b.metrics.energy);
    EXPECT_EQ(a.metrics.avgPower, b.metrics.avgPower);
    EXPECT_EQ(a.metrics.stallTicks, b.metrics.stallTicks);
    for (power::Rail r : power::kAllRails)
        EXPECT_EQ(a.metrics.railEnergy[power::railIndex(r)],
                  b.metrics.railEnergy[power::railIndex(r)]);
    for (std::size_t i = 0; i < a.counters.values.size(); ++i)
        EXPECT_EQ(a.counters.values[i], b.counters.values[i]) << i;
    EXPECT_EQ(a.statsDump, b.statsDump);
}

TEST(SkipAhead, RestoreThenReplayReengagesFastPath)
{
    // StepPlan survival, stated directly on the replay counter: the
    // snapshot taken at k already carries replayed steps (the save
    // happened after batches formed), and the restored cell keeps
    // replaying — the final count is strictly larger than the saved
    // one, and byte-identical to the uninterrupted run's.
    SkipAheadGuard guard(true);
    const exp::ExperimentSpec spec = standbySpec();
    const Tick k = 70 * kTicksPerMs + 37;

    const TempDir dir("restore-replay");
    const std::string snap = dir.path() + "/standby.t70.snap";
    exp::SliceOptions first;
    first.t1 = k;
    first.outSnap = snap;
    ASSERT_TRUE(exp::runCellSlice(spec, first).ok);

    const double atSave = statValue(readSnapshotFile(snap),
                                    "stats.soc.replayed_steps.value");
    EXPECT_GT(atSave, 0.0)
        << "checkpoint must land after replay engaged";

    exp::SliceOptions second;
    second.t0 = k;
    second.inSnap = snap;
    const exp::RunResult b = exp::runCellSlice(spec, second);
    ASSERT_TRUE(b.ok) << b.error;

    const double atEnd = replayedFromDump(b.statsDump);
    EXPECT_GT(atEnd, atSave)
        << "restored cell must re-enter the replay fast path";

    const exp::RunResult a = exp::runCell(spec);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(replayedFromDump(a.statsDump), atEnd);
}

TEST(SkipAhead, RestoreIntoReplayRederivesTheCommitRecord)
{
    // The commit record a replay applies is not snapshotted. Cut the
    // cell on the step right after a plan capture, so the first step
    // after the restore replays from a record re-derived out of the
    // restored plan, and compare every stat bit of the end-of-run
    // snapshot against the run-through.
    SkipAheadGuard guard(true);
    exp::ExperimentSpec spec; // The Fig. 9 web-browsing cell.
    spec.workload = workloads::webBrowsing();
    spec.governor = "sysscale";
    spec.warmup = 50 * kTicksPerMs;
    spec.window = 250 * kTicksPerMs;
    const Tick total = spec.warmup + spec.window;
    const Tick step = spec.soc.stepInterval;
    const TempDir dir("restore-record");

    // Find the cut: the last step before it was a slow step, whose
    // capture is a valid plan, and the next step replays. Slow
    // steps are rare in this cell, so each is found by bisecting the
    // slow-step count (steps - replayed) over the step grid.
    const std::string probe_path = dir.path() + "/probe";
    auto probeAt = [&](Tick t) {
        exp::SliceOptions probe;
        probe.t1 = t;
        return sliceSnapshot(spec, probe, probe_path);
    };
    Tick cut = 0;
    Tick from = spec.warmup + 37; // off the step grid
    double slow_from = slowSteps(probeAt(from));
    while (cut == 0 && from + 2 * step < total) {
        // The first grid tick after `from` with one more slow step.
        Tick lo = from, hi = from + (total - from - step) / step * step;
        if (slowSteps(probeAt(hi)) == slow_from)
            break;
        while (hi - lo > step) {
            const Tick mid = lo + (hi - lo) / step / 2 * step;
            (slowSteps(probeAt(mid)) == slow_from ? lo : hi) = mid;
        }
        const std::string at = probeAt(hi);
        if (snapshotField(at, "objects.soc.plan0.valid") == "1" &&
            slowSteps(probeAt(hi + step)) == slowSteps(at)) {
            cut = hi;
        }
        from = hi;
        slow_from = slowSteps(at);
    }
    ASSERT_NE(cut, 0u) << "no capture followed by a replay";

    const test::Fields through =
        statLines(sliceSnapshot(spec, {}, dir.path() + "/through"));

    exp::SliceOptions first;
    first.t1 = cut;
    sliceSnapshot(spec, first, dir.path() + "/cut");
    exp::SliceOptions second;
    second.t0 = cut;
    second.inSnap = dir.path() + "/cut";
    const test::Fields resumed =
        statLines(sliceSnapshot(spec, second, dir.path() + "/resumed"));

    EXPECT_EQ(test::firstDifference(through, resumed), "")
        << "restored at " << cut;
}

TEST(SkipAhead, RingReplaysTheThrottleLimitCycle)
{
    // Under the power cap the throttle dithers between neighbouring
    // CPU P-states, and each switch moves the memory latency. A single
    // plan would pay slow steps at every switch (687 of these 2,000);
    // the ring replays the switches and the steady runs between them.
    // Each replay sets the P-states the slow step would, so every stat
    // but the replay count equals the skip-ahead-off run.
    const exp::ExperimentSpec spec = throttleWalkSpec();
    const TempDir dir("limit-cycle");
    std::string on, off;
    {
        const SkipAheadGuard guard(true);
        on = sliceSnapshot(spec, {}, dir.path() + "/on");
    }
    {
        const SkipAheadGuard guard(false);
        off = sliceSnapshot(spec, {}, dir.path() + "/off");
    }
    EXPECT_EQ(statValue(on, "stats.soc.steps.value"), 2000.0);
    EXPECT_EQ(slowSteps(on), 93.0);
    EXPECT_EQ(slowSteps(off), 2000.0);

    test::Fields want = statLines(off);
    test::Fields got = statLines(on);
    want.erase("stats.soc.replayed_steps.value");
    got.erase("stats.soc.replayed_steps.value");
    EXPECT_EQ(test::firstDifference(want, got), "");
}

TEST(SkipAhead, RestoreCarriesTheRing)
{
    // Cut the throttle-walk cell where the ring holds two or more
    // plans, one of them a switch whose capture moved the memory
    // latency, and resume in a fresh Soc. A restore that dropped a plan
    // would slow a step the run-through replays, so every stat bit
    // must match the run-through, the replay count included.
    const SkipAheadGuard guard(true);
    const exp::ExperimentSpec spec = throttleWalkSpec();
    const Tick total = spec.warmup + spec.window;
    const Tick step = spec.soc.stepInterval;
    const TempDir dir("restore-ring");

    auto latencyMoving = [](const std::string &snap) {
        for (std::size_t i = 0; i < soc::Soc::kPlanRingSize; ++i) {
            const std::string plan =
                "objects.soc.plan" + std::to_string(i) + ".";
            if (snapshotField(snap, plan + "valid") == "1" &&
                snapshotField(snap, plan + "latency_in_ns") !=
                    snapshotField(snap, plan + "latency_out_ns"))
                return true;
        }
        return false;
    };
    Tick cut = 0;
    for (Tick t = 100 * kTicksPerMs + 37; cut == 0 && t < total;
         t += 7 * step) {
        exp::SliceOptions probe;
        probe.t1 = t;
        const std::string snap =
            sliceSnapshot(spec, probe, dir.path() + "/probe");
        if (snapshotField(snap, "objects.soc.plan1.valid") == "1" &&
            latencyMoving(snap))
            cut = t;
    }
    ASSERT_NE(cut, 0u) << "no cut with a latency-moving plan";

    const test::Fields through =
        statLines(sliceSnapshot(spec, {}, dir.path() + "/through"));
    exp::SliceOptions first;
    first.t1 = cut;
    sliceSnapshot(spec, first, dir.path() + "/cut");
    exp::SliceOptions second;
    second.t0 = cut;
    second.inSnap = dir.path() + "/cut";
    const test::Fields resumed =
        statLines(sliceSnapshot(spec, second, dir.path() + "/resumed"));
    EXPECT_EQ(test::firstDifference(through, resumed), "")
        << "restored at " << cut;
}

TEST(SkipAhead, ToggleEmptiesTheRing)
{
    // setSkipAhead() empties the ring either way, so the first step
    // after turning the fast path off and on again runs slow.
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    workloads::ProfileAgent agent(standbyProfile());
    chip.setWorkload(&agent);
    chip.setSkipAhead(true);
    chip.run(50 * kTicksPerMs);
    ASSERT_GT(chip.replayedStepCount(), 0u);

    chip.setSkipAhead(false);
    chip.setSkipAhead(true);
    const std::uint64_t replayed = chip.replayedStepCount();
    chip.run(chip.config().stepInterval);
    EXPECT_EQ(chip.replayedStepCount(), replayed)
        << "a plan outlived the toggle";
    chip.run(20 * kTicksPerMs);
    EXPECT_GT(chip.replayedStepCount(), replayed);
}

TEST(SkipAhead, BatchesCrossSampleTicks)
{
    // The Fig. 9 web-browsing cell under the fixed governor. Counter
    // sampling is a step phase, so a replay batch runs across the
    // 1 ms sample ticks and ends only at an evaluation, a demand
    // horizon, a scenario action or the run limit. A sample that is
    // an event again cuts every batch at most 10 steps long and
    // yields thousands of spans (6,379 when it was one).
    exp::ExperimentSpec spec;
    spec.id = "web-browsing/fixed";
    spec.workload = workloads::webBrowsing();
    spec.governor = "fixed";
    spec.hdPanel = true;
    spec.warmup = 200 * kTicksPerMs;
    spec.window = 3 * kTicksPerSec;

    const TempDir dir("batches");
    exp::SliceOptions opts;
    opts.traceDir = dir.path();
    const SkipAheadGuard guard(true);
    const exp::RunResult res = exp::runCellSlice(spec, opts);
    ASSERT_TRUE(res.ok) << res.error;

    std::ifstream is(dir.path() + "/" + exp::specKey(spec) +
                     ".trace.json");
    ASSERT_TRUE(is.good());
    std::size_t spans = 0;
    std::uint64_t longest = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"name\":\"replay_batch\"") == std::string::npos)
            continue;
        ++spans;
        const std::string marker = "\"steps\":";
        const std::size_t at = line.find(marker);
        ASSERT_NE(at, std::string::npos);
        longest = std::max<std::uint64_t>(
            longest, std::strtoull(line.c_str() + at + marker.size(),
                                   nullptr, 10));
    }
    EXPECT_GT(spans, 0u);
    EXPECT_LT(spans, 400u);
    EXPECT_GT(longest, 10u);
}
