/**
 * @file
 * Skip-ahead equivalence battery.
 *
 * The constant-step replay path (Soc skip-ahead) is a pure
 * performance optimization: every observable output — CSV/JSON
 * reports, run metrics, counter snapshots, scripted-mutation timing —
 * must be byte-identical with the optimization on and off. These
 * tests pin that contract on the paper-shaped workloads where
 * skip-ahead actually engages (the Fig. 9 battery-life suite, whose
 * profiles are 60-90% idle) plus a mid-idle ScenarioScript mutation,
 * and assert the fast path really ran (replayedStepCount() > 0) so a
 * regression that silently disables it cannot pass as "equivalent".
 * Reports round their figures, so the battery also compares the bit
 * pattern of every stat in an end-of-run snapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "compute/cstates.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "io/display.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/profile.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

/** Scoped override of the process-wide skip-ahead default. */
class SkipAheadGuard
{
  public:
    explicit SkipAheadGuard(bool on)
        : prev_(soc::Soc::skipAheadDefault())
    {
        soc::Soc::setSkipAheadDefault(on);
    }

    ~SkipAheadGuard() { soc::Soc::setSkipAheadDefault(prev_); }

  private:
    bool prev_;
};

/**
 * Run @p specs serially through exp::runCell() and render the full
 * result set exactly as sweep_grid would: CSV then JSON. Any byte of
 * divergence between two calls fails the comparison. hostSeconds is
 * host wall-clock — the one field that legitimately changes with the
 * optimization (that is the point of it) — so it is zeroed out.
 */
std::string
renderCells(const std::vector<exp::ExperimentSpec> &specs)
{
    std::vector<exp::RunResult> results;
    for (const auto &spec : specs) {
        results.push_back(exp::runCell(spec));
        EXPECT_TRUE(results.back().ok) << results.back().error;
        results.back().hostSeconds = 0.0;
    }
    std::ostringstream os;
    exp::writeCsv(os, results);
    exp::writeJson(os, results);
    return os.str();
}

/** Fig. 9-class cells: battery suite x {fixed, sysscale}. */
std::vector<exp::ExperimentSpec>
fig9Cells()
{
    std::vector<exp::ExperimentSpec> specs;
    for (const auto &w : workloads::batterySuite()) {
        for (const char *gov : {"fixed", "sysscale"}) {
            exp::ExperimentSpec spec;
            spec.id = w.name() + "/" + gov;
            spec.workload = w;
            spec.governor = gov;
            spec.camera = w.name() == "video-conferencing";
            spec.warmup = 50 * kTicksPerMs;
            spec.window = 250 * kTicksPerMs;
            spec.labels = {{"workload", w.name()},
                           {"governor", gov}};
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

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

/** Fresh per-test directory under the system tmp. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("sysscale-skip-test-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

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

/**
 * The "stats.*" lines of a snapshot text, key -> 16-hex bit pattern:
 * every stat in the hierarchy, compared bit for bit.
 */
std::map<std::string, std::string>
statLines(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t eq = line.find(" = ");
        if (line.compare(0, 6, "stats.") == 0 && eq != std::string::npos)
            out[line.substr(0, eq)] = line.substr(eq + 3);
    }
    return out;
}

/** The value of @p key in a snapshot text ("" when absent). */
std::string
snapshotField(const std::string &text, const std::string &key)
{
    const std::string needle = "\n" + key + " = ";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + needle.size();
    return text.substr(from, text.find('\n', from) - from);
}

/** The double a snapshot text stores as @p key's bit pattern. */
double
statValue(const std::string &text, const std::string &key)
{
    const std::uint64_t u =
        std::strtoull(snapshotField(text, key).c_str(), nullptr, 16);
    double d = 0.0;
    std::memcpy(&d, &u, sizeof(d));
    return d;
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

/** Key-by-key comparison, so a failure names the diverging stat. */
void
expectSameStats(const std::map<std::string, std::string> &a,
                const std::map<std::string, std::string> &b,
                const std::string &what)
{
    EXPECT_EQ(a.size(), b.size()) << what;
    for (const auto &[key, value] : a) {
        const auto it = b.find(key);
        if (it == b.end()) {
            ADD_FAILURE() << what << ": " << key << " missing";
            continue;
        }
        EXPECT_EQ(value, it->second) << what << ": " << key;
    }
}

/** One cell of @p w under @p scenario (sysscale, camera when asked). */
exp::ExperimentSpec
scenarioCell(const workloads::WorkloadProfile &w,
             const std::string &scenario, Tick window)
{
    exp::ExperimentSpec spec;
    spec.id = w.name() + "/" + scenario;
    spec.workload = w;
    spec.scenario = workloads::scenarioByName(scenario);
    spec.governor = "sysscale";
    spec.warmup = 50 * kTicksPerMs;
    spec.window = window;
    return spec;
}

} // anonymous namespace

TEST(SkipAhead, Fig9BatteryCellsByteIdentical)
{
    std::string on, off;
    {
        SkipAheadGuard guard(true);
        on = renderCells(fig9Cells());
    }
    {
        SkipAheadGuard guard(false);
        off = renderCells(fig9Cells());
    }
    EXPECT_EQ(on, off);
}

TEST(SkipAhead, VideoconfScenarioByteIdentical)
{
    // The registered "videoconf" scenario: call layer + camera/display
    // actions on top of a base workload — exercises skip-ahead
    // invalidation across CompositeAgent arrivals and scripted SoC
    // mutations.
    std::vector<exp::ExperimentSpec> specs;
    exp::ExperimentSpec spec;
    spec.id = "web-browsing/videoconf";
    spec.workload = workloads::webBrowsing();
    spec.scenario = workloads::scenarioByName("videoconf");
    spec.governor = "sysscale";
    spec.warmup = 50 * kTicksPerMs;
    spec.window = 400 * kTicksPerMs;
    specs.push_back(std::move(spec));

    std::string on, off;
    {
        SkipAheadGuard guard(true);
        on = renderCells(specs);
    }
    {
        SkipAheadGuard guard(false);
        off = renderCells(specs);
    }
    EXPECT_EQ(on, off);
}

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

TEST(SkipAhead, MetricsBitIdenticalAcrossModes)
{
    // Direct-run variant of the report comparison: every RunMetrics
    // field the reports derive from must be bitwise equal.
    auto measure = [](bool skip) {
        Simulator sim(1);
        soc::Soc chip(sim, soc::skylakeConfig());
        chip.display().attachPanel(
            0, io::PanelConfig{io::PanelResolution::HD, 60.0, 4});
        workloads::ProfileAgent agent(workloads::videoPlayback());
        chip.setWorkload(&agent);
        chip.setSkipAhead(skip);
        chip.run(100 * kTicksPerMs);
        return chip.run(300 * kTicksPerMs);
    };

    const soc::RunMetrics on = measure(true);
    const soc::RunMetrics off = measure(false);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_EQ(on.frames, off.frames);
    EXPECT_EQ(on.avgPower, off.avgPower);
    EXPECT_EQ(on.energy, off.energy);
    EXPECT_EQ(on.avgMemLatencyNs, off.avgMemLatencyNs);
    EXPECT_EQ(on.avgMemBandwidth, off.avgMemBandwidth);
    for (power::Rail r : power::kAllRails)
        EXPECT_EQ(on.railEnergy[power::railIndex(r)],
                  off.railEnergy[power::railIndex(r)]);
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

TEST(SkipAhead, EveryStatBitIdenticalAcrossModes)
{
    // Reports print rounded figures, so a replay that accounts DRAM
    // traffic over the wrong interval can leave every CSV/JSON byte
    // alone. This compares the bit pattern of every stat in an
    // end-of-run snapshot instead: only soc.replayed_steps may
    // differ. Fig. 9 cells, a videoconf cell (camera, a mid-run layer
    // and two TDP steps), an app-switch cell (the demand stream
    // handed between apps at 1 s) and a SPEC cell.
    std::vector<exp::ExperimentSpec> cells = fig9Cells();
    cells.push_back(scenarioCell(workloads::webBrowsing(), "videoconf",
                                 900 * kTicksPerMs));
    cells.push_back(scenarioCell(workloads::videoPlayback(),
                                 "app-switch", 1150 * kTicksPerMs));
    exp::ExperimentSpec spec_cell;
    spec_cell.id = "416.gamess/sysscale";
    spec_cell.workload = workloads::specBenchmark("416.gamess");
    spec_cell.governor = "sysscale";
    spec_cell.warmup = 50 * kTicksPerMs;
    spec_cell.window = 300 * kTicksPerMs;
    cells.push_back(spec_cell);

    const TempDir dir("stat-bits");
    const std::string replayed = "stats.soc.replayed_steps.value";
    for (const exp::ExperimentSpec &spec : cells) {
        std::map<std::string, std::string> on, off;
        {
            SkipAheadGuard guard(true);
            on = statLines(sliceSnapshot(spec, {}, dir.path() + "/on"));
        }
        {
            SkipAheadGuard guard(false);
            off = statLines(sliceSnapshot(spec, {}, dir.path() + "/off"));
        }
        ASSERT_EQ(on.count(replayed), 1u) << spec.id;
        // The premise: the fast path ran in every cell compared.
        EXPECT_NE(on[replayed], off[replayed]) << spec.id;
        on.erase(replayed);
        off.erase(replayed);
        expectSameStats(on, off, spec.id);
    }
}

TEST(SkipAhead, RestoreIntoReplayRederivesTheCommitRecord)
{
    // The commit record a replay applies is not snapshotted. Cut the
    // cell on the step right after a plan capture, so the first step
    // after the restore replays from a record re-derived out of the
    // restored plan, and compare every stat bit of the end-of-run
    // snapshot against the run-through.
    SkipAheadGuard guard(true);
    const exp::ExperimentSpec spec = fig9Cells()[1]; // web-browsing
    const Tick total = spec.warmup + spec.window;
    const Tick step = spec.soc.stepInterval;
    const TempDir dir("restore-record");

    // Find the cut: the last step before it captured a valid plan
    // (and nothing replayed since), and the next step replays. Slow
    // steps are rare in this cell, so each is found by bisecting the
    // slow-step count (steps - replayed) over the step grid.
    const std::string probe_path = dir.path() + "/probe";
    auto probeAt = [&](Tick t) {
        exp::SliceOptions probe;
        probe.t1 = t;
        return sliceSnapshot(spec, probe, probe_path);
    };
    auto slowSteps = [](const std::string &text) {
        return statValue(text, "stats.soc.steps.value") -
               statValue(text, "stats.soc.replayed_steps.value");
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
        if (snapshotField(at, "objects.soc.plan_just_captured") == "1" &&
            snapshotField(at, "objects.soc.plan.valid") == "1" &&
            slowSteps(probeAt(hi + step)) == slowSteps(at)) {
            cut = hi;
        }
        from = hi;
        slow_from = slowSteps(at);
    }
    ASSERT_NE(cut, 0u) << "no capture followed by a replay";

    const std::map<std::string, std::string> through =
        statLines(sliceSnapshot(spec, {}, dir.path() + "/through"));

    exp::SliceOptions first;
    first.t1 = cut;
    sliceSnapshot(spec, first, dir.path() + "/cut");
    exp::SliceOptions second;
    second.t0 = cut;
    second.inSnap = dir.path() + "/cut";
    const std::map<std::string, std::string> resumed =
        statLines(sliceSnapshot(spec, second, dir.path() + "/resumed"));

    expectSameStats(through, resumed, "restored at " + std::to_string(cut));
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
    exp::RunCellOptions opts;
    opts.traceDir = dir.path();
    const SkipAheadGuard guard(true);
    const exp::RunResult res = exp::runCell(spec, opts);
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
