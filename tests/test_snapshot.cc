/**
 * @file
 * Snapshot layer tests: codec round trips, corruption rejection, and
 * the randomized checkpoint/restore differential battery.
 *
 * The differential suite is the layer's ground truth: for random
 * specs and random checkpoint ticks it runs each cell three ways —
 * straight through, save-at-k/restore/continue, and as a multi-slice
 * chain — and requires byte-identical RunMetrics, stats dumps, and
 * trace files. SYSSCALE_STRESS_ITERS multiplies the trial count; the
 * CI sanitizer matrix runs the same battery 100x longer than the
 * tier-1 lane. When a trial diverges, `tools/snap_inspect` diffs the
 * two snapshots down to a named field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/experiment.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/micro.hh"
#include "workloads/scenario.hh"

namespace sysscale {
namespace {

/** Trial multiplier for nightly-style stress runs (default 1x). */
std::size_t
stressIters()
{
    const char *env = std::getenv("SYSSCALE_STRESS_ITERS");
    if (!env)
        return 1;
    const long v = std::atol(env);
    return v > 0 ? static_cast<std::size_t>(v) : 1;
}

/** Fresh per-test directory under the system tmp. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("sysscale-snap-test-" + tag + "-" +
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

/** Pin the process-wide skip-ahead default for one test's scope. */
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

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Byte-identity over every RunMetrics field (NaN/-0.0 exact). */
void
expectSameMetrics(const soc::RunMetrics &a, const soc::RunMetrics &b,
                  const std::string &what)
{
    EXPECT_EQ(bits(a.seconds), bits(b.seconds)) << what << ": seconds";
    EXPECT_EQ(bits(a.instructions), bits(b.instructions))
        << what << ": instructions";
    EXPECT_EQ(bits(a.ips), bits(b.ips)) << what << ": ips";
    EXPECT_EQ(bits(a.frames), bits(b.frames)) << what << ": frames";
    EXPECT_EQ(bits(a.fps), bits(b.fps)) << what << ": fps";
    EXPECT_EQ(bits(a.avgPower), bits(b.avgPower))
        << what << ": avgPower";
    EXPECT_EQ(bits(a.energy), bits(b.energy)) << what << ": energy";
    EXPECT_EQ(bits(a.edp), bits(b.edp)) << what << ": edp";
    for (std::size_t i = 0; i < a.railEnergy.size(); ++i) {
        EXPECT_EQ(bits(a.railEnergy[i]), bits(b.railEnergy[i]))
            << what << ": railEnergy[" << i << "]";
    }
    EXPECT_EQ(bits(a.avgMemLatencyNs), bits(b.avgMemLatencyNs))
        << what << ": avgMemLatencyNs";
    EXPECT_EQ(bits(a.avgMemBandwidth), bits(b.avgMemBandwidth))
        << what << ": avgMemBandwidth";
    EXPECT_EQ(bits(a.avgCoreFreq), bits(b.avgCoreFreq))
        << what << ": avgCoreFreq";
    EXPECT_EQ(a.qosViolations, b.qosViolations)
        << what << ": qosViolations";
    EXPECT_EQ(a.transitions, b.transitions) << what << ": transitions";
    EXPECT_EQ(a.stallTicks, b.stallTicks) << what << ": stallTicks";
    EXPECT_EQ(bits(a.lowPointResidency), bits(b.lowPointResidency))
        << what << ": lowPointResidency";
}

void
expectSameCounters(const soc::CounterSnapshot &a,
                   const soc::CounterSnapshot &b,
                   const std::string &what)
{
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        EXPECT_EQ(bits(a.values[i]), bits(b.values[i]))
            << what << ": counter " << i;
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string
traceFileFor(const exp::ExperimentSpec &spec, const std::string &dir)
{
    return dir + "/" + exp::specKey(spec) + ".trace.json";
}

/** Every registered governor, plus the governor-less "collect". */
const std::vector<std::string> kGovernors = {
    "fixed",    "sysscale",     "memscale", "memscale-r",
    "coscale",  "coscale-r",    "ondemand", "conservative",
    "adaptive", "latency-budget", "userspace", "collect",
};

/**
 * Run @p spec under governor @p name. userspace gets an
 * at=<ms>@<index> schedule, so a restore that lost its evaluation
 * clock would request the wrong operating point.
 */
void
useGovernor(exp::ExperimentSpec &spec, const std::string &name)
{
    spec.governor = name;
    spec.governorParams.clear();
    if (name == "userspace")
        spec.governorParams = {{"at", "10@2"}, {"at", "20@0"}};
}

/**
 * A randomized fast cell: workload, governor, scenario, seed, and
 * measurement window all drawn from @p rng. Kept short (tens of
 * simulated milliseconds) so the stress battery stays cheap.
 */
exp::ExperimentSpec
randomSpec(std::mt19937_64 &rng)
{
    exp::ExperimentSpec spec;

    const int w = static_cast<int>(rng() % 4);
    switch (w) {
      case 0: spec.workload = workloads::streamMicro(); break;
      case 1: spec.workload = workloads::spinMicro(); break;
      case 2: spec.workload = workloads::pointerChaseMicro(); break;
      default: spec.workload = workloads::webBrowsing(); break;
    }

    useGovernor(spec, kGovernors[rng() % kGovernors.size()]);

    // Scenario actions are compressed into the short run so the
    // checkpoint can land before, between, or after them.
    if (rng() % 2 == 0) {
        workloads::Scenario s;
        s.actions.push_back(
            {4 * kTicksPerMs, workloads::ScenarioActionKind::SetTdp,
             3.5});
        s.actions.push_back(
            {18 * kTicksPerMs, workloads::ScenarioActionKind::SetTdp,
             4.5});
        if (rng() % 2 == 0) {
            s.actions.push_back(
                {9 * kTicksPerMs,
                 workloads::ScenarioActionKind::CameraOn, 0.0});
            std::sort(s.actions.begin(), s.actions.end(),
                      [](const workloads::ScenarioAction &a,
                         const workloads::ScenarioAction &b) {
                          return a.at < b.at;
                      });
        }
        spec.scenario = s;
    }

    spec.seed = 1 + rng() % 97;
    spec.warmup = (2 + rng() % 6) * kTicksPerMs;
    spec.window = (20 + rng() % 20) * kTicksPerMs;
    // Several evaluations per run, so cuts land between evaluations
    // of the governor state a restore must carry.
    spec.soc.evaluationInterval = 5 * kTicksPerMs;
    spec.id = "snap-diff";
    return spec;
}

/** Snapshot path helper. */
std::string
snapPath(const std::string &dir, const std::string &tag)
{
    return dir + "/" + tag + ".snap";
}

/** Re-stamp the checksum line after mutating a snapshot's text. */
std::string
restampChecksum(std::string text)
{
    const std::size_t pos = text.rfind("checksum = ");
    EXPECT_NE(pos, std::string::npos);
    text.resize(pos);
    const std::uint64_t sum = fnv1a64(text);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(sum));
    return text + "checksum = " + buf + "\n";
}

} // anonymous namespace

TEST(SnapshotCodec, ScalarRoundTrip)
{
    SnapshotWriter w("deadbeefdeadbeef", 42);
    w.putU64("u", 0xffffffffffffffffULL);
    w.putBool("yes", true);
    w.putBool("no", false);
    w.putDouble("pi", 3.141592653589793);
    w.putString("s", "line one\nline two\\with backslash");
    w.push("scope");
    w.putU64("inner", 7);
    w.pop();

    SnapshotReader r(w.str());
    EXPECT_EQ(r.specKey(), "deadbeefdeadbeef");
    EXPECT_EQ(r.tick(), 42u);
    EXPECT_EQ(r.getU64("u"), 0xffffffffffffffffULL);
    EXPECT_TRUE(r.getBool("yes"));
    EXPECT_FALSE(r.getBool("no"));
    EXPECT_EQ(bits(r.getDouble("pi")), bits(3.141592653589793));
    EXPECT_EQ(r.getString("s"),
              "line one\nline two\\with backslash");
    r.push("scope");
    EXPECT_EQ(r.getU64("inner"), 7u);
    r.pop();
    EXPECT_NO_THROW(r.finish());
}

TEST(SnapshotCodec, DoublesAreBitExact)
{
    const std::vector<double> specials = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -1.0 / 3.0,
    };
    SnapshotWriter w("0000000000000000", 0);
    for (std::size_t i = 0; i < specials.size(); ++i)
        w.putDouble("d" + std::to_string(i), specials[i]);
    SnapshotReader r(w.str());
    for (std::size_t i = 0; i < specials.size(); ++i) {
        EXPECT_EQ(bits(r.getDouble("d" + std::to_string(i))),
                  bits(specials[i]))
            << i;
    }
    r.finish();
}

TEST(SnapshotCodec, DuplicateKeyThrows)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 1);
    EXPECT_THROW(w.putU64("k", 2), SnapshotError);
}

TEST(SnapshotCodec, MissingAndUnconsumedKeysThrow)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("present", 1);
    SnapshotReader r(w.str());
    EXPECT_THROW((void)r.getU64("absent"), SnapshotError);
    // "present" was never consumed.
    EXPECT_THROW(r.finish(), SnapshotError);
}

TEST(SnapshotCodec, TruncationIsRejected)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 1);
    const std::string text = w.str();
    // size-2 cuts into the checksum digits; a missing final *newline*
    // alone is tolerated by design (the checksum still verifies).
    for (const std::size_t cut :
         {text.size() - 2, text.size() / 2, std::size_t{10}}) {
        EXPECT_THROW(SnapshotReader r(text.substr(0, cut)),
                     SnapshotError)
            << "cut at " << cut;
    }
}

TEST(SnapshotCodec, BitFlipIsRejected)
{
    SnapshotWriter w("0000000000000000", 7);
    w.putDouble("v", 1.25);
    w.putU64("n", 3);
    const std::string text = w.str();
    for (std::size_t i = 0; i < text.size(); i += 7) {
        std::string bad = text;
        bad[i] = static_cast<char>(bad[i] ^ 0x08);
        if (bad == text)
            continue;
        EXPECT_THROW(SnapshotReader r(bad), SnapshotError)
            << "flip at " << i;
    }
}

TEST(SnapshotCodec, StaleVersionIsRejectedLoudly)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 1);
    std::string text = w.str();
    const std::string ver =
        "sysscale-snap v" + std::to_string(kSnapFormatVersion);
    const std::size_t pos = text.find(ver);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, ver.size(), "sysscale-snap v999");
    text = restampChecksum(text);
    try {
        SnapshotReader r(text);
        FAIL() << "stale version accepted";
    } catch (const SnapshotError &e) {
        // "snapshot format v999 does not match this build's v1;
        //  stale snapshots must be re-simulated"
        EXPECT_NE(std::string(e.what()).find("stale"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFile, TmpRenameRoundTrip)
{
    const TempDir dir("file");
    const std::string path = snapPath(dir.path(), "t");
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 9);
    writeSnapshotFile(path, w.str());
    EXPECT_EQ(readSnapshotFile(path), w.str());
    // No tmp litter from the atomic-rename protocol.
    std::size_t entries = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    EXPECT_THROW((void)readSnapshotFile(dir.path() + "/absent.snap"),
                 SnapshotError);
}

TEST(SnapshotDifferential, SaveRestoreMatchesRunThrough)
{
    // Skip-ahead off: a slice cut inside a replay batch re-frames
    // the batched "replay" trace spans (docs/OBSERVABILITY.md), so
    // whole-file trace identity is pinned on the plain stepping
    // path. Metrics/stats identity under skip-ahead has its own
    // trial below and in test_skip_ahead.cc.
    const SkipAheadGuard guard(false);

    // One trial per governor.
    const std::size_t trials = kGovernors.size() * stressIters();
    std::mt19937_64 rng(0xc0ffee);
    for (std::size_t trial = 0; trial < trials; ++trial) {
        exp::ExperimentSpec spec = randomSpec(rng);
        useGovernor(spec, kGovernors[trial % kGovernors.size()]);
        const Tick total = spec.warmup + spec.window;
        const Tick k = 1 + rng() % (total - 1);
        const std::string what =
            "trial " + std::to_string(trial) + " gov " +
            spec.governor + " k=" + std::to_string(k);

        const TempDir through("through-" + std::to_string(trial));
        const TempDir sliced("sliced-" + std::to_string(trial));

        exp::RunCellOptions copts;
        copts.traceDir = through.path();
        const exp::RunResult a = exp::runCell(spec, copts);
        ASSERT_TRUE(a.ok) << what << ": " << a.error;

        const std::string snap = snapPath(sliced.path(), "k");
        exp::SliceOptions first;
        first.t1 = k;
        first.outSnap = snap;
        first.traceDir = sliced.path();
        const exp::RunResult mid = exp::runCellSlice(spec, first);
        ASSERT_TRUE(mid.ok) << what << ": " << mid.error;
        EXPECT_TRUE(mid.statsDump.empty()) << what;

        exp::SliceOptions second;
        second.t0 = k;
        second.inSnap = snap;
        second.traceDir = sliced.path();
        const exp::RunResult b = exp::runCellSlice(spec, second);
        ASSERT_TRUE(b.ok) << what << ": " << b.error;

        expectSameMetrics(a.metrics, b.metrics, what);
        expectSameCounters(a.counters, b.counters, what);
        EXPECT_EQ(a.statsDump, b.statsDump) << what;
        EXPECT_EQ(readFile(traceFileFor(spec, through.path())),
                  readFile(traceFileFor(spec, sliced.path())))
            << what;
    }
}

TEST(SnapshotDifferential, MultiSliceChainMatchesRunThrough)
{
    const SkipAheadGuard guard(false);

    const std::size_t trials = 2 * stressIters();
    std::mt19937_64 rng(0xfeedface);
    for (std::size_t trial = 0; trial < trials; ++trial) {
        const exp::ExperimentSpec spec = randomSpec(rng);
        const Tick total = spec.warmup + spec.window;
        const std::string what = "trial " + std::to_string(trial) +
                                 " gov " + spec.governor;

        // 2-4 random interior cuts, deduplicated and sorted.
        std::vector<Tick> cuts;
        const std::size_t n = 2 + rng() % 3;
        for (std::size_t i = 0; i < n; ++i)
            cuts.push_back(1 + rng() % (total - 1));
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        cuts.push_back(total);

        const TempDir through("mthrough-" + std::to_string(trial));
        const TempDir sliced("msliced-" + std::to_string(trial));

        exp::RunCellOptions copts;
        copts.traceDir = through.path();
        const exp::RunResult a = exp::runCell(spec, copts);
        ASSERT_TRUE(a.ok) << what << ": " << a.error;

        exp::RunResult b;
        Tick t0 = 0;
        std::string in;
        for (std::size_t i = 0; i < cuts.size(); ++i) {
            exp::SliceOptions sopts;
            sopts.t0 = t0;
            sopts.t1 = cuts[i];
            sopts.inSnap = in;
            sopts.outSnap =
                snapPath(sliced.path(), "c" + std::to_string(i));
            sopts.traceDir = sliced.path();
            b = exp::runCellSlice(spec, sopts);
            ASSERT_TRUE(b.ok)
                << what << " slice " << i << ": " << b.error;
            t0 = cuts[i];
            in = sopts.outSnap;
        }

        expectSameMetrics(a.metrics, b.metrics, what);
        expectSameCounters(a.counters, b.counters, what);
        EXPECT_EQ(a.statsDump, b.statsDump) << what;
        EXPECT_EQ(readFile(traceFileFor(spec, through.path())),
                  readFile(traceFileFor(spec, sliced.path())))
            << what;
    }
}

TEST(SnapshotDifferential, SkipAheadOnMetricsAndStatsMatch)
{
    // With skip-ahead on, a cut can land inside a replay batch; the
    // trace's "replay" spans re-frame around the cut but everything
    // observable — metrics, counters, the whole stats hierarchy —
    // must still match byte for byte.
    const SkipAheadGuard guard(true);

    const std::size_t trials = 2 * stressIters();
    std::mt19937_64 rng(0xabad1dea);
    for (std::size_t trial = 0; trial < trials; ++trial) {
        const exp::ExperimentSpec spec = randomSpec(rng);
        const Tick total = spec.warmup + spec.window;
        const Tick k = 1 + rng() % (total - 1);
        const std::string what =
            "trial " + std::to_string(trial) + " gov " +
            spec.governor + " k=" + std::to_string(k);

        const exp::RunResult a = exp::runCell(spec);
        ASSERT_TRUE(a.ok) << what << ": " << a.error;

        const TempDir dir("skip-" + std::to_string(trial));
        const std::string snap = snapPath(dir.path(), "k");
        exp::SliceOptions first;
        first.t1 = k;
        first.outSnap = snap;
        ASSERT_TRUE(exp::runCellSlice(spec, first).ok) << what;
        exp::SliceOptions second;
        second.t0 = k;
        second.inSnap = snap;
        const exp::RunResult b = exp::runCellSlice(spec, second);
        ASSERT_TRUE(b.ok) << what << ": " << b.error;

        expectSameMetrics(a.metrics, b.metrics, what);
        expectSameCounters(a.counters, b.counters, what);
        EXPECT_EQ(a.statsDump, b.statsDump) << what;
    }
}

TEST(SnapshotFuzz, CorruptInputsDegradeToFreshSimulation)
{
    const SkipAheadGuard guard(false);

    std::mt19937_64 rng(0x5eed);
    const exp::ExperimentSpec spec = randomSpec(rng);
    const Tick total = spec.warmup + spec.window;
    const Tick k = total / 2;

    const exp::RunResult reference = exp::runCell(spec);
    ASSERT_TRUE(reference.ok) << reference.error;

    const TempDir dir("fuzz");
    const std::string snap = snapPath(dir.path(), "k");
    exp::SliceOptions first;
    first.t1 = k;
    first.outSnap = snap;
    ASSERT_TRUE(exp::runCellSlice(spec, first).ok);
    const std::string good = readSnapshotFile(snap);

    // Every corruption is (a) loudly rejected by the reader and (b)
    // absorbed by runCellSlice as a cache miss: the slice re-runs
    // from tick 0 and still produces the byte-identical cell.
    std::vector<std::pair<std::string, std::string>> corrupt;
    corrupt.emplace_back("truncated",
                         good.substr(0, good.size() * 2 / 3));
    {
        std::string flipped = good;
        flipped[good.size() / 2] =
            static_cast<char>(flipped[good.size() / 2] ^ 0x10);
        corrupt.emplace_back("bit-flipped", flipped);
    }
    {
        std::string bumped = good;
        const std::string ver =
            "sysscale-snap v" + std::to_string(kSnapFormatVersion);
        const std::size_t pos = bumped.find(ver);
        ASSERT_NE(pos, std::string::npos);
        bumped.replace(pos, ver.size(), "sysscale-snap v999");
        corrupt.emplace_back("version-bumped",
                             restampChecksum(bumped));
    }
    {
        // A valid snapshot of a *different* spec.
        exp::ExperimentSpec other = spec;
        other.seed += 1;
        const std::string osnap = snapPath(dir.path(), "other");
        exp::SliceOptions oopts;
        oopts.t1 = k;
        oopts.outSnap = osnap;
        ASSERT_TRUE(exp::runCellSlice(other, oopts).ok);
        corrupt.emplace_back("wrong-spec", readSnapshotFile(osnap));
    }

    for (const auto &c : corrupt) {
        if (c.first != "wrong-spec") {
            EXPECT_THROW(SnapshotReader r(c.second), SnapshotError)
                << c.first;
        }
        const std::string bad =
            snapPath(dir.path(), "bad-" + c.first);
        writeSnapshotFile(bad, c.second);
        exp::SliceOptions sopts;
        sopts.t0 = k;
        sopts.inSnap = bad;
        const exp::RunResult res = exp::runCellSlice(spec, sopts);
        ASSERT_TRUE(res.ok) << c.first << ": " << res.error;
        expectSameMetrics(reference.metrics, res.metrics, c.first);
        EXPECT_EQ(reference.statsDump, res.statsDump) << c.first;
    }

    // A missing file degrades the same way.
    exp::SliceOptions sopts;
    sopts.t0 = k;
    sopts.inSnap = dir.path() + "/never-written.snap";
    const exp::RunResult res = exp::runCellSlice(spec, sopts);
    ASSERT_TRUE(res.ok) << res.error;
    expectSameMetrics(reference.metrics, res.metrics, "missing file");
    EXPECT_EQ(reference.statsDump, res.statsDump) << "missing file";
}

TEST(SnapshotSlice, TracedSnapshotRestoresIntoUntracedCell)
{
    const SkipAheadGuard guard(false);

    std::mt19937_64 rng(0x0b5);
    const exp::ExperimentSpec spec = randomSpec(rng);
    const Tick total = spec.warmup + spec.window;
    const Tick k = total / 3;

    const exp::RunResult reference = exp::runCell(spec);
    ASSERT_TRUE(reference.ok) << reference.error;

    const TempDir dir("obs");
    // Save traced, restore untraced: the "obs" section is skipped.
    const std::string traced = snapPath(dir.path(), "traced");
    exp::SliceOptions first;
    first.t1 = k;
    first.outSnap = traced;
    first.traceDir = dir.path();
    ASSERT_TRUE(exp::runCellSlice(spec, first).ok);
    exp::SliceOptions second;
    second.t0 = k;
    second.inSnap = traced;
    const exp::RunResult untraced = exp::runCellSlice(spec, second);
    ASSERT_TRUE(untraced.ok) << untraced.error;
    expectSameMetrics(reference.metrics, untraced.metrics,
                      "traced->untraced");
    EXPECT_EQ(reference.statsDump, untraced.statsDump);

    // Save untraced, restore traced: no "obs" section to load; the
    // continuation still simulates identically (its trace only has
    // the tail, so the file itself is not compared).
    const std::string plain = snapPath(dir.path(), "plain");
    exp::SliceOptions third;
    third.t1 = k;
    third.outSnap = plain;
    ASSERT_TRUE(exp::runCellSlice(spec, third).ok);
    exp::SliceOptions fourth;
    fourth.t0 = k;
    fourth.inSnap = plain;
    fourth.traceDir = dir.path();
    const exp::RunResult traced_run =
        exp::runCellSlice(spec, fourth);
    ASSERT_TRUE(traced_run.ok) << traced_run.error;
    expectSameMetrics(reference.metrics, traced_run.metrics,
                      "untraced->traced");
    EXPECT_EQ(reference.statsDump, traced_run.statsDump);
}

TEST(SnapshotSlice, SliceArgumentValidation)
{
    std::mt19937_64 rng(0x11);
    const exp::ExperimentSpec spec = randomSpec(rng);
    const Tick total = spec.warmup + spec.window;

    exp::SliceOptions past_end;
    past_end.t1 = total + 1;
    EXPECT_FALSE(exp::runCellSlice(spec, past_end).ok);

    exp::SliceOptions empty;
    empty.t0 = total / 2;
    empty.t1 = total / 2;
    empty.inSnap = "unused.snap";
    EXPECT_FALSE(exp::runCellSlice(spec, empty).ok);

    exp::SliceOptions no_snap;
    no_snap.t0 = total / 2;
    EXPECT_FALSE(exp::runCellSlice(spec, no_snap).ok);
}

} // namespace sysscale
