/**
 * @file
 * The byte-identity contract harness: one mode x cell matrix over one
 * corpus.
 *
 * Every way of running a cell must give the result a serial run
 * gives. The corpus is the Fig. 9 battery cells, the videoconf and
 * app-switch scenarios, two SPEC cells (one TDP-bound), a DDR4 cell,
 * an adaptive cell, a userspace cell with a schedule, and one random
 * short cell per governor (SYSSCALE_STRESS_ITERS multiplies only
 * these). Each cell runs serially as the reference, then under every
 * mode below.
 *
 * In-process modes compare the bit pattern of every stats.* line of
 * the end-of-run snapshot, besides the result; only
 * soc.replayed_steps may differ, and only with skip-ahead off, where
 * it must differ on the cells the fast path serves. Runner, drain
 * and cache modes compare the RunResult metrics and counters by bit
 * pattern and the statsDump by bytes. Traced modes compare trace
 * files too: across --jobs, and with skip-ahead off (a cut inside a
 * replay batch re-frames the batch's span) across restore and
 * chains. A failure names the mode, the cell and the first
 * differing key.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dist/dispatch.hh"
#include "dist/work_queue.hh"
#include "exp/cache.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"
#include "tests/spec_fixtures.hh"
#include "tests/test_util.hh"
#include "workloads/battery.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

/**
 * One corpus cell; @ref replays cells must use the fast path, and the
 * serial run must replay at least @ref minReplayed steps of it.
 */
struct Cell
{
    exp::ExperimentSpec spec;
    bool replays = true;
    double minReplayed = 0.0;
};

std::vector<Cell>
corpus()
{
    std::vector<Cell> cells;
    auto add = [&](const std::string &id,
                   const workloads::WorkloadProfile &w,
                   const std::string &governor, Tick window) {
        exp::ExperimentSpec spec;
        spec.id = id;
        spec.workload = w;
        spec.governor = governor;
        spec.warmup = 50 * kTicksPerMs;
        spec.window = window;
        spec.labels = {{"workload", w.name()}, {"governor", governor}};
        cells.push_back({spec});
        return &cells.back().spec;
    };

    // Fig. 9: the battery suite under fixed and sysscale.
    for (const auto &w : workloads::batterySuite()) {
        for (const char *gov : {"fixed", "sysscale"}) {
            add(w.name() + "/" + gov, w, gov, 250 * kTicksPerMs)
                ->camera = w.name() == "video-conferencing";
        }
    }
    // videoconf: camera, a mid-run layer and two TDP steps.
    // app-switch: the demand stream handed between apps at 1 s.
    add("web-browsing/videoconf", workloads::webBrowsing(), "sysscale",
        900 * kTicksPerMs)
        ->scenario = workloads::scenarioByName("videoconf");
    add("video-playback/app-switch", workloads::videoPlayback(),
        "sysscale", 1150 * kTicksPerMs)
        ->scenario = workloads::scenarioByName("app-switch");
    add("416.gamess/sysscale", workloads::specBenchmark("416.gamess"),
        "sysscale", 300 * kTicksPerMs);
    // TDP-bound: the reactive throttle moves on every step, while the
    // P-states it grants change only every few, so most steps replay
    // under a throttle other than the captured one.
    add("470.lbm/fixed", workloads::specBenchmark("470.lbm"), "fixed",
        300 * kTicksPerMs);
    cells.back().minReplayed = 1000;
    add("video-playback/ddr4", workloads::videoPlayback(), "sysscale",
        300 * kTicksPerMs)
        ->soc = soc::skylakeDdr4Config();
    // Per-instance learned state: cells sharing an instance would
    // depend on which runner thread ran which cell.
    add("web-browsing/adaptive", workloads::webBrowsing(), "adaptive",
        300 * kTicksPerMs)
        ->governorParams = {{"min-samples", "2"}};
    add("web-browsing/userspace", workloads::webBrowsing(), "userspace",
        300 * kTicksPerMs)
        ->governorParams = {{"at", "60@1"}, {"at", "120@0"}};

    // Random short cells, one per governor per stress iteration,
    // with distinct content keys so every cell simulates once.
    const std::vector<std::string> governors = test::allGovernors();
    std::set<std::string> keys;
    for (const Cell &c : cells)
        keys.insert(exp::specKey(c.spec));
    std::mt19937_64 rng(0xc0ffee);
    for (std::size_t i = 0;
         i < governors.size() * test::stressIters(); ++i) {
        Cell c{{}, /*replays=*/false};
        do {
            c.spec = test::randomSpec(rng);
            test::useGovernor(c.spec, governors[i % governors.size()]);
        } while (!keys.insert(exp::specKey(c.spec)).second);
        c.spec.id = "random-" + std::to_string(i) + "/" + c.spec.governor;
        cells.push_back(c);
    }
    return cells;
}

const std::vector<Cell> &
cells()
{
    static const std::vector<Cell> c = corpus();
    return c;
}

std::vector<exp::ExperimentSpec>
specs()
{
    std::vector<exp::ExperimentSpec> out;
    for (const Cell &c : cells())
        out.push_back(c.spec);
    return out;
}

/** What one mode observed of one cell. */
struct Outcome
{
    exp::RunResult result;
    std::string snapshot; //!< End-of-run snapshot (in-process modes).
    std::string trace;    //!< Trace file (traced modes).
};

using Outcomes = std::vector<Outcome>;

/** Run every cell as a chain of slices cut at cutsFor(i, total). */
Outcomes
slices(const std::string &dir, bool traced,
       const std::function<std::vector<Tick>(std::size_t, Tick)> &cutsFor)
{
    Outcomes out;
    for (std::size_t i = 0; i < cells().size(); ++i) {
        const exp::ExperimentSpec &spec = cells()[i].spec;
        const std::string cellDir = dir + "/" + std::to_string(i);
        std::filesystem::create_directories(cellDir);
        const Tick total = spec.warmup + spec.window;
        std::vector<Tick> ends = cutsFor(i, total);
        ends.push_back(total);

        Outcome o;
        exp::SliceOptions so;
        if (traced)
            so.traceDir = cellDir;
        for (std::size_t link = 0; link < ends.size(); ++link) {
            so.t0 = so.t1;
            so.t1 = ends[link];
            so.inSnap = so.outSnap;
            so.outSnap = cellDir + "/" + std::to_string(link) + ".snap";
            o.result = exp::runCellSlice(spec, so);
            EXPECT_TRUE(o.result.ok) << spec.id << ": " << o.result.error;
            if (link + 1 < ends.size()) {
                EXPECT_TRUE(o.result.statsDump.empty())
                    << spec.id << ": slice " << link << " reported";
            }
        }
        o.snapshot = test::readFile(so.outSnap);
        if (traced) {
            o.trace = test::readFile(cellDir + "/" + exp::specKey(spec) +
                                     ".trace.json");
        }
        out.push_back(o);
    }
    return out;
}

Outcomes
serial(const std::string &dir, bool traced)
{
    return slices(dir, traced, [](std::size_t, Tick) {
        return std::vector<Tick>{};
    });
}

/** Save at a seeded tick, restore into a fresh cell, finish. */
Outcomes
restore(const std::string &dir, bool traced)
{
    return slices(dir, traced, [](std::size_t i, Tick total) {
        std::mt19937_64 rng(0x5eed + i);
        return std::vector<Tick>{1 + rng() % (total - 1)};
    });
}

/** Three links cut at two seeded ticks. */
Outcomes
chain(const std::string &dir, bool traced)
{
    return slices(dir, traced, [](std::size_t i, Tick total) {
        std::mt19937_64 rng(0xfeedface + i);
        const Tick a = 1 + rng() % (total - 2);
        return std::vector<Tick>{a, a + 1 + rng() % (total - a - 1)};
    });
}

Outcomes
fromResults(const std::vector<exp::RunResult> &results)
{
    Outcomes out;
    for (const exp::RunResult &r : results)
        out.push_back({r, "", ""});
    return out;
}

Outcomes
jobs4(const std::string &dir, bool traced)
{
    exp::RunnerOptions opts;
    opts.jobs = 4;
    if (traced)
        opts.traceDir = dir;
    Outcomes out = fromResults(exp::ExperimentRunner(opts).run(specs()));
    for (std::size_t i = 0; traced && i < out.size(); ++i) {
        out[i].trace = test::readFile(
            dir + "/" + exp::specKey(cells()[i].spec) + ".trace.json");
    }
    return out;
}

/**
 * Two local workers drain the corpus as checkpoint chains of this
 * period: random cells run as one to two links, long cells as dozens.
 */
constexpr Tick kSliceTicks = 25 * kTicksPerMs;

Outcomes
distributed(const std::string &dir, bool)
{
    exp::ResultCache cache(dir + "/cache");
    dist::DispatchOptions opts;
    opts.spawnWorkers = 2;
    opts.poll = std::chrono::milliseconds(10);
    opts.sliceTicks = kSliceTicks;
    const dist::DispatchOutcome outcome =
        dist::runDistributed(specs(), dir + "/queue", cache, opts);

    std::size_t links = 0;
    for (const Cell &c : cells())
        links += dist::WorkQueue::sliceCount(c.spec, kSliceTicks);
    EXPECT_EQ(outcome.localWork.simulated, links)
        << "each link simulated exactly once across both workers";
    EXPECT_EQ(outcome.failedCells, 0u);
    EXPECT_TRUE(dist::WorkQueue(dir + "/queue").scan().drained());
    return fromResults(outcome.results);
}

/**
 * A cold pass stores every cell; a second pass over the same
 * directory then simulates nothing and replays the cold rows byte for
 * byte, host time included.
 */
Outcomes
warmCache(const std::string &dir, bool)
{
    const std::size_t n = cells().size();
    exp::ResultCache cold(dir);
    exp::RunnerOptions opts;
    opts.jobs = 4;
    opts.cache = &cold;
    const std::vector<exp::RunResult> first =
        exp::ExperimentRunner(opts).run(specs());
    EXPECT_EQ(cold.stats().misses, n);
    EXPECT_EQ(cold.stats().stores, n);

    exp::ResultCache warm(dir);
    opts.cache = &warm;
    std::size_t callbacks = 0;
    opts.onResult = [&](const exp::RunResult &, std::size_t,
                        std::size_t) { ++callbacks; };
    const std::vector<exp::RunResult> second =
        exp::ExperimentRunner(opts).run(specs());
    EXPECT_EQ(warm.stats().hits, n);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().stores, 0u);
    EXPECT_EQ(callbacks, n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(exp::csvRow(first[i]), exp::csvRow(second[i]))
            << cells()[i].spec.id;
    }
    return fromResults(second);
}

struct Mode
{
    const char *name;
    bool skipAhead;
    bool traced;
    /** Compared with the skip-ahead-on run: replayed_steps moves. */
    bool replaysDiffer;
    Outcomes (*run)(const std::string &dir, bool traced);
};

const Mode kModes[] = {
    {"jobs_4", true, true, false, &jobs4},
    {"skip_ahead_off", false, false, true, &serial},
    {"restore", true, false, false, &restore},
    {"restore_skip_ahead_off", false, true, false, &restore},
    {"chain", true, false, false, &chain},
    {"chain_skip_ahead_off", false, true, false, &chain},
    {"distributed", true, false, false, &distributed},
    {"warm_cache", true, false, false, &warmCache},
};

/** The serial, traced reference run under each skip-ahead setting. */
const Outcomes &
reference(bool skipAhead)
{
    static const test::TempDir dir("contracts-reference");
    static Outcomes runs[2];
    Outcomes &r = runs[skipAhead];
    if (r.empty()) {
        const test::SkipAheadGuard guard(skipAhead);
        r = serial(dir.sub(skipAhead ? "on" : "off"), true);
        for (const Outcome &o : r)
            EXPECT_FALSE(o.trace.empty());
    }
    return r;
}

class Contracts : public ::testing::TestWithParam<Mode>
{};

TEST_P(Contracts, MatchesTheSerialRun)
{
    const Mode &mode = GetParam();
    const Outcomes &ref = reference(mode.replaysDiffer || mode.skipAhead);
    Outcomes got;
    {
        const test::TempDir dir(std::string("contracts-") + mode.name);
        const test::SkipAheadGuard guard(mode.skipAhead);
        got = mode.run(dir.path(), mode.traced);
    }
    ASSERT_EQ(got.size(), ref.size());

    const std::string replayed[] = {"stats.soc.replayed_steps.value",
                                    "dump.soc.replayed_steps"};
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string what = std::string(mode.name) + " mode, cell " +
                                 cells()[i].spec.id;
        test::Fields a = test::resultFields(ref[i].result);
        test::Fields b = test::resultFields(got[i].result);
        if (!got[i].snapshot.empty()) {
            a.merge(test::statLines(ref[i].snapshot));
            b.merge(test::statLines(got[i].snapshot));
        }
        if (mode.replaysDiffer) {
            ASSERT_EQ(a.count(replayed[0]), 1u) << what;
            if (cells()[i].replays) {
                EXPECT_NE(a[replayed[0]], b[replayed[0]])
                    << what << ": the fast path never ran";
            }
            for (const std::string &key : replayed) {
                a.erase(key);
                b.erase(key);
            }
        }
        const std::string diff = test::firstDifference(a, b);
        EXPECT_EQ(diff, "") << what << ": first differing key";
        if (diff.empty() && !mode.replaysDiffer) {
            EXPECT_EQ(ref[i].result.statsDump, got[i].result.statsDump)
                << what << ": statsDump bytes";
        }
        if (mode.traced) {
            EXPECT_TRUE(ref[i].trace == got[i].trace)
                << what << ": trace file";
        }
    }
}

/** The serial run replays at least each cell's floor of steps. */
TEST(ContractCorpus, SerialRunReplaysEnoughSteps)
{
    const Outcomes &ref = reference(true);
    ASSERT_EQ(ref.size(), cells().size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_GE(test::statValue(ref[i].snapshot,
                                  "stats.soc.replayed_steps.value"),
                  cells()[i].minReplayed)
            << cells()[i].spec.id;
    }
}

/**
 * FNV-1a/64 over the "key = bits" lines of a snapshot's stats, in key
 * order, without soc.replayed_steps: the one stat a change that only
 * moves the fast path may move.
 */
std::string
statsDigest(const std::string &snapshot)
{
    std::string text;
    for (const auto &[key, value] : test::statLines(snapshot)) {
        if (key != "stats.soc.replayed_steps.value")
            text += key + " = " + value + "\n";
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(text)));
    return hex;
}

/**
 * The serial run itself reports committed stats. Every mode above is
 * compared with the serial run, so a side effect that each mode drops
 * alike passes them all; tests/data/contract_stats.txt pins each
 * fixed cell's digest. The random cells are left out.
 */
TEST(ContractCorpus, SerialStatsMatchCommittedDigest)
{
    const std::string path =
        (std::filesystem::path(__FILE__).parent_path() / "data" /
         "contract_stats.txt")
            .string();
    std::ifstream is(path);
    ASSERT_TRUE(is) << path;
    std::map<std::string, std::string> want;
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t sp = line.find(' ');
        if (!line.empty() && line[0] != '#' && sp != std::string::npos)
            want[line.substr(0, sp)] = line.substr(sp + 1);
    }

    const Outcomes &ref = reference(true);
    ASSERT_EQ(ref.size(), cells().size());
    std::size_t fixed = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const std::string &id = cells()[i].spec.id;
        if (id.rfind("random-", 0) == 0)
            continue;
        ++fixed;
        const std::string got = statsDigest(ref[i].snapshot);
        EXPECT_EQ(want.count(id) ? want[id] : "(none)", got)
            << id << ": fresh line: " << id << " " << got;
    }
    EXPECT_EQ(want.size(), fixed) << path << " names other cells";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, Contracts, ::testing::ValuesIn(kModes),
    [](const ::testing::TestParamInfo<Mode> &info) {
        return std::string(info.param.name);
    });

} // anonymous namespace
