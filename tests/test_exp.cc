/**
 * @file
 * Experiment-runner subsystem tests: grid expansion, the governor
 * registry, parallel-vs-serial determinism, failure isolation, and
 * result serialization.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/governor.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "io/display.hh"
#include "sim/sim_object.hh"
#include "soc/pmu.hh"
#include "soc/soc.hh"
#include "workloads/micro.hh"
#include "workloads/profile.hh"

using namespace sysscale;

namespace {

/** Small, fast grid shared by the determinism tests. */
exp::GridSpec
smallGrid()
{
    exp::GridSpec grid;
    grid.workloads = {workloads::streamMicro(),
                      workloads::spinMicro()};
    grid.governors = {"fixed", "sysscale"};
    grid.tdps = {3.5, 4.5};
    grid.seeds = {1, 7};
    grid.warmup = 10 * kTicksPerMs;
    grid.window = 60 * kTicksPerMs;
    return grid;
}

/** Serialize a result with the host-timing column neutralized. */
std::string
stableRow(exp::RunResult res)
{
    res.hostSeconds = 0.0;
    return exp::csvRow(res);
}

} // anonymous namespace

TEST(GovernorRegistry, AllNamesResolve)
{
    for (const auto &name : exp::governorNames()) {
        EXPECT_TRUE(exp::isGovernorName(name)) << name;
        EXPECT_NO_THROW((void)exp::makeGovernor(name)) << name;
    }
}

TEST(GovernorRegistry, MakeGovernorBuildsFreshInstances)
{
    const auto a = exp::makeGovernor("sysscale");
    const auto b = exp::makeGovernor("sysscale");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_STREQ(a->name(), "sysscale");
}

TEST(GovernorRegistry, CollectProducesNoGovernor)
{
    EXPECT_EQ(exp::makeGovernor("collect"), nullptr);
    EXPECT_EQ(exp::makeGovernor(""), nullptr);
    EXPECT_THROW((void)exp::makeGovernor("collect", {{"x", "1"}}),
                 std::invalid_argument);
}

TEST(GovernorRegistry, UnknownNameThrows)
{
    EXPECT_FALSE(exp::isGovernorName("turbo9000"));
    EXPECT_THROW((void)exp::makeGovernor("turbo9000"),
                 std::invalid_argument);
}

TEST(GridExpansion, CrossProductSizeAndUniqueIds)
{
    const auto specs = exp::expandGrid(smallGrid());
    EXPECT_EQ(specs.size(), 2u * 2u * 2u * 2u);

    std::set<std::string> ids;
    for (const auto &spec : specs)
        ids.insert(spec.id);
    EXPECT_EQ(ids.size(), specs.size());
}

TEST(GridExpansion, CellsInheritSharedSettings)
{
    exp::GridSpec grid = smallGrid();
    grid.camera = true;
    const auto specs = exp::expandGrid(grid);
    for (const auto &spec : specs) {
        EXPECT_EQ(spec.warmup, grid.warmup);
        EXPECT_EQ(spec.window, grid.window);
        EXPECT_TRUE(spec.camera);
        EXPECT_EQ(spec.labels.size(), 4u);
    }
}

TEST(GridExpansion, TdpAxisLandsInSocConfig)
{
    const auto specs = exp::expandGrid(smallGrid());
    std::set<double> tdps;
    for (const auto &spec : specs)
        tdps.insert(spec.soc.tdp);
    EXPECT_EQ(tdps, (std::set<double>{3.5, 4.5}));
}

TEST(SpecValidation, RejectsBadCells)
{
    exp::ExperimentSpec spec;
    spec.workload = workloads::streamMicro();
    EXPECT_NO_THROW(exp::validateSpec(spec));

    exp::ExperimentSpec no_workload = spec;
    no_workload.workload = workloads::WorkloadProfile();
    EXPECT_THROW(exp::validateSpec(no_workload),
                 std::invalid_argument);

    exp::ExperimentSpec no_window = spec;
    no_window.window = 0;
    EXPECT_THROW(exp::validateSpec(no_window), std::invalid_argument);

    exp::ExperimentSpec bad_gov = spec;
    bad_gov.governor = "turbo9000";
    EXPECT_THROW(exp::validateSpec(bad_gov), std::invalid_argument);

    exp::ExperimentSpec bad_tdp = spec;
    bad_tdp.soc.tdp = -1.0;
    EXPECT_THROW(exp::validateSpec(bad_tdp), std::invalid_argument);

    // TDP below the PBM reserve would otherwise reach the fatal
    // (process-exiting) SocConfig::validate() from a worker thread.
    exp::ExperimentSpec tiny_tdp = spec;
    tiny_tdp.soc.tdp = 0.2;
    EXPECT_THROW(exp::validateSpec(tiny_tdp), std::invalid_argument);

    exp::ExperimentSpec bad_cadence = spec;
    bad_cadence.soc.sampleInterval = 3 * kTicksPerUs;
    EXPECT_THROW(exp::validateSpec(bad_cadence),
                 std::invalid_argument);
}

TEST(SpecValidation, SubReserveTdpCellFailsWithoutKillingGrid)
{
    exp::GridSpec grid;
    grid.workloads = {workloads::spinMicro()};
    grid.governors = {"fixed"};
    grid.tdps = {0.2, 4.5};
    grid.warmup = 5 * kTicksPerMs;
    grid.window = 30 * kTicksPerMs;

    exp::RunnerOptions opts;
    opts.jobs = 2;
    const auto results =
        exp::ExperimentRunner(opts).run(exp::expandGrid(grid));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("reserve"), std::string::npos);
    EXPECT_TRUE(results[1].ok) << results[1].error;
}

/**
 * Every cell, with or without a governor, reports counters: a row's
 * ctr_* columns are the run average the PMU of the same cell, driven
 * directly, holds.
 */
TEST(RunCell, ProducesMetricsAndCounters)
{
    for (const char *gov : {"collect", "fixed", "sysscale"}) {
        SCOPED_TRACE(gov);
        exp::ExperimentSpec spec;
        spec.id = "unit";
        spec.workload = workloads::streamMicro();
        spec.governor = gov;
        spec.warmup = 10 * kTicksPerMs;
        spec.window = 60 * kTicksPerMs;

        const exp::RunResult res = exp::runCell(spec);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.id, "unit");
        EXPECT_EQ(res.workload, "stream");
        EXPECT_GT(res.metrics.ips, 0.0);
        EXPECT_GT(res.metrics.avgPower, 0.0);
        EXPECT_GT(res.hostSeconds, 0.0);

        const std::unique_ptr<core::Governor> g =
            exp::makeGovernor(spec.governor, spec.governorParams);
        Simulator sim(spec.seed);
        soc::Soc chip(sim, spec.soc);
        chip.display().attachPanel(0, io::kDefaultHdPanel);
        workloads::ProfileAgent agent(spec.workload);
        chip.setWorkload(&agent);
        chip.pmu().setGovernor(g.get());
        chip.run(spec.warmup);
        chip.run(spec.window);
        const soc::CounterSnapshot avg = chip.pmu().runAverage();
        for (std::size_t i = 0; i < soc::kNumCounters; ++i)
            EXPECT_EQ(res.counters.values[i], avg.values[i]) << i;
        // The stream micro makes real LLC counter traffic.
        EXPECT_GT(res.counters[soc::Counter::LlcOccupancyTracer], 0.0);
        EXPECT_GT(res.counters[soc::Counter::LlcStalls], 0.0);
    }
}

TEST(RunCell, BadSpecBecomesErrorResultNotThrow)
{
    exp::ExperimentSpec spec;
    spec.id = "broken";
    spec.window = 0;

    exp::RunResult res;
    EXPECT_NO_THROW(res = exp::runCell(spec));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("broken"), std::string::npos);
}

TEST(Runner, ParallelGridIsByteIdenticalToSerial)
{
    const auto specs = exp::expandGrid(smallGrid());

    exp::RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial = exp::ExperimentRunner(serial_opts).run(specs);

    exp::RunnerOptions parallel_opts;
    parallel_opts.jobs = 4;
    const auto parallel =
        exp::ExperimentRunner(parallel_opts).run(specs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        // Byte-identical serialized rows (host timing neutralized;
        // everything else, including every double, must match to
        // the last bit for "%.17g" round-trip formatting to agree).
        EXPECT_EQ(stableRow(serial[i]), stableRow(parallel[i]))
            << specs[i].id;
    }
}

TEST(Runner, AdaptiveGovernorIsByteIdenticalAcrossJobCounts)
{
    // The online-adaptive governor mutates per-instance state every
    // evaluation window, which makes it the sharpest probe for
    // cross-cell state leaks: if two cells ever shared an instance,
    // the learned thresholds (and so the results) would depend on
    // which worker thread ran which cell in what order.
    exp::GridSpec grid;
    grid.workloads = {workloads::streamMicro(),
                      workloads::pointerChaseMicro(),
                      workloads::spinMicro()};
    grid.governors = {"adaptive", "adaptive:min-samples=2"};
    grid.seeds = {1, 7};
    grid.warmup = 10 * kTicksPerMs;
    grid.window = 90 * kTicksPerMs;
    const auto specs = exp::expandGrid(grid);

    exp::RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial = exp::ExperimentRunner(serial_opts).run(specs);

    exp::RunnerOptions parallel_opts;
    parallel_opts.jobs = 4;
    const auto parallel =
        exp::ExperimentRunner(parallel_opts).run(specs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_EQ(stableRow(serial[i]), stableRow(parallel[i]))
            << specs[i].id;
    }
}

TEST(Runner, RepeatedParallelRunsAreIdentical)
{
    const auto specs = exp::expandGrid(smallGrid());
    exp::RunnerOptions opts;
    opts.jobs = 3;
    const exp::ExperimentRunner runner(opts);
    const auto a = runner.run(specs);
    const auto b = runner.run(specs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(stableRow(a[i]), stableRow(b[i]));
}

TEST(Runner, FailingCellDoesNotPoisonSiblings)
{
    auto specs = exp::expandGrid(smallGrid());
    ASSERT_GE(specs.size(), 3u);

    // Reference run of the healthy specs.
    exp::RunnerOptions opts;
    opts.jobs = 4;
    const auto reference = exp::ExperimentRunner(opts).run(specs);

    // Poison two cells in different ways: a governor parameter the
    // registry rejects and an invalid spec.
    const std::size_t bad_a = 1, bad_b = specs.size() - 1;
    specs[bad_a].governor = "sysscale";
    specs[bad_a].governorParams = {{"bogus", "1"}};
    specs[bad_b].window = 0;

    const auto results = exp::ExperimentRunner(opts).run(specs);
    ASSERT_EQ(results.size(), specs.size());

    EXPECT_FALSE(results[bad_a].ok);
    EXPECT_NE(results[bad_a].error.find("bogus"), std::string::npos);
    EXPECT_FALSE(results[bad_b].ok);

    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == bad_a || i == bad_b)
            continue;
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(stableRow(results[i]), stableRow(reference[i]));
    }
}

TEST(Runner, ProgressCallbackSeesEveryCell)
{
    const auto specs = exp::expandGrid(smallGrid());
    std::size_t calls = 0;
    std::size_t last_done = 0;
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.onResult = [&](const exp::RunResult &, std::size_t done,
                        std::size_t total) {
        ++calls;
        EXPECT_EQ(total, specs.size());
        EXPECT_GE(done, 1u);
        last_done = std::max(last_done, done);
    };
    (void)exp::ExperimentRunner(opts).run(specs);
    EXPECT_EQ(calls, specs.size());
    EXPECT_EQ(last_done, specs.size());
}

TEST(Runner, JobsClampToCellCount)
{
    exp::RunnerOptions opts;
    opts.jobs = 64;
    const exp::ExperimentRunner runner(opts);
    EXPECT_EQ(runner.jobsFor(3), 3u);
    EXPECT_EQ(runner.jobsFor(100), 64u);
    EXPECT_GE(exp::ExperimentRunner().jobsFor(8), 1u);
}

TEST(Report, CsvRowMatchesHeaderArity)
{
    exp::ExperimentSpec spec;
    spec.id = "csv";
    spec.workload = workloads::spinMicro();
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 30 * kTicksPerMs;
    spec.labels = {{"governor", "fixed"}, {"tdp", "4.5W"}};
    const exp::RunResult res = exp::runCell(spec);
    ASSERT_TRUE(res.ok) << res.error;

    // Quoted fields in the row contain no embedded commas here, so
    // comma counting is a valid arity check.
    const std::string header = exp::csvHeader();
    const std::string row = exp::csvRow(res);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
}

TEST(Report, CsvEscapesQuotes)
{
    exp::RunResult res;
    res.id = "he said \"hi\"";
    const std::string row = exp::csvRow(res);
    EXPECT_NE(row.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Report, JsonIsStructurallySound)
{
    exp::ExperimentSpec spec;
    spec.id = "json \"quoted\"";
    spec.workload = workloads::spinMicro();
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 30 * kTicksPerMs;
    spec.labels = {{"k", "v"}};
    const exp::RunResult res = exp::runCell(spec);
    ASSERT_TRUE(res.ok) << res.error;

    std::ostringstream os;
    exp::writeJson(os, {res, res});
    const std::string doc = os.str();

    // Balanced braces/brackets outside of strings.
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : doc) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
    EXPECT_NE(doc.find("\"json \\\"quoted\\\"\""),
              std::string::npos);
}

TEST(GridExpansion, ScenarioAxisExpandsInnermost)
{
    exp::GridSpec grid = smallGrid();
    grid.scenarios = {
        {"none", workloads::scenarioByName("none")},
        {"thermal-step", workloads::scenarioByName("thermal-step")},
    };
    const auto specs = exp::expandGrid(grid);
    ASSERT_EQ(specs.size(), 2u * 2u * 2u * 2u * 2u);

    // The scenario axis is innermost: cells alternate between the
    // two values, and every cell — the explicit "none" included —
    // carries the scenario label and id suffix.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const exp::ExperimentSpec &spec = specs[i];
        const std::string &name = grid.scenarios[i % 2].name;
        EXPECT_EQ(spec.id.substr(spec.id.rfind('/') + 1), name);
        ASSERT_EQ(spec.labels.size(), 5u);
        EXPECT_EQ(spec.labels.back().first, "scenario");
        EXPECT_EQ(spec.labels.back().second, name);
        EXPECT_TRUE(spec.scenario ==
                    grid.scenarios[i % 2].scenario);
    }

    std::set<std::string> ids;
    for (const auto &spec : specs)
        ids.insert(spec.id);
    EXPECT_EQ(ids.size(), specs.size());
}

TEST(GridExpansion, ScenarioLessGridKeepsUnsuffixedIds)
{
    // Without a scenario axis, cells carry no scenario label or id
    // suffix and run scenario-less.
    for (const auto &spec : exp::expandGrid(smallGrid())) {
        EXPECT_EQ(spec.labels.size(), 4u);
        EXPECT_EQ(spec.id.find("none"), std::string::npos);
        EXPECT_TRUE(spec.scenario.empty());
    }
}

TEST(SpecValidation, RejectsOverCapacityScenarioCompositions)
{
    // stream pins all 4 hardware threads; overlaying app-switch's
    // browser (2 more) would trip the CPU model's process-fatal
    // assert — the cell must fail loudly as an error row instead.
    exp::ExperimentSpec spec;
    spec.id = "over-capacity";
    spec.workload = workloads::streamMicro();
    spec.scenario = workloads::scenarioByName("app-switch");
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 30 * kTicksPerMs;
    const exp::RunResult res = exp::runCell(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("concurrent threads"),
              std::string::npos)
        << res.error;

    // A one-thread base under the same scenario fits and runs.
    exp::ExperimentSpec fits = spec;
    fits.id = "fits";
    fits.workload = workloads::pointerChaseMicro();
    const exp::RunResult ok = exp::runCell(fits);
    EXPECT_TRUE(ok.ok) << ok.error;

    // The guard covers scenario-less cells too: a base workload
    // wider than the machine is the same process-fatal assert.
    workloads::Phase wide;
    wide.duration = 10 * kTicksPerMs;
    wide.work.cpiBase = 1.0;
    wide.activeThreads = 8;
    exp::ExperimentSpec base_only;
    base_only.id = "too-wide-base";
    base_only.workload = workloads::WorkloadProfile(
        "too-wide", workloads::WorkloadClass::Micro, {wide});
    base_only.warmup = 5 * kTicksPerMs;
    base_only.window = 30 * kTicksPerMs;
    const exp::RunResult rej = exp::runCell(base_only);
    EXPECT_FALSE(rej.ok);
    EXPECT_NE(rej.error.find("concurrent threads"),
              std::string::npos)
        << rej.error;
}
