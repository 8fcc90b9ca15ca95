/**
 * @file
 * The governor zoo: registry round-trips, the driver's latency
 * constraint and per-install accounting, and the differential
 * checks that re-homing the paper's governors onto the driver layer,
 * and turning the ablation knock-outs into sysscale parameters,
 * changed no simulation output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/governor.hh"
#include "core/governor_driver.hh"
#include "core/governor_registry.hh"
#include "core/governor_zoo.hh"
#include "core/governors.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "io/display.hh"
#include "sim/sim_object.hh"
#include "soc/pmu.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/micro.hh"
#include "workloads/profile.hh"
#include "workloads/spec.hh"

#include "tests/golden_governor_refactor.inc"
#include "tests/golden_sysscale_knockouts.inc"

using namespace sysscale;

namespace {

/** Representative valid parameters for every parameterized governor
 *  (empty for the parameterless ones). */
core::GovernorParams
sampleParams(const std::string &name)
{
    if (name == "ondemand")
        return {{"up", "0.75"}, {"stall-gate", "2e6"}};
    if (name == "conservative")
        return {{"up", "0.60"}, {"down", "0.25"}};
    if (name == "userspace")
        return {{"at", "0@0"}, {"at", "60@1"}};
    if (name == "latency-budget")
        return {{"budget-us", "25"}, {"burst", "3"}};
    if (name == "adaptive")
        return {{"margin", "0.8"}, {"bound", "0.03"},
                {"min-samples", "4"}};
    return {};
}

/** A small-but-real cell for smoke-running a governor. */
exp::ExperimentSpec
smokeSpec(const std::string &gov, const core::GovernorParams &params)
{
    exp::ExperimentSpec spec;
    spec.id = "zoo/" + gov;
    spec.workload = workloads::pointerChaseMicro();
    spec.governor = gov;
    spec.governorParams = params;
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 120 * kTicksPerMs;
    return spec;
}

} // namespace

// ------------------------------------------------------------------
// Registry
// ------------------------------------------------------------------

TEST(GovernorRegistry, ExposesTheWholeZoo)
{
    const auto names = core::governorNames();
    for (const char *expect :
         {"fixed", "sysscale", "memscale", "memscale-r", "coscale",
          "coscale-r", "ondemand", "conservative", "userspace",
          "latency-budget", "adaptive"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect << " missing from the registry";
    }
    EXPECT_GE(names.size(), 7u);
}

TEST(GovernorRegistry, EveryEntryConstructsDecidesAndSerializes)
{
    for (const core::GovernorEntry &entry : core::governorRegistry()) {
        SCOPED_TRACE(entry.name);
        const core::GovernorParams params = sampleParams(entry.name);

        // Constructs, with a meaningful identity and a firmware
        // footprint inside the PMU budget (Sec. 5).
        auto gov = core::makeGovernor(entry.name, params);
        ASSERT_NE(gov, nullptr);
        EXPECT_FALSE(std::string(gov->name()).empty());
        EXPECT_LE(gov->firmwareBytes(),
                  soc::Pmu::kFirmwareBudgetBytes);
        EXPECT_FALSE(entry.summary.empty());

        // Serializes through spec codec v5 and round-trips,
        // parameters included, in order.
        exp::ExperimentSpec spec = smokeSpec(entry.name, params);
        const exp::ExperimentSpec back =
            exp::parseSpec(exp::serializeSpec(spec));
        EXPECT_EQ(back, spec);
        EXPECT_EQ(back.governorParams, spec.governorParams);

        // Decides: the full cell path runs clean.
        const exp::RunResult res = exp::runCell(spec);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_GT(res.metrics.energy, 0.0);
    }
}

TEST(GovernorRegistry, UnknownNameEnumeratesTheRegistry)
{
    try {
        (void)core::makeGovernor("schedutil");
        FAIL() << "unknown governor accepted";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        // The error is the discovery surface: every registered name
        // must be in it.
        for (const std::string &name : core::governorNames())
            EXPECT_NE(msg.find(name), std::string::npos)
                << name << " missing from: " << msg;
    }
}

TEST(GovernorRegistry, BadParametersFailAtConstruction)
{
    EXPECT_THROW((void)core::makeGovernor("fixed", {{"up", "0.5"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("ondemand", {{"frob", "1"}}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("ondemand", {{"up", "not-a-num"}}),
        std::invalid_argument);
    EXPECT_THROW((void)core::makeGovernor(
                     "conservative", {{"up", "0.3"}, {"down", "0.6"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("userspace", {{"at", "60"}}),
        std::invalid_argument);
    EXPECT_THROW((void)core::makeGovernor(
                     "userspace", {{"at", "60@1"}, {"at", "10@0"}}),
                 std::invalid_argument);
    EXPECT_THROW((void)core::makeGovernor("latency-budget",
                                          {{"budget-us", "-3"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("adaptive", {{"margin", "1.5"}}),
        std::invalid_argument);
}

// ------------------------------------------------------------------
// Driver layer and PMU hosting
// ------------------------------------------------------------------

TEST(GovernorDriver, LatencyConstraintDeniesSlowFlows)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::GovernorDriver drv(chip, core::FlowOptions{}, true);

    const soc::OperatingPoint &low = chip.opPoints().low();
    const Tick est = drv.estimateTransitionLatency(low);
    ASSERT_GT(est, 0u);

    // A limit below the estimate denies the flow before the hardware
    // moves.
    drv.setTransitionLatencyLimit(est - 1);
    EXPECT_FALSE(drv.requestOpPoint(low));
    EXPECT_EQ(drv.deniedRequests(), 1u);
    EXPECT_EQ(drv.flowRuns(), 0u);
    EXPECT_TRUE(chip.currentOpPoint() == chip.opPoints().high());

    // At (or above) the estimate the same request goes through.
    drv.setTransitionLatencyLimit(est);
    EXPECT_TRUE(drv.requestOpPoint(low));
    EXPECT_TRUE(chip.currentOpPoint() == low);
    EXPECT_EQ(drv.flowRuns(), 1u);
}

TEST(Pmu, ReinstallRebuildsDriver)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet);
    EXPECT_EQ(chip.pmu().driver().flowRuns(), 1u);
    const core::GovernorDriver *first = &chip.pmu().driver();

    // A second install starts from clean mechanics: a fresh driver
    // with zeroed accounting.
    chip.pmu().setGovernor(&gov);
    EXPECT_NE(&chip.pmu().driver(), first);
    EXPECT_EQ(chip.pmu().driver().flowRuns(), 0u);
}

// ------------------------------------------------------------------
// Online-adaptive governor
// ------------------------------------------------------------------

TEST(OnlineAdaptive, LearnsDuringTheRunAndStartsFresh)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::kDefaultHdPanel);
    workloads::ProfileAgent agent(workloads::pointerChaseMicro());
    chip.setWorkload(&agent);

    core::OnlineAdaptiveGovernor gov(
        core::GovernorParams{{"min-samples", "2"}});
    chip.pmu().setGovernor(&gov);
    chip.run(405 * kTicksPerMs);

    // The run produced learning: windows observed safe fed the
    // mu+sigma estimate.
    EXPECT_GT(gov.safeSamples(), 0u);

    // A registry-built instance is fresh — nothing learned leaks
    // through the factory path.
    auto fresh = core::makeGovernor("adaptive");
    auto *fresh_adaptive =
        dynamic_cast<core::OnlineAdaptiveGovernor *>(fresh.get());
    ASSERT_NE(fresh_adaptive, nullptr);
    EXPECT_EQ(fresh_adaptive->safeSamples(), 0u);
    EXPECT_EQ(fresh_adaptive->clamps(), 0u);
}

TEST(OnlineAdaptive, ThresholdFloorHoldsUnderQuietCorpus)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::OnlineAdaptiveGovernor gov(
        core::GovernorParams{{"min-samples", "1"}});
    chip.pmu().setGovernor(&gov);

    // An all-quiet stream must not collapse thresholds to zero (that
    // would pin the SoC high forever through the hysteresis scale).
    soc::CounterSnapshot quiet;
    for (int i = 0; i < 32; ++i)
        gov.decide(chip.pmu().driver(), chip, quiet);

    const core::Thresholds defaults =
        core::SysScaleGovernor::defaultThresholds();
    for (std::size_t i = 0; i < soc::kNumCounters; ++i) {
        EXPECT_GE(gov.thresholds().counter[i],
                  defaults.counter[i] *
                      core::OnlineAdaptiveGovernor::kFloorShare);
    }
}

// ------------------------------------------------------------------
// Differential: the refactor changed no simulation output
// ------------------------------------------------------------------

/**
 * The exact fig7-class and fig9-class cells whose pre-refactor CSV
 * rows are baked into tests/golden_governor_refactor.inc. Keep this
 * list in sync with the baking recipe documented there.
 */
TEST(GovernorRefactor, SysScaleByteIdenticalToPreRefactorGoldens)
{
    std::vector<exp::ExperimentSpec> specs;
    const std::vector<std::string> governors = {
        "fixed", "memscale-r", "coscale-r", "sysscale"};

    for (const char *name : {"416.gamess", "470.lbm"}) {
        const auto w = workloads::specBenchmark(name);
        for (const auto &gov : governors) {
            exp::ExperimentSpec spec;
            spec.soc = soc::skylakeConfig(4.5);
            spec.workload = w;
            spec.window =
                std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
            spec.governor = gov;
            spec.id = w.name() + "/" + gov;
            spec.labels = {{"workload", w.name()},
                           {"governor", gov}};
            specs.push_back(std::move(spec));
        }
    }
    for (const auto &w : workloads::batterySuite()) {
        if (w.name() != "web-browsing" &&
            w.name() != "video-playback")
            continue;
        for (const auto &gov : governors) {
            exp::ExperimentSpec spec;
            spec.soc = soc::skylakeConfig(4.5);
            spec.workload = w;
            spec.window = 3 * kTicksPerSec;
            spec.governor = gov;
            spec.id = w.name() + "/" + gov;
            spec.labels = {{"workload", w.name()},
                           {"governor", gov}};
            specs.push_back(std::move(spec));
        }
    }

    std::string csv = "\n" + exp::csvHeader() + "\n";
    for (const auto &spec : specs) {
        exp::RunResult res = exp::runCell(spec);
        ASSERT_TRUE(res.ok) << res.id << ": " << res.error;
        res.hostSeconds = 0.0; // wall clock: not deterministic
        csv += exp::csvRow(res) + "\n";
    }

    EXPECT_EQ(csv, std::string(kPreRefactorGoldenCsv))
        << "re-homing the paper's governors onto the driver layer "
           "must not change any simulation output";
}

// ------------------------------------------------------------------
// Differential: the ablation knock-outs as sysscale parameters
// ------------------------------------------------------------------

namespace {

/** The knock-out cells baked into golden_sysscale_knockouts.inc. */
std::vector<exp::ExperimentSpec>
knockoutSpecs()
{
    const std::vector<std::string> tokens = {
        "sysscale",
        "sysscale:optimized-mrc=0",
        "sysscale:scale-vio=0",
        "sysscale:scale-fabric=0",
        "sysscale:sram-mrc=0",
        "sysscale:redistribute=0",
    };
    std::vector<exp::ExperimentSpec> specs;
    for (const auto &w : {workloads::specBenchmark("416.gamess"),
                          workloads::videoPlayback()}) {
        for (const auto &token : tokens) {
            const exp::GovernorToken tok =
                exp::parseGovernorToken(token);
            exp::ExperimentSpec spec;
            spec.soc = soc::skylakeConfig(4.5);
            spec.workload = w;
            spec.window =
                w.name() == "video-playback"
                    ? 3 * kTicksPerSec
                    : std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
            spec.governor = tok.name;
            spec.governorParams = tok.params;
            spec.id = w.name() + "/" + token;
            spec.labels = {{"workload", w.name()},
                           {"governor", token}};
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

} // namespace

TEST(SysScaleKnockouts, ParamsReproduceTheFactoryGoldens)
{
    std::string csv = "\n" + exp::csvHeader() + "\n";
    for (const auto &spec : knockoutSpecs()) {
        exp::RunResult res = exp::runCell(spec);
        ASSERT_TRUE(res.ok) << res.id << ": " << res.error;
        res.hostSeconds = 0.0; // wall clock: not deterministic
        csv += exp::csvRow(res) + "\n";
    }
    EXPECT_EQ(csv, std::string(kKnockoutGoldenCsv))
        << "a sysscale:<key>=0 token must run exactly the knock-out "
           "the ablation bench used to build by hand";
}

TEST(SysScaleKnockouts, BadParamsThrow)
{
    EXPECT_THROW((void)core::makeGovernor("sysscale", {{"bogus", "1"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("sysscale", {{"scale-vio", "2"}}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)exp::makeGovernor("sysscale", {{"redistribute", "yes"}}),
        std::invalid_argument);

    const auto gov =
        core::makeGovernor("sysscale", {{"scale-fabric", "0"}});
    EXPECT_FALSE(gov->flowOptions().scaleFabric);
    EXPECT_FALSE(gov->flowOptions().scaleVsa);
    EXPECT_TRUE(gov->flowOptions().scaleVio);
    EXPECT_TRUE(gov->redistributes());
}

TEST(SysScaleKnockouts, PlainSysScaleKeepsItsCodecKeys)
{
    // Content keys of the plain cells, baked before sysscale took
    // parameters: existing cache entries stay valid.
    const std::vector<exp::ExperimentSpec> specs = knockoutSpecs();
    EXPECT_EQ(exp::specKey(specs[0]), "b0fc4a21973e7e89");
    EXPECT_EQ(exp::specKey(specs[6]), "76a89840bf88b6a7");
    EXPECT_NE(exp::specKey(specs[1]), exp::specKey(specs[0]));
}
