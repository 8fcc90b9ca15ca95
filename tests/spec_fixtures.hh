/**
 * @file
 * Experiment specs shared by the test suites: a hand-built cell for
 * the codec suites and seeded random cells for the contract suites.
 */

#ifndef SYSSCALE_TESTS_SPEC_FIXTURES_HH
#define SYSSCALE_TESTS_SPEC_FIXTURES_HH

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/governor_registry.hh"
#include "exp/experiment.hh"
#include "soc/op_point.hh"
#include "workloads/battery.hh"
#include "workloads/micro.hh"
#include "workloads/scenario.hh"

namespace sysscale {
namespace test {

/** A cell exercising every serialized field group. */
inline exp::ExperimentSpec
richSpec()
{
    exp::ExperimentSpec spec;
    spec.id = "rich/\"cell\" with\nnewline";
    spec.soc = soc::skylakeDdr4Config(7.5);
    spec.workload = workloads::videoPlayback();
    spec.governor = "ondemand";
    spec.governorParams = {{"up", "0.70"}, {"stall-gate", "1.5e6"}};
    spec.seed = 42;
    spec.warmup = 12 * kTicksPerMs;
    spec.window = 345 * kTicksPerMs;
    spec.hdPanel = false;
    spec.camera = true;
    spec.pinnedCoreFreq = 1.3 * kGHz;
    const soc::OpPointTable table(spec.soc);
    spec.pinnedOpPoint = table.low();
    spec.pinnedUnoptimizedMrc = true;
    spec.scenario = workloads::scenarioByName("videoconf");
    spec.labels = {{"workload", "video-playback"},
                   {"note", "tab\there"}};
    return spec;
}

/** Every registered governor, plus the governor-less "collect". */
inline std::vector<std::string>
allGovernors()
{
    std::vector<std::string> names = core::governorNames();
    names.push_back("collect");
    return names;
}

/**
 * Run @p spec under governor @p name. userspace gets an
 * at=<ms>@<index> schedule, so a restore that lost its evaluation
 * clock would request the wrong operating point.
 */
inline void
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
 * simulated milliseconds) so stress runs stay cheap.
 */
inline exp::ExperimentSpec
randomSpec(std::mt19937_64 &rng)
{
    exp::ExperimentSpec spec;

    switch (rng() % 4) {
      case 0: spec.workload = workloads::streamMicro(); break;
      case 1: spec.workload = workloads::spinMicro(); break;
      case 2: spec.workload = workloads::pointerChaseMicro(); break;
      default: spec.workload = workloads::webBrowsing(); break;
    }

    const std::vector<std::string> governors = allGovernors();
    useGovernor(spec, governors[rng() % governors.size()]);

    // Scenario actions are compressed into the short run so a
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
    spec.id = "random";
    return spec;
}

} // namespace test
} // namespace sysscale

#endif // SYSSCALE_TESTS_SPEC_FIXTURES_HH
