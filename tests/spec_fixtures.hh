/**
 * @file
 * Hand-built experiment specs shared by the codec test suites.
 */

#ifndef SYSSCALE_TESTS_SPEC_FIXTURES_HH
#define SYSSCALE_TESTS_SPEC_FIXTURES_HH

#include "exp/experiment.hh"
#include "soc/op_point.hh"
#include "workloads/battery.hh"
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

} // namespace test
} // namespace sysscale

#endif // SYSSCALE_TESTS_SPEC_FIXTURES_HH
