/**
 * @file
 * Battery-life scenario: video playback on one HD panel, with the
 * per-rail power breakdown the paper's NI-DAQ rig would report
 * (Sec. 6, "Power Measurements") under the baseline and SysScale.
 */

#include <cstdio>

#include "core/governors.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"

using namespace sysscale;

namespace {

soc::RunMetrics
measure(core::Governor &governor)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::HD, 60.0, 4});

    workloads::ProfileAgent agent(workloads::videoPlayback());
    chip.setWorkload(&agent);
    chip.pmu().setGovernor(&governor);

    chip.run(200 * kTicksPerMs);
    return chip.run(3 * kTicksPerSec);
}

} // namespace

int
main()
{
    core::FixedGovernor baseline;
    core::SysScaleGovernor sysscale;

    const soc::RunMetrics base = measure(baseline);
    const soc::RunMetrics sys = measure(sysscale);

    std::printf("video playback (60fps, HD panel), 3s window\n\n");
    std::printf("%-12s %12s %12s %8s\n", "rail", "baseline W",
                "sysscale W", "delta");

    for (power::Rail rail : power::kAllRails) {
        const std::size_t i = power::railIndex(rail);
        const double b = base.railEnergy[i] / base.seconds;
        const double s = sys.railEnergy[i] / sys.seconds;
        std::printf("%-12s %12.4f %12.4f %+7.1f%%\n",
                    std::string(power::railName(rail)).c_str(), b, s,
                    b > 0.0 ? (s / b - 1.0) * 100.0 : 0.0);
    }
    std::printf("%-12s %12.4f %12.4f %+7.1f%%\n", "total",
                base.avgPower, sys.avgPower,
                (sys.avgPower / base.avgPower - 1.0) * 100.0);

    std::printf("\nSysScale parked the IO/memory domains at the low "
                "point for %.0f%% of the run\n",
                sys.lowPointResidency * 100.0);
    std::printf("QoS violations: %llu (the display never "
                "underruns)\n",
                static_cast<unsigned long long>(sys.qosViolations));
    std::printf("paper Fig. 9 anchor: video playback saves ~10.7%% "
                "average power\n");
    return 0;
}
