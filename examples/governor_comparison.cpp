/**
 * @file
 * Governor shoot-out: run a mixed workload set under the fixed
 * baseline, MemScale-R, CoScale-R, and SysScale, and print the
 * paper's comparison in miniature (Fig. 7/8/9 in one table).
 */

#include <cstdio>
#include <vector>

#include "core/governors.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/graphics.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

soc::RunMetrics
measure(const workloads::WorkloadProfile &w,
        core::Governor &governor)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::HD, 60.0, 4});
    workloads::ProfileAgent agent(w);
    chip.setWorkload(&agent);
    chip.pmu().setGovernor(&governor);
    chip.run(200 * kTicksPerMs);
    return chip.run(2 * kTicksPerSec);
}

} // namespace

int
main()
{
    const std::vector<workloads::WorkloadProfile> set = {
        workloads::specBenchmark("416.gamess"),   // compute bound
        workloads::specBenchmark("400.perlbench"),// mostly compute
        workloads::specBenchmark("470.lbm"),      // bandwidth bound
        workloads::specBenchmark("429.mcf"),      // latency bound
        workloads::threeDMark06(),                // graphics
        workloads::videoPlayback(),               // battery life
    };

    std::printf("%-18s %-8s %12s %12s %12s %12s\n", "workload",
                "metric", "baseline", "memscale-r", "coscale-r",
                "sysscale");

    for (const auto &w : set) {
        core::FixedGovernor base;
        core::MemScaleGovernor ms(true);
        core::CoScaleGovernor cs(true);
        core::SysScaleGovernor ss;

        const bool battery =
            w.klass() == workloads::WorkloadClass::BatteryLife;
        const bool gfx =
            w.klass() == workloads::WorkloadClass::Graphics;

        auto value = [&](core::Governor &p) {
            const soc::RunMetrics m = measure(w, p);
            if (battery)
                return m.avgPower;
            return gfx ? m.fps : m.ips / 1e9;
        };

        const char *metric =
            battery ? "watts" : (gfx ? "fps" : "Gips");
        std::printf("%-18s %-8s %12.3f %12.3f %12.3f %12.3f\n",
                    w.name().c_str(), metric, value(base), value(ms),
                    value(cs), value(ss));
    }

    std::printf("\nexpected shape (paper): SysScale boosts the "
                "compute-bound rows and 3DMark, leaves lbm/mcf "
                "untouched, and cuts video-playback watts; prior "
                "work moves every metric only slightly.\n");
    return 0;
}
