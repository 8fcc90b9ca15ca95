#include "cells.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_logic.hh"
#include "exp/agg.hh"
#include "workloads/battery.hh"
#include "workloads/graphics.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"
#include "workloads/sweep.hh"

namespace sweepbench {

using sysscale::Tick;
using sysscale::kTicksPerSec;
using sysscale::exp::ExperimentSpec;
using sysscale::exp::RunResult;
namespace workloads = sysscale::workloads;
namespace agg = sysscale::exp::agg;

namespace {

const std::vector<std::string> kFigureGovernors = {
    "fixed", "memscale-r", "coscale-r", "sysscale"};

/** Seeded cells compare the SysScale policy against the baseline. */
const std::vector<std::string> kSeededGovernors = {"fixed", "sysscale"};

ExperimentSpec
cell(const workloads::WorkloadProfile &w, const std::string &figure,
     const std::string &gov, double tdp, Tick window,
     const std::string &scenario = "")
{
    ExperimentSpec spec;
    spec.soc = sysscale::soc::skylakeConfig(tdp);
    spec.workload = w;
    spec.window = window;
    spec.governor = gov;
    spec.camera = w.name() == "video-conferencing";
    spec.id = figure + "/" + w.name() + "/" + gov;
    spec.labels = {{"figure", figure},
                   {"workload", w.name()},
                   {"governor", gov}};
    if (!scenario.empty()) {
        spec.scenario = workloads::scenarioByName(scenario);
        spec.id += "/" + scenario;
        spec.labels.emplace_back("scenario", scenario);
    }
    if (figure != "fig7" && figure != "fig9") {
        char tdp_s[32];
        std::snprintf(tdp_s, sizeof(tdp_s), "/%.3fW", tdp);
        spec.id += tdp_s;
    }
    return spec;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {Workload::SpecSweep,
                                              Workload::BatteryScenarios};
    return all;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::SpecSweep: return "spec-sweep";
      case Workload::BatteryScenarios: return "battery-scenarios";
    }
    return "?";
}

std::vector<ExperimentSpec>
specSweepCells(std::uint64_t seed)
{
    std::vector<ExperimentSpec> cells;
    // Fig. 7 exactly: at least two full phase periods, 4.5 W.
    for (const auto &w : workloads::specSuite()) {
        const Tick window =
            std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
        for (const auto &gov : kFigureGovernors)
            cells.push_back(cell(w, "fig7", gov, 4.5, window));
    }

    SeedRng rng(seed);
    const auto st = workloads::SynthSweep::generateClass(
        workloads::WorkloadClass::CpuSingleThread, 4, rng.next());
    const auto mt = workloads::SynthSweep::generateClass(
        workloads::WorkloadClass::CpuMultiThread, 4, rng.next());
    for (const auto *set : {&st, &mt}) {
        for (const auto &w : *set) {
            for (const auto &gov : kSeededGovernors) {
                cells.push_back(
                    cell(w, "synth", gov, 4.5, 2 * kTicksPerSec));
            }
        }
    }
    rng.shuffle(cells);
    return cells;
}

std::vector<ExperimentSpec>
batteryScenarioCells(std::uint64_t seed)
{
    std::vector<ExperimentSpec> cells;
    // Fig. 9 exactly: 3 s window, camera on for video-conferencing.
    for (const auto &w : workloads::batterySuite()) {
        for (const auto &gov : kFigureGovernors)
            cells.push_back(cell(w, "fig9", gov, 4.5, 3 * kTicksPerSec));
    }

    // The seed deals each base workload's scenarios a permutation of
    // fixed TDP levels (and orders the cells). Every seed thus runs
    // the same TDP mix: SynthSweep graphics profiles or free TDP draws
    // would make a round's cost swing with the seed.
    SeedRng rng(seed);
    std::vector<workloads::WorkloadProfile> bases =
        workloads::batterySuite();
    for (auto &g : workloads::graphicsSuite())
        bases.push_back(std::move(g));

    const std::vector<std::string> &scenarios = workloads::scenarioNames();
    for (const auto &w : bases) {
        std::vector<double> tdps;
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            tdps.push_back(3.5 + 0.5 * static_cast<double>(i));
        rng.shuffle(tdps);
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const std::string &scenario = scenarios[i];
            const double tdp = tdps[i];
            for (const auto &gov : kSeededGovernors) {
                cells.push_back(cell(w, "scenario", gov, tdp,
                                     2 * kTicksPerSec, scenario));
            }
        }
    }
    rng.shuffle(cells);
    return cells;
}

std::vector<ExperimentSpec>
cellsFor(Workload w, std::uint64_t seed)
{
    switch (w) {
      case Workload::SpecSweep:
        return specSweepCells(seed);
      case Workload::BatteryScenarios:
        return batteryScenarioCells(seed);
    }
    return {};
}

std::vector<Fidelity>
fidelityRows(const std::vector<RunResult> &results)
{
    std::vector<RunResult> fig7, fig9;
    for (const RunResult &r : results) {
        const std::string *fig = agg::findLabel(r, "figure");
        if (fig && *fig == "fig7")
            fig7.push_back(r);
        else if (fig && *fig == "fig9")
            fig9.push_back(r);
    }

    std::vector<Fidelity> rows;
    if (!fig7.empty()) {
        const agg::Metric ips = [](const RunResult &r) {
            return r.metrics.ips;
        };
        std::vector<double> gains;
        for (const agg::Group &g : agg::groupBy(fig7, "workload"))
            gains.push_back(
                agg::deltaVs(g, "governor", "sysscale", "fixed", ips));
        rows.push_back({"fig7 sysscale avg IPS gain %", agg::mean(gains),
                        9.2});
    }
    if (!fig9.empty()) {
        const std::map<std::string, double> paper = {
            {"web-browsing", 6.4},
            {"light-gaming", 9.5},
            {"video-conferencing", 7.6},
            {"video-playback", 10.7}};
        const agg::Metric power = [](const RunResult &r) {
            return r.metrics.avgPower;
        };
        for (const auto &w : workloads::batterySuite()) {
            for (const agg::Group &g : agg::groupBy(fig9, "workload")) {
                if (g.key != w.name())
                    continue;
                rows.push_back(
                    {"fig9 " + g.key + " sysscale power saving %",
                     -agg::deltaVs(g, "governor", "sysscale", "fixed",
                                   power),
                     paper.at(g.key)});
            }
        }
    }
    return rows;
}

} // namespace sweepbench
