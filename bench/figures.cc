/**
 * @file
 * The figure registry (figures.hh): each figure's cells and its
 * reduction, in paper order. Cells are exp::ExperimentSpecs built
 * directly on the spec's defaults — the Table 2 Skylake SoC at
 * 4.5 W, the laptop HD panel on, a 200 ms warmup and a 2 s window —
 * and reductions go through the exp::agg helpers.
 */

#include "bench/figures.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>

#include "core/governor_registry.hh"
#include "core/governors.hh"
#include "core/threshold_trainer.hh"
#include "core/transition_flow.hh"
#include "exp/agg.hh"
#include "exp/report.hh"
#include "sim/sim_object.hh"
#include "workloads/battery.hh"
#include "workloads/graphics.hh"
#include "workloads/micro.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"
#include "workloads/sweep.hh"

namespace sysscale {
namespace bench {

namespace {

using exp::ExperimentSpec;
using exp::RunResult;
namespace agg = exp::agg;

/** The governors the paper compares in Figs. 7-9. */
const std::vector<std::string> kPaperGovernors = {
    "fixed", "memscale-r", "coscale-r", "sysscale"};

/** Percent delta: (b - a) / a in percent. */
double
pct(double a, double b)
{
    return (b / a - 1.0) * 100.0;
}

double
ipsOf(const RunResult &r)
{
    return r.metrics.ips;
}

double
powerOf(const RunResult &r)
{
    return r.metrics.avgPower;
}

/** A cell of @p w on the spec defaults. */
ExperimentSpec
cell(const workloads::WorkloadProfile &w, std::string id,
     exp::Labels labels = {})
{
    ExperimentSpec spec;
    spec.id = std::move(id);
    spec.workload = w;
    spec.labels = std::move(labels);
    return spec;
}

/** A @p gov cell of @p w labeled by workload and governor. */
ExperimentSpec
governorCell(const workloads::WorkloadProfile &w, const std::string &gov)
{
    ExperimentSpec spec = cell(w, w.name() + "/" + gov,
                               {{"workload", w.name()},
                                {"governor", gov}});
    spec.governor = gov;
    return spec;
}

/** SPEC window: at least two full phase periods of phased profiles. */
Tick
specWindow(const workloads::WorkloadProfile &w)
{
    return std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
}

/** The row of @p g labeled @p label=@p value; exits when absent. */
const RunResult &
rowOf(const agg::Group &g, const char *label, const char *value)
{
    if (const RunResult *r = agg::findRow(g.rows, label, value))
        return *r;
    std::fprintf(stderr, "figures: no %s=%s row for \"%s\"\n", label,
                 value, g.key.c_str());
    std::exit(1);
}

/** The group keyed @p key; exits when absent. */
const agg::Group &
groupOf(const std::vector<agg::Group> &groups, const std::string &key)
{
    for (const agg::Group &g : groups) {
        if (g.key == key)
            return g;
    }
    std::fprintf(stderr, "figures: no result group \"%s\"\n",
                 key.c_str());
    std::exit(1);
}

std::vector<ExperimentSpec>
noCells()
{
    return {};
}

// --------------------------------------------------------------------
// Fig. 2: motivation on the Broadwell-class system. One cell per
// (workload, setup): "base" (default point), "md" (pinned low point)
// and "redist" (low point plus the 100 MHz core budget
// redistribution), reduced as deltas against the base setup:
// (a) power/energy/perf/EDP, (b) bottleneck decomposition,
// (c) memory bandwidth demand.
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
fig2Cells()
{
    const struct
    {
        const char *name;
        bool lowPoint;
        Hertz coreFreq;
    } setups[] = {
        {"base", false, 1.2 * kGHz},
        {"md", true, 1.2 * kGHz},
        {"redist", true, 1.3 * kGHz},
    };

    std::vector<ExperimentSpec> specs;
    for (const char *name :
         {"400.perlbench", "436.cactusADM", "470.lbm"}) {
        const auto w = workloads::specBenchmark(name);
        for (const auto &s : setups) {
            ExperimentSpec spec = cell(w, std::string(name) + "/" + s.name,
                                       {{"workload", name},
                                        {"setup", s.name}});
            spec.soc = soc::broadwellConfig();
            spec.pinnedCoreFreq = s.coreFreq;
            if (s.lowPoint)
                spec.pinnedOpPoint = soc::OpPointTable(spec.soc).low();
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
fig2Reduce(const std::vector<RunResult> &results)
{
    const auto groups = agg::groupBy(results, "workload");
    const auto delta = [](const agg::Group &g, const char *setup,
                          const agg::Metric &m) {
        return agg::deltaVs(g, "setup", setup, "base", m);
    };
    const agg::Metric energy = [](const RunResult &r) {
        return r.metrics.energy;
    };
    const agg::Metric edp_per_ips = [](const RunResult &r) {
        return r.metrics.edp / r.metrics.ips;
    };

    std::printf("(a) MD-DVFS at fixed 1.2GHz cores vs baseline "
                "(paper: power -10..-11%%; cactusADM/lbm perf loss "
                ">10%%)\n");
    std::printf("%-16s %8s %8s %8s %8s %12s\n", "workload", "power",
                "energy", "perf", "EDP", "perf@1.3GHz");
    for (const agg::Group &g : groups) {
        std::printf("%-16s %+7.1f%% %+7.1f%% %+7.1f%% %+7.1f%% "
                    "%+11.1f%%\n",
                    g.key.c_str(), delta(g, "md", powerOf),
                    delta(g, "md", energy), delta(g, "md", ipsOf),
                    delta(g, "md", edp_per_ips),
                    delta(g, "redist", ipsOf));
    }

    std::printf("\n(b) bottleneck decomposition (fraction of "
                "execution bound by each)\n");
    std::printf("%-16s %10s %10s %12s\n", "workload", "mem-lat",
                "mem-bw", "non-memory");
    for (const agg::Group &g : groups) {
        const RunResult &base = rowOf(g, "setup", "base");
        const auto w = workloads::specBenchmark(g.key);
        const auto &work = w.phase(0).work;
        // Decompose CPI at the baseline point: latency share is the
        // exposed-miss CPI; bandwidth share is flagged when the
        // demand saturates the interface.
        const double lat_cycles =
            base.metrics.avgMemLatencyNs * 1e-9 * 1.2e9;
        const double mem_cpi =
            work.mpki / 1000.0 * work.blockingFactor * lat_cycles;
        const double cpi = work.cpiBase + mem_cpi;
        const double bw_demand = base.metrics.avgMemBandwidth;
        const double bw_bound =
            bw_demand > 0.55 * 23e9
                ? (bw_demand / 23e9 - 0.55) / 0.45
                : 0.0;
        const double lat_share =
            (mem_cpi / cpi) * (1.0 - bw_bound);
        std::printf("%-16s %9.0f%% %9.0f%% %11.0f%%\n",
                    g.key.c_str(), lat_share * 100.0,
                    bw_bound * 100.0,
                    (1.0 - lat_share - bw_bound) * 100.0);
    }

    std::printf("\n(c) memory bandwidth demand (paper: perlbench "
                "low w/ spikes, cactusADM moderate, lbm ~10GB/s)\n");
    std::printf("%-16s %12s\n", "workload", "avg BW");
    for (const agg::Group &g : groups) {
        std::printf("%-16s %9.2f GB/s\n", g.key.c_str(),
                    rowOf(g, "setup", "base").metrics.avgMemBandwidth /
                        1e9);
    }
}

// --------------------------------------------------------------------
// Fig. 3: (a) memory bandwidth demand over time for three SPEC
// benchmarks and 3DMark; (b) static bandwidth demand of the display
// engine, ISP, and graphics engines per configuration.
//
// Part (a)'s time series is one cell per (workload, 200 ms window),
// each warming up to its window's start: the model is deterministic,
// so the windows are exactly the successive windows of one long run.
// The graphics-suite cells for (b) follow the series cells.
// --------------------------------------------------------------------

constexpr std::size_t kFig3Series = 4;
constexpr std::size_t kFig3Windows = 12;

std::vector<ExperimentSpec>
fig3Cells()
{
    const workloads::WorkloadProfile profiles[kFig3Series] = {
        workloads::specBenchmark("400.perlbench"),
        workloads::specBenchmark("470.lbm"),
        workloads::specBenchmark("473.astar"),
        workloads::threeDMark06(),
    };

    std::vector<ExperimentSpec> specs;
    for (const auto &w : profiles) {
        for (std::size_t i = 0; i < kFig3Windows; ++i) {
            ExperimentSpec spec =
                cell(w, w.name() + "/t" + std::to_string(i),
                     {{"workload", w.name()},
                      {"window", std::to_string(i)}});
            spec.warmup = 100 * kTicksPerMs +
                          static_cast<Tick>(i) * 200 * kTicksPerMs;
            spec.window = 200 * kTicksPerMs;
            specs.push_back(std::move(spec));
        }
    }
    for (const auto &w : workloads::graphicsSuite())
        specs.push_back(cell(w, w.name()));
    return specs;
}

void
fig3Reduce(const std::vector<RunResult> &results)
{
    std::printf("(a) bandwidth demand vs time (GB/s per 200ms "
                "window)\n");
    constexpr std::size_t series_cells = kFig3Series * kFig3Windows;
    for (std::size_t at = 0; at < series_cells; at += kFig3Windows) {
        std::printf("%-16s",
                    agg::findLabel(results[at], "workload")->c_str());
        for (std::size_t i = at; i < at + kFig3Windows; ++i)
            std::printf(" %5.1f", results[i].metrics.avgMemBandwidth / 1e9);
        std::printf("\n");
    }

    std::printf("\n(b) static/engine demand by configuration "
                "(%% of 25.6 GB/s peak; paper: HD ~17%%, 4K ~70%%)\n");
    const struct
    {
        const char *name;
        io::PanelResolution res;
        double refresh;
    } panels[] = {
        {"display 1x HD@60", io::PanelResolution::HD, 60.0},
        {"display 1x FHD@60", io::PanelResolution::FHD, 60.0},
        {"display 1x QHD@60", io::PanelResolution::QHD, 60.0},
        {"display 1x 4K@60", io::PanelResolution::UHD4K, 60.0},
    };
    for (const auto &p : panels) {
        const BytesPerSec bw = io::DisplayEngine::panelBandwidth(
            io::PanelConfig{p.res, p.refresh, 4});
        std::printf("%-22s %6.2f GB/s  (%4.1f%%)\n", p.name, bw / 1e9,
                    bw / 25.6e9 * 100.0);
    }
    {
        Simulator sim(1);
        soc::Soc chip(sim, soc::skylakeConfig());
        const io::PanelConfig hd{io::PanelResolution::HD, 60.0, 4};
        chip.display().attachPanel(0, hd);
        chip.display().attachPanel(1, hd);
        chip.display().attachPanel(2, hd);
        const BytesPerSec bw = chip.display().bandwidthDemand();
        std::printf("%-22s %6.2f GB/s  (%4.1f%%)\n", "display 3x HD@60",
                    bw / 1e9, bw / 25.6e9 * 100.0);
    }
    {
        Simulator sim(1);
        soc::Soc chip(sim, soc::skylakeConfig());
        chip.isp().startCamera(io::CameraConfig{1280, 720, 30.0, 2});
        std::printf("%-22s %6.2f GB/s  (%4.1f%%)\n", "ISP 720p30 camera",
                    chip.isp().bandwidthDemand() / 1e9,
                    chip.isp().bandwidthDemand() / 25.6e9 * 100.0);
        chip.isp().startCamera(io::CameraConfig{1920, 1080, 60.0, 2});
        std::printf("%-22s %6.2f GB/s  (%4.1f%%)\n", "ISP 1080p60 camera",
                    chip.isp().bandwidthDemand() / 1e9,
                    chip.isp().bandwidthDemand() / 25.6e9 * 100.0);
    }

    for (auto it = results.begin() + series_cells; it != results.end();
         ++it) {
        std::printf("GFX %-18s %6.2f GB/s  (%4.1f%%)\n",
                    it->workload.c_str(),
                    it->metrics.avgMemBandwidth / 1e9,
                    it->metrics.avgMemBandwidth / 25.6e9 * 100.0);
    }
}

// --------------------------------------------------------------------
// Fig. 4: unoptimized MRC values on a memory-bandwidth-intensive
// microbenchmark (paper: average power +22%, performance -10% vs
// optimized values). Two pinned cells, reduced against the
// optimized-MRC cell.
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
fig4Cells()
{
    const auto stream = workloads::streamMicro();
    std::vector<ExperimentSpec> specs;
    for (const bool unoptimized : {false, true}) {
        const char *mrc = unoptimized ? "unoptimized" : "optimized";
        ExperimentSpec spec =
            cell(stream, stream.name() + "/" + mrc,
                 {{"bench", "fig4"}, {"mrc", mrc}});
        spec.pinnedCoreFreq = 1.2 * kGHz;
        spec.pinnedOpPoint = soc::OpPointTable(spec.soc).low();
        spec.pinnedUnoptimizedMrc = unoptimized;
        specs.push_back(std::move(spec));
    }
    return specs;
}

void
fig4Reduce(const std::vector<RunResult> &results)
{
    const RunResult &optimized = results[0];
    const RunResult &unopt = results[1];

    // Both cells share the "bench" label, so they reduce as one
    // group with the optimized cell as baseline.
    const agg::Group g = agg::groupBy(results, "bench").front();
    const auto delta = [&](const agg::Metric &m) {
        return agg::deltaVs(g, "mrc", "unoptimized", "optimized", m);
    };
    const auto vddq = [](const RunResult &r) {
        return r.metrics.railEnergy[power::railIndex(power::Rail::VDDQ)];
    };

    // The paper measures total average power and benchmark
    // performance.
    std::printf("%-28s %10s %10s\n", "metric", "measured", "paper");
    std::printf("%-28s %+9.1f%% %10s\n", "average power increase",
                delta(powerOf), "+22%");
    std::printf("%-28s %+9.1f%% %10s\n", "performance degradation",
                -delta(ipsOf), "10%");

    std::printf("\noptimized:   %6.2f GB/s, %6.3f W\n",
                optimized.metrics.avgMemBandwidth / 1e9,
                optimized.metrics.avgPower);
    std::printf("unoptimized: %6.2f GB/s, %6.3f W\n",
                unopt.metrics.avgMemBandwidth / 1e9,
                unopt.metrics.avgPower);
    std::printf("VDDQ rail energy: optimized %.3f J, unoptimized "
                "%.3f J (%+.1f%%)\n",
                vddq(optimized), vddq(unopt), delta(vddq));
}

// --------------------------------------------------------------------
// Fig. 5 / Sec. 5: the transition-flow step decomposition and its
// <10us latency budget, plus the hardware-cost accounting (MRC SRAM
// ~0.5KB, firmware ~0.6KB). Runs its own SoC; no cells.
// --------------------------------------------------------------------

void
printFlow(const char *label, const core::FlowReport &r)
{
    std::printf("\n%s (total %.2f us, %s)\n", label,
                usFromTicks(r.totalLatency),
                r.increased ? "frequency increase"
                            : "frequency decrease");
    for (std::size_t i = 0; i < core::kNumFlowSteps; ++i) {
        std::printf("  step %zu  %-16s %8.3f us\n", i + 1,
                    r.steps[i].name, usFromTicks(r.steps[i].latency));
    }
}

void
fig5Reduce(const std::vector<RunResult> &)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());

    core::TransitionFlow flow(chip);
    const core::FlowReport down = flow.execute(chip.opPoints().low());
    printFlow("high -> low (SysScale)", down);

    sim.run(kTicksPerMs);
    const core::FlowReport up = flow.execute(chip.opPoints().high());
    printFlow("low -> high (SysScale)", up);

    std::printf("\npaper bound: < 10 us; measured: %.2f / %.2f us "
                "(%s)\n",
                usFromTicks(down.totalLatency),
                usFromTicks(up.totalLatency),
                down.totalLatency < 10 * kTicksPerUs &&
                        up.totalLatency < 10 * kTicksPerUs
                    ? "PASS"
                    : "FAIL");

    // The legacy path a governor without SysScale's hardware pays.
    Simulator sim2(1);
    soc::Soc chip2(sim2, soc::skylakeConfig());
    core::FlowOptions legacy;
    legacy.scaleFabric = false;
    legacy.scaleVsa = false;
    legacy.scaleVio = false;
    legacy.useOptimizedMrc = false;
    legacy.sramMrc = false;
    core::TransitionFlow slow_flow(chip2, legacy);
    soc::OperatingPoint target = chip2.opPoints().low();
    target.mrcTrainedBin = 0;
    const core::FlowReport slow = slow_flow.execute(target);
    std::printf("\nwithout SRAM-cached MRC + fast relock (MemScale/"
                "CoScale path): %.1f us\n",
                usFromTicks(slow.totalLatency));

    std::printf("\nSec. 5 hardware cost accounting:\n");
    std::printf("  MRC SRAM: %zu bytes (budget %zu)\n",
                chip.mrc().sramBytes(),
                mem::MrcStore::kSramBudgetBytes);
    core::SysScaleGovernor gov;
    std::printf("  PMU firmware: %zu bytes (budget %zu)\n",
                gov.firmwareBytes(),
                soc::Pmu::kFirmwareBudgetBytes);
}

// --------------------------------------------------------------------
// Fig. 6: actual vs predicted performance impact of reducing the
// DRAM frequency across >1600 synthetic workloads in three classes
// and three frequency pairs. Each (class, pair) panel measures every
// workload pinned at both operating points, trains the mu+sigma
// thresholds and the linear impact model (Sec. 4.2), and reports
// prediction accuracy, the actual-vs-predicted correlation, and the
// false positives (the paper reports zero). The cells run panel by
// panel, each workload's (hi, lo) pair adjacent.
// --------------------------------------------------------------------

const struct
{
    double hi;
    double lo;
} kFig6Pairs[] = {{1600.0, 800.0}, {1600.0, 1066.0}, {2133.0, 1066.0}};

const struct
{
    workloads::WorkloadClass klass;
    const char *name;
    std::size_t count;
} kFig6Classes[] = {
    {workloads::WorkloadClass::CpuSingleThread, "CPU-ST", 900},
    {workloads::WorkloadClass::CpuMultiThread, "CPU-MT", 400},
    {workloads::WorkloadClass::Graphics, "Graphics", 320},
};

std::vector<ExperimentSpec>
fig6Cells()
{
    std::vector<ExperimentSpec> specs;
    for (std::size_t c = 0; c < std::size(kFig6Classes); ++c) {
        const auto corpus = workloads::SynthSweep::generateClass(
            kFig6Classes[c].klass, kFig6Classes[c].count, 0x5ca1e5 ^ c);
        for (const auto &pair : kFig6Pairs) {
            soc::SocConfig cfg = soc::skylakeConfig();
            cfg.dramSpec = dram::DramSpec(
                dram::DramType::LPDDR3,
                {dram::FreqBin{pair.hi}, dram::FreqBin{pair.lo}},
                2, 8, 1, 2, 8);
            cfg.name = "skylake-sweep";
            const soc::OpPointTable table(cfg);
            for (const auto &w : corpus) {
                for (const bool low : {false, true}) {
                    const char *point = low ? "lo" : "hi";
                    ExperimentSpec spec =
                        cell(w, w.name() + "/" + point,
                             {{"workload", w.name()}, {"point", point}});
                    spec.soc = cfg;
                    spec.warmup = 60 * kTicksPerMs;
                    spec.window = 200 * kTicksPerMs;
                    if (kFig6Classes[c].klass !=
                        workloads::WorkloadClass::Graphics) {
                        spec.pinnedCoreFreq = 1.2 * kGHz;
                    }
                    spec.pinnedOpPoint = low ? table.low() : table.high();
                    specs.push_back(std::move(spec));
                }
            }
        }
    }
    return specs;
}

void
fig6Reduce(const std::vector<RunResult> &results)
{
    // Paper panel annotations, [class][pair].
    const double paper_corr[3][3] = {{0.92, 0.86, 0.89},
                                     {0.89, 0.87, 0.84},
                                     {0.96, 0.95, 0.95}};
    const double paper_acc[3] = {97.7, 94.2, 98.8};

    std::printf("%-9s %-12s %6s %9s %12s %6s %14s\n", "class",
                "pair(MT/s)", "n", "accuracy", "correlation", "FPs",
                "paper(corr/acc)");

    std::size_t total = 0;
    auto row = results.begin();
    for (std::size_t c = 0; c < std::size(kFig6Classes); ++c) {
        const bool gfx =
            kFig6Classes[c].klass == workloads::WorkloadClass::Graphics;
        for (std::size_t p = 0; p < std::size(kFig6Pairs); ++p) {
            std::vector<core::TrainingSample> samples;
            samples.reserve(kFig6Classes[c].count);
            for (std::size_t i = 0; i < kFig6Classes[c].count; ++i) {
                const RunResult &hi = *row++;
                const RunResult &lo = *row++;
                core::TrainingSample s;
                s.counters = hi.counters;
                const double ph = gfx ? hi.metrics.fps : hi.metrics.ips;
                const double pl = gfx ? lo.metrics.fps : lo.metrics.ips;
                s.normPerf = ph > 0.0 ? std::min(pl / ph, 1.0) : 1.0;
                samples.push_back(s);
            }
            total += samples.size();

            const core::Thresholds thr =
                core::ThresholdTrainer::train(samples, 0.01);
            const core::LinearImpactModel model =
                core::ThresholdTrainer::fitLinear(samples);
            const core::DemandPredictor pred(thr, model);
            const core::PredictionStats stats =
                core::ThresholdTrainer::evaluate(pred, samples, 0.01);

            std::printf("%-9s %4.0f->%-7.0f %6zu %8.1f%% %12.3f %6zu"
                        "   %.2f / %.1f%%\n",
                        kFig6Classes[c].name, kFig6Pairs[p].hi,
                        kFig6Pairs[p].lo, samples.size(),
                        stats.accuracy * 100.0, stats.correlation,
                        stats.falsePositives, paper_corr[c][p],
                        paper_acc[c]);
        }
    }

    std::printf("\ntotal workload runs: %zu workloads x 2 points "
                "(paper: >1600 workloads)\n", total);
}

// --------------------------------------------------------------------
// Fig. 7: SPEC CPU2006 performance improvement of MemScale-Redist,
// CoScale-Redist, and SysScale over the fixed baseline at 4.5 W TDP
// (paper averages: 1.7%, 3.8%, 9.2%; SysScale up to 16%). Each
// governor's gain is its delta against the fixed cell of the same
// benchmark; the columns then average.
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
fig7Cells()
{
    std::vector<ExperimentSpec> specs;
    for (const auto &w : workloads::specSuite()) {
        for (const auto &gov : kPaperGovernors) {
            ExperimentSpec spec = governorCell(w, gov);
            spec.window = specWindow(w);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
fig7Reduce(const std::vector<RunResult> &results)
{
    std::printf("%-18s %10s %10s %10s\n", "benchmark", "MemScale-R",
                "CoScale-R", "SysScale");

    std::map<std::string, std::vector<double>> columns;
    for (const agg::Group &g : agg::groupBy(results, "workload")) {
        // deltaVs throws on a missing axis value: the figure fails
        // loudly rather than printing a silent +0.0% column.
        std::map<std::string, double> row;
        for (const char *gov : {"memscale-r", "coscale-r", "sysscale"}) {
            row[gov] = agg::deltaVs(g, "governor", gov, "fixed", ipsOf);
            columns[gov].push_back(row[gov]);
        }
        std::printf("%-18s %+9.1f%% %+9.1f%% %+9.1f%%\n",
                    g.key.c_str(), row["memscale-r"],
                    row["coscale-r"], row["sysscale"]);
    }

    std::printf("%-18s %+9.1f%% %+9.1f%% %+9.1f%%\n", "AVERAGE",
                agg::mean(columns["memscale-r"]),
                agg::mean(columns["coscale-r"]),
                agg::mean(columns["sysscale"]));
    std::printf("%-18s %10s %10s %+9.1f%%\n", "MAX (SysScale)", "",
                "", agg::percentile(columns["sysscale"], 100.0));
    std::printf("\npaper: MemScale-R +1.7%%, CoScale-R +3.8%%, "
                "SysScale +9.2%% avg / +16%% max\n");
}

// --------------------------------------------------------------------
// Fig. 8: 3DMark performance improvement of MemScale-R, CoScale-R,
// and SysScale over the fixed baseline (paper: SysScale +8.9%,
// +6.7%, +8.1%; prior work ~1.3-1.8%).
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
fig8Cells()
{
    std::vector<ExperimentSpec> specs;
    for (const auto &w : workloads::graphicsSuite()) {
        for (const auto &gov : kPaperGovernors)
            specs.push_back(governorCell(w, gov));
    }
    return specs;
}

void
fig8Reduce(const std::vector<RunResult> &results)
{
    const double paper_ss[] = {8.9, 6.7, 8.1};
    const agg::Metric fps = [](const RunResult &r) {
        return r.metrics.fps;
    };

    std::printf("%-16s %9s %10s %10s %10s %8s\n", "benchmark",
                "base fps", "MemScale-R", "CoScale-R", "SysScale",
                "paper");

    const auto groups = agg::groupBy(results, "workload");
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const agg::Group &g = groups[i];
        std::printf("%-16s %9.1f %+9.1f%% %+9.1f%% %+9.1f%% %+7.1f%%\n",
                    g.key.c_str(),
                    rowOf(g, "governor", "fixed").metrics.fps,
                    agg::deltaVs(g, "governor", "memscale-r", "fixed",
                                 fps),
                    agg::deltaVs(g, "governor", "coscale-r", "fixed",
                                 fps),
                    agg::deltaVs(g, "governor", "sysscale", "fixed",
                                 fps),
                    paper_ss[i]);
    }
    std::printf("\npaper: SysScale gains ~5x MemScale-R/CoScale-R; "
                "CPU cores sit at Pn so CoScale == MemScale here\n");
}

// --------------------------------------------------------------------
// Fig. 9: average power reduction on the battery-life suite with one
// HD panel active (paper: web 6.4%, light gaming 9.5%, video
// conferencing 7.6%, video playback 10.7%; prior work 1.3-2.1%).
// A power reduction is the negated delta against the fixed cell.
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
fig9Cells()
{
    std::vector<ExperimentSpec> specs;
    for (const auto &w : workloads::batterySuite()) {
        for (const auto &gov : kPaperGovernors) {
            ExperimentSpec spec = governorCell(w, gov);
            spec.camera = w.name() == "video-conferencing";
            spec.window = 3 * kTicksPerSec;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
fig9Reduce(const std::vector<RunResult> &results)
{
    const std::map<std::string, double> paper_ss = {
        {"web-browsing", 6.4},
        {"light-gaming", 9.5},
        {"video-conferencing", 7.6},
        {"video-playback", 10.7},
    };

    std::printf("%-20s %8s %10s %10s %10s %8s\n", "workload",
                "base W", "MemScale-R", "CoScale-R", "SysScale",
                "paper");

    for (const agg::Group &g : agg::groupBy(results, "workload")) {
        const auto reduction = [&](const char *gov) {
            return -agg::deltaVs(g, "governor", gov, "fixed", powerOf);
        };
        std::printf(
            "%-20s %8.3f %+9.1f%% %+9.1f%% %+9.1f%% %+7.1f%%\n",
            g.key.c_str(),
            rowOf(g, "governor", "fixed").metrics.avgPower,
            reduction("memscale-r"), reduction("coscale-r"),
            reduction("sysscale"),
            paper_ss.at(g.key)); // .at: unknown workload fails loudly
    }
    std::printf("\npaper: fixed performance demands; SysScale saves "
                "power only while DRAM is active (C0/C2)\n");
}

// --------------------------------------------------------------------
// Fig. 10: SysScale's SPEC CPU2006 benefit vs SoC TDP (a violin in
// the paper; rows of distribution statistics here). Paper: 19.1%
// average (up to 33%) at 3.5 W, shrinking as TDP grows. Cells run
// TDP-major, each benchmark's (fixed, sysscale) pair adjacent.
// --------------------------------------------------------------------

const double kFig10Tdps[] = {3.5, 4.5, 7.0, 15.0};

std::vector<ExperimentSpec>
fig10Cells()
{
    std::vector<ExperimentSpec> specs;
    for (const double tdp : kFig10Tdps) {
        for (const auto &w : workloads::specSuite()) {
            for (const char *gov : {"fixed", "sysscale"}) {
                char id[96];
                std::snprintf(id, sizeof(id), "%s/%s/%.3gW",
                              w.name().c_str(), gov, tdp);
                ExperimentSpec spec = cell(w, id);
                spec.soc = soc::skylakeConfig(tdp);
                spec.window = specWindow(w);
                spec.governor = gov;
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

void
fig10Reduce(const std::vector<RunResult> &results)
{
    std::printf("%-8s %8s %8s %8s %8s\n", "TDP", "average", "median",
                "max", "min");

    const std::size_t per_tdp = results.size() / std::size(kFig10Tdps);
    auto row = results.begin();
    for (const double tdp : kFig10Tdps) {
        std::vector<double> gains;
        for (std::size_t i = 0; i < per_tdp; i += 2, row += 2)
            gains.push_back(pct(row[0].metrics.ips, row[1].metrics.ips));
        std::sort(gains.begin(), gains.end());
        double sum = 0.0;
        for (double g : gains)
            sum += g;
        std::printf("%5.1fW %+7.1f%% %+7.1f%% %+7.1f%% %+7.1f%%\n",
                    tdp, sum / gains.size(),
                    gains[gains.size() / 2], gains.back(),
                    gains.front());
    }

    std::printf("\npaper: 3.5W avg +19.1%% (max +33%%); benefit "
                "shrinks as TDP grows (power becomes ample)\n");
}

// --------------------------------------------------------------------
// Table 1: the two real experimental setups (baseline vs MD-DVFS) as
// realized by the operating-point table.
// --------------------------------------------------------------------

void
table1Reduce(const std::vector<RunResult> &)
{
    const soc::SocConfig cfg = soc::skylakeConfig();
    const soc::OpPointTable table(cfg);
    const soc::OperatingPoint &hi = table.high();
    const soc::OperatingPoint &lo = table.low();

    std::printf("%-22s %14s %14s  (paper)\n", "component", "baseline",
                "MD-DVFS");
    std::printf("%-22s %11.2fGHz %11.2fGHz  1.6 -> 1.06 GHz\n",
                "DRAM frequency",
                cfg.dramSpec.bin(hi.dramBin).transferRate() / 1e9,
                cfg.dramSpec.bin(lo.dramBin).transferRate() / 1e9);
    std::printf("%-22s %11.2fGHz %11.2fGHz  0.8 -> 0.4 GHz\n",
                "IO interconnect", hi.fabricFreq / 1e9,
                lo.fabricFreq / 1e9);
    std::printf("%-22s %12.2fV %12.2fV   V_SA -> 0.8*V_SA\n",
                "shared voltage V_SA", hi.vSa, lo.vSa);
    std::printf("%-22s %12.2fV %12.2fV   V_IO -> 0.85*V_IO\n",
                "DDRIO digital V_IO", hi.vIo, lo.vIo);
    std::printf("%-22s %11.2fGHz %11.2fGHz  unchanged\n",
                "2 cores (4 threads)", 1.2, 1.2);

    std::printf("\nIO+memory budget demand: high %.3fW, low %.3fW "
                "(freed: %.3fW)\n",
                soc::ioMemBudgetDemand(cfg, hi),
                soc::ioMemBudgetDemand(cfg, lo),
                soc::ioMemBudgetDemand(cfg, hi) -
                    soc::ioMemBudgetDemand(cfg, lo));
}

// --------------------------------------------------------------------
// Table 2: SoC and memory parameters of the evaluated systems.
// --------------------------------------------------------------------

void
printConfig(const soc::SocConfig &cfg)
{
    std::printf("\n[%s]\n", cfg.name.c_str());
    std::printf("  CPU cores:            %zu (x%zu threads)\n",
                cfg.cores, cfg.threadsPerCore);
    std::printf("  core base frequency:  %.1f GHz\n",
                cfg.coreBaseFreq / 1e9);
    std::printf("  gfx base frequency:   %.0f MHz\n",
                cfg.gfxBaseFreq / 1e6);
    std::printf("  L3 cache (LLC):       %zu MB\n",
                cfg.llcBytes / (1024 * 1024));
    std::printf("  TDP:                  %.1f W\n", cfg.tdp);
    std::printf("  memory:               %s, %zu-channel, peak %.1f "
                "GB/s\n",
                cfg.dramSpec.name().c_str(), cfg.dramSpec.channels(),
                cfg.dramSpec.peakBandwidth(0) / 1e9);
    std::printf("  frequency bins:      ");
    for (std::size_t i = 0; i < cfg.dramSpec.numBins(); ++i)
        std::printf(" %.0fMT/s", cfg.dramSpec.bin(i).dataRateMTs);
    std::printf("\n");
    cfg.validate();
}

void
table2Reduce(const std::vector<RunResult> &)
{
    printConfig(soc::skylakeConfig());     // M-6Y75 (SysScale host)
    printConfig(soc::broadwellConfig());   // M-5Y71 (motivation system)
    printConfig(soc::skylakeDdr4Config()); // Sec. 7.4 sensitivity build
    std::printf("\nall configurations validate\n");
}

// --------------------------------------------------------------------
// Ablation (beyond the paper): which SysScale feature delivers how
// much of the win. Each variant knocks out one design element, as a
// parameter of the registered sysscale governor:
//
//  - no optimized MRC  (Observation 4 / Fig. 4 penalties apply)
//  - no V_IO scaling   (DDRIO-digital stays at boot voltage)
//  - no fabric scaling (V_SA cannot drop; memory-domain-only)
//  - no SRAM MRC       (firmware recompute on every transition)
//  - no redistribution (power saved but not re-granted)
//
// Cells are labeled (workload, variant) and reduce as deltas against
// the fixed cell of the same workload.
// --------------------------------------------------------------------

const char *const kAblationBenches[] = {"416.gamess", "400.perlbench",
                                        "473.astar"};

const char *const kVariantNames[] = {
    "full sysscale", "no optimized MRC", "no V_IO scaling",
    "no fabric/V_SA", "no SRAM MRC",
};

/** The sysscale parameter each variant clears (none for the first). */
const char *const kVariantKnockouts[] = {
    nullptr, "optimized-mrc", "scale-vio", "scale-fabric", "sram-mrc",
};

/** The default-window no-redistribution check's workload label: it
 *  must not collide with the long-window 416.gamess group. */
const char *const kGamessDefaultWindow = "416.gamess@default-window";

std::vector<ExperimentSpec>
ablationCells()
{
    std::vector<ExperimentSpec> specs;
    // Label @p spec with its (workload, variant) coordinates. The
    // "fixed" variant runs the baseline; every other one runs
    // sysscale with @p knockout (null = none) cleared.
    const auto add =[&](ExperimentSpec spec, const std::string &workload,
                         const std::string &variant,
                         const char *knockout) {
        spec.id = workload + "/" + variant;
        spec.labels = {{"workload", workload}, {"variant", variant}};
        if (variant == "fixed") {
            spec.governor = "fixed";
        } else {
            spec.governor = "sysscale";
            if (knockout)
                spec.governorParams = {{knockout, "0"}};
        }
        specs.push_back(std::move(spec));
    };
    const auto addVariants = [&](const ExperimentSpec &spec,
                                 const std::string &workload) {
        add(spec, workload, "fixed", nullptr);
        for (std::size_t v = 0; v < std::size(kVariantNames); ++v)
            add(spec, workload, kVariantNames[v], kVariantKnockouts[v]);
    };

    for (const char *name : kAblationBenches) {
        const auto w = workloads::specBenchmark(name);
        ExperimentSpec spec = cell(w, w.name());
        spec.window = specWindow(w);
        addVariants(spec, w.name());
    }

    const auto vp = workloads::videoPlayback();
    ExperimentSpec vp_spec = cell(vp, vp.name());
    vp_spec.window = 3 * kTicksPerSec;
    addVariants(vp_spec, vp.name());
    add(vp_spec, vp.name(), "no redistribution", "redistribute");

    const ExperimentSpec gamess =
        cell(workloads::specBenchmark("416.gamess"), "416.gamess");
    add(gamess, kGamessDefaultWindow, "fixed", nullptr);
    add(gamess, kGamessDefaultWindow, "no redistribution",
        "redistribute");
    return specs;
}

void
ablationReduce(const std::vector<RunResult> &results)
{
    const auto groups = agg::groupBy(results, "workload");
    const auto gain = [&](const std::string &workload,
                          const char *variant, const agg::Metric &m) {
        return agg::deltaVs(groupOf(groups, workload), "variant",
                            variant, "fixed", m);
    };

    std::printf("SPEC perf gain over baseline:\n%-18s", "variant");
    for (const char *b : kAblationBenches)
        std::printf(" %16s", b);
    std::printf("\n");
    for (const char *variant : kVariantNames) {
        std::printf("%-18s", variant);
        for (const char *b : kAblationBenches)
            std::printf(" %+15.1f%%", gain(b, variant, ipsOf));
        std::printf("\n");
    }

    // Redistribution does not change battery power (fixed demand),
    // but it is the entire SPEC story.
    std::printf("\nvideo-playback average power reduction:\n");
    for (const char *variant : kVariantNames) {
        std::printf("%-18s %+6.1f%%\n", variant,
                    -gain("video-playback", variant, powerOf));
    }
    std::printf("%-18s %+6.1f%%\n", "no redistribution",
                -gain("video-playback", "no redistribution", powerOf));

    std::printf("\nno-redistribution SPEC check (expect ~0%% gain):\n");
    std::printf("%-18s %+6.1f%%\n", "416.gamess",
                gain(kGamessDefaultWindow, "no redistribution", ipsOf));
}

// --------------------------------------------------------------------
// Sec. 7.4 sensitivity: more DRAM frequencies.
//
//  - DDR4 1866->1333 frees ~7% less budget than LPDDR3 1600->1066.
//  - The LPDDR3 800MT/s point is not worth supporting: V_SA already
//    reaches Vmin at 1066, and the extra performance loss is 2-3x.
//
// The cells are a 120-workload CPU-ST sample pinned at three
// operating points; the per-workload losses reduce by workload.
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
sensCells()
{
    const soc::OpPointTable table(soc::skylakeConfig());
    const struct
    {
        const char *label;
        const soc::OperatingPoint &point;
    } points[] = {{"hi", table.high()},
                  {"p1066", table.point(1)},
                  {"p800", table.point(2)}};

    std::vector<ExperimentSpec> specs;
    for (const auto &w : workloads::SynthSweep::generateClass(
             workloads::WorkloadClass::CpuSingleThread, 120, 0xfeed)) {
        for (const auto &p : points) {
            ExperimentSpec spec =
                cell(w, w.name() + "/pinned-" + p.point.name,
                     {{"workload", w.name()}, {"point", p.label}});
            spec.pinnedCoreFreq = 1.2 * kGHz;
            spec.warmup = 60 * kTicksPerMs;
            spec.window = 200 * kTicksPerMs;
            spec.pinnedOpPoint = p.point;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
sensReduce(const std::vector<RunResult> &results)
{
    // Budget freed by each DVFS pair.
    const soc::SocConfig lp = soc::skylakeConfig();
    const soc::OpPointTable lp_table(lp);
    const Watt lp_freed =
        soc::ioMemBudgetDemand(lp, lp_table.high()) -
        soc::ioMemBudgetDemand(lp, lp_table.low());

    const soc::SocConfig d4 = soc::skylakeDdr4Config();
    const soc::OpPointTable d4_table(d4);
    const Watt d4_freed =
        soc::ioMemBudgetDemand(d4, d4_table.high()) -
        soc::ioMemBudgetDemand(d4, d4_table.low());

    std::printf("freed budget LPDDR3 1600->1066: %.3f W\n", lp_freed);
    std::printf("freed budget DDR4   1866->1333: %.3f W (%+.1f%% vs "
                "LPDDR3; paper: ~-7%%)\n",
                d4_freed, (d4_freed / lp_freed - 1.0) * 100.0);

    // The 800MT/s point: voltage already floored.
    const Watt delta_1066 =
        soc::ioMemBudgetDemand(lp, lp_table.high()) -
        soc::ioMemBudgetDemand(lp, lp_table.point(1));
    const Watt delta_800 =
        soc::ioMemBudgetDemand(lp, lp_table.point(1)) -
        soc::ioMemBudgetDemand(lp, lp_table.point(2));
    std::printf("\nincremental saving 1600->1066: %.3f W "
                "(V_SA %.2f -> %.2f V)\n",
                delta_1066, lp_table.high().vSa,
                lp_table.point(1).vSa);
    std::printf("incremental saving 1066->800:  %.3f W "
                "(V_SA %.2f -> %.2f V, already near Vmin)\n",
                delta_800, lp_table.point(1).vSa,
                lp_table.point(2).vSa);

    // Average degradation of scaling to each point over the CPU-ST
    // sample (paper: 1600->800 loses 2-3x more than 1600->1066).
    std::vector<double> losses_1066, losses_800;
    for (const agg::Group &g : agg::groupBy(results, "workload")) {
        const double hi = rowOf(g, "point", "hi").metrics.ips;
        losses_1066.push_back(
            1.0 - rowOf(g, "point", "p1066").metrics.ips / hi);
        losses_800.push_back(
            1.0 - rowOf(g, "point", "p800").metrics.ips / hi);
    }
    const double loss_1066 = agg::mean(losses_1066);
    const double loss_800 = agg::mean(losses_800);

    std::printf("\navg degradation 1600->1066: %.2f%%\n",
                loss_1066 * 100.0);
    std::printf("avg degradation 1600->800:  %.2f%% (%.1fx; paper: "
                "2-3x)\n",
                loss_800 * 100.0,
                loss_1066 > 0.0 ? loss_800 / loss_1066 : 0.0);
    std::printf("\nconclusion: the 800MT/s point frees little extra "
                "budget and costs 2-3x the performance, matching the "
                "paper's decision to ship only 1600/1066.\n");
}

// --------------------------------------------------------------------
// Energy/QoS frontier across the whole governor zoo (beyond the
// paper). Every registered governor, at its default parameters, runs
// three scenarios: the fig2-class video-playback workload, the
// fig9-class web-browsing workload, and the dynamic "videoconf"
// scenario script on the video-conferencing profile. The reduction
// is one CSV row per (scenario, governor): energy, average power,
// the scenario's QoS metric (fps when the workload renders frames,
// ips otherwise), QoS relative to the fixed governor, EDP, QoS
// violations, transitions, low-point residency, and a Pareto marker
// on the (minimize energy, maximize QoS) frontier.
// --------------------------------------------------------------------

std::vector<ExperimentSpec>
frontierCells()
{
    const struct
    {
        const char *name;
        workloads::WorkloadProfile profile;
        bool camera;
        const char *script; //!< workloads::scenarioByName key, or "".
    } scenarios[] = {
        {"fig2-video-playback", workloads::videoPlayback(), false, ""},
        {"fig9-web-browsing", workloads::webBrowsing(), false, ""},
        {"videoconf", workloads::videoConferencing(), true, "videoconf"},
    };

    std::vector<ExperimentSpec> specs;
    for (const auto &sc : scenarios) {
        for (const auto &gov : core::governorNames()) {
            ExperimentSpec spec =
                cell(sc.profile, std::string(sc.name) + "/" + gov,
                     {{"scenario", sc.name}, {"governor", gov}});
            spec.camera = sc.camera;
            spec.window = 3 * kTicksPerSec;
            spec.governor = gov;
            if (*sc.script)
                spec.scenario = workloads::scenarioByName(sc.script);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
frontierReduce(const std::vector<RunResult> &results)
{
    std::printf("scenario,governor,energy_j,avg_power_w,qos_metric,"
                "qos,qos_vs_fixed_pct,edp,qos_violations,"
                "transitions,low_residency,pareto\n");

    for (const agg::Group &g : agg::groupBy(results, "scenario")) {
        const RunResult &base = rowOf(g, "governor", "fixed");
        // One QoS metric per scenario so rows stay comparable: fps
        // when the baseline renders frames, ips otherwise.
        const bool use_fps = base.metrics.fps > 0.0;
        const auto qosOf = [&](const RunResult &r) {
            return use_fps ? r.metrics.fps : r.metrics.ips;
        };

        // A row is on the front unless some other row is at least as
        // good on both axes and strictly better on one.
        const auto dominated = [&](const RunResult *r) {
            for (const RunResult *o : g.rows) {
                if (o == r)
                    continue;
                const bool no_worse =
                    o->metrics.energy <= r->metrics.energy &&
                    qosOf(*o) >= qosOf(*r);
                const bool better =
                    o->metrics.energy < r->metrics.energy ||
                    qosOf(*o) > qosOf(*r);
                if (no_worse && better)
                    return true;
            }
            return false;
        };

        for (const RunResult *r : g.rows) {
            const double qos = qosOf(*r);
            std::printf(
                "%s,%s,%s,%s,%s,%s,%s,%s,%llu,%llu,%s,%d\n",
                g.key.c_str(),
                agg::findLabel(*r, "governor")->c_str(),
                exp::formatDouble(r->metrics.energy).c_str(),
                exp::formatDouble(r->metrics.avgPower).c_str(),
                use_fps ? "fps" : "ips",
                exp::formatDouble(qos).c_str(),
                exp::formatDouble(pct(qosOf(base), qos)).c_str(),
                exp::formatDouble(r->metrics.edp).c_str(),
                static_cast<unsigned long long>(
                    r->metrics.qosViolations),
                static_cast<unsigned long long>(
                    r->metrics.transitions),
                exp::formatDouble(r->metrics.lowPointResidency)
                    .c_str(),
                dominated(r) ? 0 : 1);
        }
    }
}

} // namespace

/*
 * Registration idiom: keep `Figure{"<name>"` on one line —
 * tools/check_docs.sh greps it to require each name in the README's
 * figure table.
 */
const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> registry = {
        Figure{"fig2", "Fig. 2 — MD-DVFS motivation (Broadwell, Sec. 3)",
               fig2Cells, fig2Reduce},
        Figure{"fig3", "Fig. 3 — bandwidth demand over time and by "
                       "configuration",
               fig3Cells, fig3Reduce},
        Figure{"fig4", "Fig. 4 — unoptimized MRC penalty on a "
                       "STREAM-like microbenchmark",
               fig4Cells, fig4Reduce},
        Figure{"fig5", "Fig. 5 / Sec. 5 — transition flow latency "
                       "decomposition",
               noCells, fig5Reduce},
        Figure{"fig6", "Fig. 6 — actual vs predicted impact of DRAM "
                       "frequency scaling (>1600 workloads)",
               fig6Cells, fig6Reduce},
        Figure{"fig7", "Fig. 7 — SPEC CPU2006 performance improvement "
                       "@ 4.5W TDP",
               fig7Cells, fig7Reduce},
        Figure{"fig8", "Fig. 8 — 3DMark graphics improvement @ 4.5W TDP",
               fig8Cells, fig8Reduce},
        Figure{"fig9", "Fig. 9 — battery-life average power reduction",
               fig9Cells, fig9Reduce},
        Figure{"fig10", "Fig. 10 — SysScale benefit vs thermal design "
                        "power (SPEC CPU2006)",
               fig10Cells, fig10Reduce},
        Figure{"table1", "Table 1 — baseline vs multi-domain DVFS setups",
               noCells, table1Reduce},
        Figure{"table2", "Table 2 — SoC and memory parameters",
               noCells, table2Reduce},
        Figure{"ablation", "Ablation — SysScale feature knock-outs",
               ablationCells, ablationReduce},
        Figure{"sens-dramfreq", "Sec. 7.4 — DRAM frequency sensitivity",
               sensCells, sensReduce},
        Figure{"frontier", "Frontier — energy/QoS frontier across the "
                           "governor zoo",
               frontierCells, frontierReduce},
    };
    return registry;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &f : figures()) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

} // namespace bench
} // namespace sysscale
