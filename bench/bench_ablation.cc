/**
 * @file
 * Ablation study (beyond the paper): which SysScale feature delivers
 * how much of the win. Each row knocks out one design element that
 * DESIGN.md calls out:
 *
 *  - no optimized MRC  (Observation 4 / Fig. 4 penalties apply)
 *  - no V_IO scaling   (DDRIO-digital stays at boot voltage)
 *  - no fabric scaling (V_SA cannot drop; memory-domain-only)
 *  - no SRAM MRC       (firmware recompute on every transition)
 *  - no redistribution (power saved but not re-granted)
 *
 * Every knock-out is a parameter of the registered sysscale governor
 * (sysscale:scale-vio=0, ...), so the whole study — SPEC table,
 * video-playback power column, and the no-redistribution check — is
 * one ExperimentRunner batch of plain specs, every cell cacheable via
 * --cache-dir, and the report reduces through exp::agg (group by
 * workload, delta each variant against the fixed baseline of the
 * same group).
 */

#include <algorithm>
#include <iterator>
#include <vector>

#include "bench/harness.hh"
#include "exp/agg.hh"
#include "workloads/battery.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

const char *kVariantNames[] = {
    "full sysscale", "no optimized MRC", "no V_IO scaling",
    "no fabric/V_SA", "no SRAM MRC",
};

/** The sysscale parameter each variant clears (none for the first). */
const char *kVariantKnockouts[] = {
    nullptr, "optimized-mrc", "scale-vio", "scale-fabric", "sram-mrc",
};

/** @p spec as a sysscale cell with knock-out @p key (null = none). */
exp::ExperimentSpec
sysscaleCell(exp::ExperimentSpec spec, const char *key)
{
    spec.governor = "sysscale";
    if (key)
        spec.governorParams = {{key, "0"}};
    return spec;
}

/** Group with key @p name, or abort: a dropped axis must be loud. */
const exp::agg::Group &
groupNamed(const std::vector<exp::agg::Group> &groups,
           const std::string &name)
{
    for (const exp::agg::Group &g : groups) {
        if (g.key == name)
            return g;
    }
    std::fprintf(stderr, "ablation: no result group \"%s\"\n",
                 name.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cache = bench::benchCache(argc, argv);
    bench::banner("Ablation", "SysScale feature knock-outs");

    const char *benches[] = {"416.gamess", "400.perlbench",
                             "473.astar"};
    constexpr int kNumVariants = 5;

    // One batch holds the whole study; every cell is labeled with
    // its (workload, variant) coordinates for the reduction. The
    // default-window no-redistribution check runs under a distinct
    // workload label so it cannot collide with the long-window
    // 416.gamess group of the main table.
    std::vector<exp::ExperimentSpec> specs;

    auto specRc = [](const workloads::WorkloadProfile &w) {
        bench::RunConfig rc;
        rc.window = std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
        return rc;
    };
    auto label = [](exp::ExperimentSpec spec, std::string workload,
                    std::string variant) {
        spec.id = workload + "/" + variant;
        spec.labels = {{"workload", std::move(workload)},
                       {"variant", std::move(variant)}};
        return spec;
    };

    // Fixed baseline plus every knock-out, per SPEC bench.
    for (const char *name : benches) {
        const auto w = workloads::specBenchmark(name);
        exp::ExperimentSpec base = bench::makeSpec(w, specRc(w));
        base.governor = "fixed";
        specs.push_back(label(std::move(base), w.name(), "fixed"));
        for (int v = 0; v < kNumVariants; ++v) {
            specs.push_back(label(
                sysscaleCell(bench::makeSpec(w, specRc(w)),
                             kVariantKnockouts[v]),
                w.name(), kVariantNames[v]));
        }
    }

    // Video playback: Fixed baseline, the five knock-outs, and the
    // no-redistribution variant.
    const auto vp = workloads::videoPlayback();
    bench::RunConfig vp_rc;
    vp_rc.window = 3 * kTicksPerSec;
    {
        exp::ExperimentSpec spec = bench::makeSpec(vp, vp_rc);
        spec.governor = "fixed";
        specs.push_back(label(std::move(spec), vp.name(), "fixed"));
    }
    for (int v = 0; v < kNumVariants; ++v) {
        specs.push_back(label(sysscaleCell(bench::makeSpec(vp, vp_rc),
                                           kVariantKnockouts[v]),
                              vp.name(), kVariantNames[v]));
    }
    specs.push_back(label(
        sysscaleCell(bench::makeSpec(vp, vp_rc), "redistribute"),
        vp.name(), "no redistribution"));

    // No-redistribution SPEC check at the default window.
    {
        const auto w = workloads::specBenchmark("416.gamess");
        const std::string key = w.name() + "@default-window";
        exp::ExperimentSpec base = bench::makeSpec(w, {});
        base.governor = "fixed";
        specs.push_back(label(std::move(base), key, "fixed"));
        specs.push_back(
            label(sysscaleCell(bench::makeSpec(w, {}), "redistribute"),
                  key, "no redistribution"));
    }

    const auto results = bench::runBatch(specs, cache.get());
    for (const auto &res : results)
        bench::checkResult(res);

    const exp::agg::Metric ips = [](const exp::RunResult &r) {
        return r.metrics.ips;
    };
    const exp::agg::Metric watts = [](const exp::RunResult &r) {
        return r.metrics.avgPower;
    };
    const auto groups = exp::agg::groupBy(results, "workload");

    std::printf("SPEC perf gain over baseline:\n%-18s", "variant");
    for (const char *b : benches)
        std::printf(" %16s", b);
    std::printf("\n");

    for (int v = 0; v < kNumVariants; ++v) {
        std::printf("%-18s", kVariantNames[v]);
        for (const char *b : benches) {
            std::printf(" %+15.1f%%",
                        exp::agg::deltaVs(groupNamed(groups, b),
                                          "variant", kVariantNames[v],
                                          "fixed", ips));
        }
        std::printf("\n");
    }

    std::printf("\nvideo-playback average power reduction:\n");
    {
        const exp::agg::Group &g = groupNamed(groups, vp.name());
        for (int v = 0; v < kNumVariants; ++v) {
            std::printf("%-18s %+6.1f%%\n", kVariantNames[v],
                        -exp::agg::deltaVs(g, "variant",
                                           kVariantNames[v], "fixed",
                                           watts));
        }
        // Redistribution does not change battery power (fixed
        // demand), but it is the entire SPEC story:
        std::printf("%-18s %+6.1f%%\n", "no redistribution",
                    -exp::agg::deltaVs(g, "variant",
                                       "no redistribution", "fixed",
                                       watts));
    }

    std::printf("\nno-redistribution SPEC check (expect ~0%% gain):\n");
    std::printf("%-18s %+6.1f%%\n", "416.gamess",
                exp::agg::deltaVs(
                    groupNamed(groups, "416.gamess@default-window"),
                    "variant", "no redistribution", "fixed", ips));
    return 0;
}
