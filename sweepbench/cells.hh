/**
 * @file
 * The benchmark's workloads: which cells each one runs.
 *
 * Every workload carries the fixed paper-figure cells (Fig. 7 or
 * Fig. 9, exactly as bench_fig7_spec / bench_fig9_battery build them)
 * plus cells generated from --seed. ExperimentSpec::seed does not
 * change results, so the seed reaches the *inputs* instead: the
 * SynthSweep CPU profile seeds, which scenario cell gets which TDP,
 * and the cell order.
 */

#ifndef SWEEPBENCH_CELLS_HH
#define SWEEPBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace sweepbench {

enum class Workload { SpecSweep, BatteryScenarios };

/** All workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &allWorkloads();
const char *workloadName(Workload w);

/** Fig. 7 cells plus seeded SynthSweep CPU-ST/CPU-MT cells. */
std::vector<sysscale::exp::ExperimentSpec> specSweepCells(
    std::uint64_t seed);

/**
 * Fig. 9 cells plus the battery and graphics suites crossed with
 * every registered scenario at seeded TDPs.
 */
std::vector<sysscale::exp::ExperimentSpec> batteryScenarioCells(
    std::uint64_t seed);

/** The cells @p w runs for @p seed. */
std::vector<sysscale::exp::ExperimentSpec> cellsFor(Workload w,
                                                    std::uint64_t seed);

/** One fidelity row: a figure quantity, the model's and the paper's. */
struct Fidelity
{
    std::string row;
    double model = 0.0;
    double paper = 0.0;
};

/**
 * Fidelity rows of the figure cells among @p results: the Fig. 7
 * SysScale average IPS gain and the four Fig. 9 SysScale power
 * reductions, in percent, each next to the paper's value.
 */
std::vector<Fidelity> fidelityRows(
    const std::vector<sysscale::exp::RunResult> &results);

} // namespace sweepbench

#endif // SWEEPBENCH_CELLS_HH
