/**
 * @file
 * The figure registry: one entry per reproduced result of the paper
 * (Figs. 2-10 and Tables 1-2 of arXiv 2005.07613) plus three studies
 * beyond it (feature ablation, DRAM-frequency sensitivity, and the
 * energy/QoS frontier of the governor zoo).
 *
 * An entry's cells() are plain exp::ExperimentSpecs, so they cache
 * and queue as they stand. Its reduce() prints the figure from the
 * results of exactly those cells, in cells() order. The `figures`
 * CLI (figures_main.cc) runs the cells of every selected entry as
 * one ExperimentRunner batch and then reduces the entries in turn;
 * any other driver can do the same with the entries it needs.
 */

#ifndef SYSSCALE_BENCH_FIGURES_HH
#define SYSSCALE_BENCH_FIGURES_HH

#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace sysscale {
namespace bench {

/** One reproduced figure or table. */
struct Figure
{
    /** CLI name: fig2 ... fig10, table1, table2, ablation, ... */
    const char *name;

    /** Banner heading, e.g. "Fig. 9 — battery-life ...". */
    const char *title;

    /** The simulation cells the figure needs (may be empty). */
    std::vector<exp::ExperimentSpec> (*cells)();

    /** Print the figure from its cells' results, in cells() order. */
    void (*reduce)(const std::vector<exp::RunResult> &results);
};

/** Every figure, in paper order. */
const std::vector<Figure> &figures();

/** The figure named @p name, or nullptr. */
const Figure *findFigure(const std::string &name);

} // namespace bench
} // namespace sysscale

#endif // SYSSCALE_BENCH_FIGURES_HH
