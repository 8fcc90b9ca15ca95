/**
 * @file
 * Grid-aware aggregation over RunResult sets.
 *
 * The paper figures all reduce the same way: run a grid, slice
 * the rows along one label axis (workload, governor, TDP, ...),
 * collapse each slice with a statistic, and express cells relative
 * to a designated baseline cell of the same slice. These helpers
 * make that pipeline declarative — groupBy() slices on a label,
 * mean()/median()/percentile() collapse, and deltasVsBaseline()
 * computes baseline-relative percent changes — so a figure states
 * *what* its figure shows instead of hand-rolling loops and
 * accumulators (see fig7Reduce() in bench/figures.cc for the
 * pattern).
 *
 * All helpers are pure functions over const rows; groups hold
 * pointers into the caller's result vector, which must outlive them.
 */

#ifndef SYSSCALE_EXP_AGG_HH
#define SYSSCALE_EXP_AGG_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace sysscale {
namespace exp {
namespace agg {

/** Extracts the figure's quantity from one result row. */
using Metric = std::function<double(const RunResult &)>;

/** Value of label @p key on @p res, or nullptr when absent. */
const std::string *findLabel(const RunResult &res,
                             const std::string &key);

/** One slice of a result set: all rows sharing a label value. */
struct Group
{
    std::string key; //!< The shared label value.
    std::vector<const RunResult *> rows;
};

/**
 * Slice @p results along label @p label, preserving first-seen
 * order (which for expandGrid() grids is axis order). Rows missing
 * the label are collected under the empty key.
 */
std::vector<Group> groupBy(const std::vector<RunResult> &results,
                           const std::string &label);

/**
 * First row in @p rows whose label @p label equals @p value;
 * nullptr when absent.
 */
const RunResult *findRow(const std::vector<const RunResult *> &rows,
                         const std::string &label,
                         const std::string &value);

/** Metric values of @p rows, in row order. */
std::vector<double> collect(
    const std::vector<const RunResult *> &rows, const Metric &m);

/** @name Statistics. NaN on an empty sample. @{ */
double mean(const std::vector<double> &xs);
double median(std::vector<double> xs);

/**
 * The @p p-th percentile (p in [0, 100]) with linear interpolation
 * between order statistics; a single-element sample returns that
 * element for every p.
 */
double percentile(std::vector<double> xs, double p);
/** @} */

/** One row's metric relative to its group's baseline row. */
struct Delta
{
    const RunResult *row;
    const RunResult *baseline;
    double pct; //!< (m(row) / m(baseline) - 1) * 100.
};

/**
 * Percent change of @p m for every non-baseline row of @p g against
 * the group's baseline cell — the row whose label @p label equals
 * @p baseline_value. Returns an empty vector when the group has no
 * baseline row; a zero-valued baseline metric yields NaN/inf deltas
 * rather than throwing.
 */
std::vector<Delta> deltasVsBaseline(const Group &g,
                                    const std::string &label,
                                    const std::string &baseline_value,
                                    const Metric &m);

/**
 * Percent change of @p m for the single row with @p label ==
 * @p value against the row with @p label == @p baseline_value.
 * Throws std::invalid_argument when either row is missing from the
 * group — a figure must fail loudly when a grid axis it expects was
 * dropped or renamed, never print a silent 0%.
 */
double deltaVs(const Group &g, const std::string &label,
               const std::string &value,
               const std::string &baseline_value, const Metric &m);

} // namespace agg
} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_AGG_HH
