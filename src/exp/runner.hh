/**
 * @file
 * Parallel experiment-grid execution.
 *
 * ExperimentRunner fans a vector of ExperimentSpec cells out across
 * a pool of worker threads. Each cell runs through
 * exp::runCellSlice() as one whole-cell slice, which owns an
 * isolated Simulator + Soc, so cells share no mutable state and the
 * result vector is bit-identical to a serial sweep of the same specs
 * regardless of the job count or scheduling order — results land at
 * the index of their spec, never in completion order. A cell that
 * fails (bad spec, model exception) produces an
 * ok=false RunResult and leaves its siblings untouched.
 */

#ifndef SYSSCALE_EXP_RUNNER_HH
#define SYSSCALE_EXP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "exp/experiment.hh"

namespace sysscale {
namespace exp {

class ResultCache;

/** Progress hook: one finished cell plus completion counters. */
using ProgressFn = std::function<void(
    const RunResult &result, std::size_t done, std::size_t total)>;

struct RunnerOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    std::size_t jobs = 0;

    /**
     * Invoked after each cell completes (serialized by the runner;
     * the callback never needs its own locking). Called in
     * completion order, which is nondeterministic for jobs > 1.
     * Cache hits report first, in spec order, before any simulated
     * cell.
     */
    ProgressFn onResult;

    /**
     * Content-addressed result cache, consulted before dispatch:
     * hits become results without touching the simulator, and every
     * ok result of a cacheable cell is stored after it runs. Error
     * rows are never cached. Not owned; may be null.
     */
    ResultCache *cache = nullptr;

    /**
     * SliceOptions::traceDir of every simulated cell. Cache hits
     * never touch the simulator, so they write no trace file — use
     * --no-cache (or a cold cache) for a full-grid trace capture.
     */
    std::string traceDir;
};

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions opts = {});

    /**
     * Execute every cell and return results in spec order.
     *
     * With a cache configured, cells served from disk never reach a
     * worker, and the pool is sized to the cells that remain — a
     * fully warm cache spawns no threads at all.
     */
    std::vector<RunResult> run(
        const std::vector<ExperimentSpec> &specs) const;

    /**
     * Worker count used for @p cells dispatched cells (clamped so a
     * --jobs value above the cell count cannot spin up idle
     * threads).
     */
    std::size_t jobsFor(std::size_t cells) const;

  private:
    RunnerOptions opts_;
};

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_RUNNER_HH
