/**
 * @file
 * Distributed grid dispatch: enqueue, watch, assemble.
 *
 * runDistributed() is the fan-out counterpart of
 * exp::ExperimentRunner::run(): it takes the same spec vector and
 * returns the same result vector in the same spec order — but the
 * cells are simulated by whatever sweep workers (local threads
 * spawned here, sweep_worker daemons on this machine, or daemons on
 * other machines sharing the queue and cache directories) drain the
 * queue.
 *
 * The protocol is deliberately thin:
 *
 *  1. Cells already in the shared cache are *not* enqueued — a
 *     distributed sweep resumes exactly like a local one.
 *  2. The rest are enqueued by content key (duplicate cells collapse
 *     onto one queue entry; each still gets its own result row), as
 *     the first link of their checkpoint chain (see sliceTicks).
 *  3. The dispatcher polls: a cache entry resolves a cell, a failed/
 *     marker resolves it as an error row, and a cell that vanished
 *     entirely (its queue file was quarantined as corrupt) is
 *     re-enqueued from the dispatcher's own spec — loud, lossless,
 *     and never a wrong result. Stale leases are reclaimed while
 *     waiting, so a dead worker cannot stall the sweep.
 *  4. Assembly reads every row back from the cache in spec order,
 *     which makes the output *byte-identical* to a single-process
 *     ExperimentRunner run of the same grid over the same cache.
 *  5. Optionally, resolved rows stream out mid-campaign through
 *     DispatchOptions::onResult — in spec order via a reorder
 *     buffer, so an incrementally written CSV ends up
 *     byte-identical to one written from the assembled vector.
 */

#ifndef SYSSCALE_DIST_DISPATCH_HH
#define SYSSCALE_DIST_DISPATCH_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dist/worker.hh"
#include "exp/cache.hh"
#include "exp/experiment.hh"

namespace sysscale {
namespace dist {

struct DispatchOptions
{
    /**
     * Local worker loops to run for the duration of the dispatch:
     * one runWorker() pool of this capacity, on one thread, stopped
     * once every cell has resolved. 0 = rely entirely on external
     * sweep_worker processes.
     */
    std::size_t spawnWorkers = 0;

    /** Poll period of the completion watch. */
    std::chrono::milliseconds poll{500};

    /** Forwarded to the spawned workers and the watch loop. */
    std::chrono::milliseconds heartbeat{1000};
    std::chrono::seconds leaseTimeout{30};

    /**
     * Give up after this long without a single cell completing
     * (0 = wait forever). Guards CI against a queue nobody serves;
     * expiry throws std::runtime_error.
     */
    std::chrono::seconds stallTimeout{0};

    /**
     * Checkpoint-chain slicing period in simulated ticks (0 = off,
     * the sweep_grid --slice-s flag). Every cell rides the queue as
     * a chain of WorkQueue::enqueue links of this period — each link
     * a separate claim, leased and crash-recovered on its own,
     * handing its state to the next through a snapshot under the
     * queue's snaps/ directory — so one enormous cell spreads its
     * latency across the fleet's failure domain instead of pinning
     * one worker for hours. A cell no longer than one period (every
     * cell, when off) is a one-link chain: the whole cell, with no
     * snapshot. Assembly is unchanged and byte-identical to unsliced
     * dispatch: the final link publishes the cell's RunResult through
     * the shared cache.
     */
    Tick sliceTicks = 0;

    /** Progress/event log lines. May be null. */
    std::function<void(const std::string &)> onEvent;

    /**
     * Mid-campaign result streaming: called once per input spec,
     * **in spec order**, as soon as the row and every row before it
     * have resolved (a reorder buffer holds rows that finish out of
     * order). Feeding these rows to a CSV writer therefore yields a
     * file byte-identical to writing the assembled result vector at
     * the end — just incrementally. Called from the dispatcher
     * thread only. May be null.
     */
    std::function<void(std::size_t index, const exp::RunResult &)>
        onResult;
};

struct DispatchOutcome
{
    /** One row per input spec, in spec order. */
    std::vector<exp::RunResult> results;

    std::size_t enqueued = 0;      //!< Cells put on the queue.
    std::size_t alreadyCached = 0; //!< Cells resolved before enqueue.
    std::size_t reenqueued = 0;    //!< Corrupt-recovery re-enqueues.
    std::size_t failedCells = 0;   //!< Error rows assembled.

    /** Work done by the locally spawned workers (summed). */
    WorkerStats localWork;
};

/**
 * Fan @p specs out through the queue at @p queueDir and assemble the
 * results from @p cache. Blocks until every cell is resolved. Throws
 * std::runtime_error on an expired stallTimeout.
 */
DispatchOutcome runDistributed(
    const std::vector<exp::ExperimentSpec> &specs,
    const std::string &queueDir, exp::ResultCache &cache,
    const DispatchOptions &opts = {});

} // namespace dist
} // namespace sysscale

#endif // SYSSCALE_DIST_DISPATCH_HH
