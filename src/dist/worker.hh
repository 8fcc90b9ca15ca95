/**
 * @file
 * The sweep worker loop: claim → cache check → simulate → publish.
 *
 * runWorker() drains (or serves, in daemon mode) a WorkQueue
 * directory: it claims pending chain links one at a time, consults
 * the shared exp::ResultCache immediately after each claim (a cell
 * another worker already completed is *never* re-simulated), runs
 * the link through exp::runCellSlice() — for an unsliced cell the
 * full slice, which is exactly exp::runCell(), the in-process
 * ExperimentRunner's path — while a background thread refreshes the
 * claim's lease, and publishes the result: a link short of the
 * cell's end enqueues its successor behind a chain snapshot, the
 * final link stores ok rows into the cache (the completion marker
 * the dispatcher watches), and error rows go into the queue's
 * failed/ directory.
 *
 * WorkerOptions::capacity > 1 turns one runWorker() call into an
 * internal pool: N copies of the same loop on N threads, each
 * holding and heartbeating its own leased cell, so a big machine
 * claims proportionally more of the campaign than a laptop sharing
 * the queue (capacity-weighted claims).
 *
 * The loop also performs lease reclamation between cells, so a fleet
 * of workers collectively recovers cells whose worker died — no
 * dispatcher involvement needed.
 *
 * tools/sweep_worker.cc is the CLI daemon around this function;
 * sweep_grid --distributed --spawn-workers N runs it as a local
 * capacity-N pool. Both share every line of the loop.
 */

#ifndef SYSSCALE_DIST_WORKER_HH
#define SYSSCALE_DIST_WORKER_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>

#include "dist/work_queue.hh"
#include "exp/cache.hh"

namespace sysscale {
namespace dist {

struct WorkerOptions
{
    /** Claim/lease identity; empty = makeWorkerId(). */
    std::string workerId;

    /**
     * Exit once the queue is fully drained (no pending and no
     * claimed cells). Without it the worker idles and keeps serving
     * — the multi-machine daemon mode.
     */
    bool drain = false;

    /** Idle sleep between empty claim scans. */
    std::chrono::milliseconds poll{500};

    /** Lease refresh period while simulating a cell. */
    std::chrono::milliseconds heartbeat{1000};

    /**
     * Lease age past which another worker's claim counts as dead.
     * Must comfortably exceed @ref heartbeat (a reclaimed live claim
     * costs a duplicate — deterministic — simulation, never a wrong
     * result).
     */
    std::chrono::seconds leaseTimeout{30};

    /** Stop after completing this many cells (0 = unlimited). */
    std::size_t maxCells = 0;

    /**
     * Concurrent cells this worker holds — the capacity weight of
     * the machine. N > 1 runs N claim → simulate loops on an
     * internal thread pool, each leasing (and heartbeating) its own
     * cell under the sub-identity "<workerId>-pK", so one daemon on
     * a 32-core box can drain like 32 capacity-1 workers while
     * @ref maxCells, @ref drain, and @ref shouldStop apply to the
     * pool as a whole (maxCells is an exact shared budget, never
     * overshot).
     */
    std::size_t capacity = 1;

    /** Cooperative stop; checked between cells. May be null. */
    std::function<bool()> shouldStop;

    /** Progress/event log lines (not serialized). May be null. */
    std::function<void(const std::string &)> onEvent;
};

struct WorkerStats
{
    std::size_t claimed = 0;   //!< Links claimed.
    std::size_t simulated = 0; //!< Links actually simulated.
    std::size_t cacheHits = 0; //!< Claims already completed elsewhere.
    std::size_t failures = 0;  //!< Error rows published.
    std::size_t reclaims = 0;  //!< Stale claims recovered for others.

    WorkerStats &
    operator+=(const WorkerStats &o)
    {
        claimed += o.claimed;
        simulated += o.simulated;
        cacheHits += o.cacheHits;
        failures += o.failures;
        reclaims += o.reclaims;
        return *this;
    }
};

/**
 * Run the worker loop against the queue at @p queueDir, publishing
 * through @p cache (which both must be the directories shared by the
 * dispatcher and every other worker). Returns when the queue drains
 * (drain mode), maxCells is reached, or shouldStop() says so. Throws
 * std::runtime_error only for setup failures (unusable queue
 * directory); per-cell failures become failed/ entries.
 */
WorkerStats runWorker(const std::string &queueDir,
                      exp::ResultCache &cache,
                      const WorkerOptions &opts = {});

} // namespace dist
} // namespace sysscale

#endif // SYSSCALE_DIST_WORKER_HH
