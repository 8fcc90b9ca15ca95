#include "dist/worker.hh"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace dist {

namespace {

/**
 * Refreshes a claim's lease on a background thread for as long as
 * the owning scope lives — keeping the lease fresh through
 * arbitrarily long simulations without the simulator needing to know
 * about leases at all.
 */
class LeaseKeeper
{
  public:
    LeaseKeeper(WorkQueue &queue, const Claim &claim,
                std::chrono::milliseconds period)
        : thread_([this, &queue, &claim, period] {
              std::unique_lock<std::mutex> lock(mutex_);
              while (!cv_.wait_for(lock, period,
                                   [this] { return stop_; })) {
                  queue.heartbeat(claim);
              }
          })
    {}

    ~LeaseKeeper()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * Exact shared completion budget for a capacity pool: maxCells is
 * reserved before a claim is attempted and released when no claim
 * materializes, so N concurrent loops complete exactly maxCells
 * cells between them — never maxCells + capacity - 1.
 */
class CellBudget
{
  public:
    explicit CellBudget(std::size_t max) : max_(max) {}

    /** Reserve one completion slot; false = budget exhausted. */
    bool
    tryTake()
    {
        if (max_ == 0)
            return true; // Unlimited.
        if (taken_.fetch_add(1, std::memory_order_relaxed) < max_)
            return true;
        taken_.fetch_sub(1, std::memory_order_relaxed);
        return false;
    }

    /** Return an unused slot (the claim scan came up empty). */
    void
    putBack()
    {
        if (max_ != 0)
            taken_.fetch_sub(1, std::memory_order_relaxed);
    }

  private:
    std::size_t max_;
    std::atomic<std::size_t> taken_{0};
};

/**
 * Whether @p claim's output snapshot is already published and valid
 * (right cell, right tick). A readable-but-wrong file — torn write
 * survivor, stale format, different spec — counts as absent: the
 * slice re-simulates rather than trusting it.
 */
bool
sliceAlreadyDone(const WorkQueue &queue, const Claim &claim)
{
    try {
        SnapshotReader r(readSnapshotFile(
            queue.snapshotPath(claim.baseKey, claim.t1)));
        return r.specKey() == exp::specKey(claim.spec) &&
               r.tick() == claim.t1;
    } catch (const SnapshotError &) {
        return false;
    }
}

/** One claim → cache-check → simulate link → publish loop. */
WorkerStats
runWorkerLoop(const std::string &queueDir, exp::ResultCache &cache,
              const WorkerOptions &opts, const std::string &id,
              CellBudget &budget)
{
    WorkQueue queue(queueDir);
    queue.onEvent = opts.onEvent;

    auto log = [&](const std::string &line) {
        if (opts.onEvent)
            opts.onEvent(line);
    };

    WorkerStats stats;
    double sim_seconds = 0.0;
    double wall_seconds = 0.0;

    // Campaign telemetry: rewrite this worker's metrics file after
    // every resolved claim so dashboards (sweep_queue watch/status)
    // see progress and throughput without touching the worker.
    auto publish = [&] {
        WorkerMetrics m;
        m.workerId = id;
        m.claimed = stats.claimed;
        m.simulated = stats.simulated;
        m.cacheHits = stats.cacheHits;
        m.failures = stats.failures;
        m.simSeconds = sim_seconds;
        m.wallSeconds = wall_seconds;
        queue.publishMetrics(m);
    };

    for (;;) {
        if (opts.shouldStop && opts.shouldStop())
            break;
        if (!budget.tryTake())
            break;

        // Recover cells whose worker died before claiming new work:
        // the fleet heals itself without a dispatcher.
        stats.reclaims += queue.reclaimStale(opts.leaseTimeout);

        Claim claim;
        if (!queue.tryClaim(id, claim)) {
            budget.putBack();
            if (opts.drain && queue.scan().drained())
                break;
            std::this_thread::sleep_for(opts.poll);
            continue;
        }
        ++stats.claimed;

        // The cache entry is the completion marker: a reclaimed cell
        // whose original worker actually finished must never burn a
        // second simulation.
        exp::RunResult done;
        if (cache.lookup(claim.spec, done)) {
            ++stats.cacheHits;
            queue.release(claim);
            publish();
            log(claim.key + " already completed (cache hit)");
            continue;
        }

        // A link short of the cell's end has a second completion
        // marker: the chain snapshot it would publish. A reclaimed
        // link whose worker died *after* publishing it (but before
        // enqueueing the successor or releasing) is not re-simulated
        // — only its bookkeeping is replayed, so a crash never costs
        // duplicate simulation. Validity is checked, not assumed: a
        // torn or stale file re-simulates instead.
        const bool finalLink = claim.t1 >= claim.total;
        if (!finalLink && sliceAlreadyDone(queue, claim)) {
            ++stats.cacheHits;
            queue.enqueue(claim.spec, claim.step, claim.index + 1);
            queue.release(claim);
            publish();
            log(claim.key + " slice " +
                std::to_string(claim.index) +
                " already published (snapshot hit)");
            continue;
        }

        exp::RunResult res;
        {
            const LeaseKeeper keeper(queue, claim, opts.heartbeat);
            exp::SliceOptions so;
            so.t0 = claim.t0;
            so.t1 = claim.t1;
            if (claim.t0 > 0)
                so.inSnap = queue.snapshotPath(claim.baseKey, claim.t0);
            if (!finalLink)
                so.outSnap = queue.snapshotPath(claim.baseKey, claim.t1);
            res = exp::runCellSlice(claim.spec, so);
        }
        ++stats.simulated;
        sim_seconds += res.metrics.seconds;
        wall_seconds += res.hostSeconds;

        if (res.ok && !finalLink) {
            // Publish order matters for crash recovery: the snapshot
            // is already on disk (runCellSlice renames it in before
            // returning), so enqueue the successor *before* releasing
            // — a death in between is healed by the snapshot-hit path
            // above, never by re-simulation.
            queue.enqueue(claim.spec, claim.step, claim.index + 1);
            queue.release(claim);
            log(claim.key + " slice " + std::to_string(claim.index) +
                " ok (" + claim.spec.id + ", " +
                exp::formatDouble(res.hostSeconds) + "s)");
        } else if (res.ok) {
            cache.store(claim.spec, res);
            queue.release(claim);
            log(claim.key + " ok (" + claim.spec.id + ", " +
                exp::formatDouble(res.hostSeconds) + "s)");
        } else {
            ++stats.failures;
            queue.fail(claim, res);
            log(claim.key + " FAILED (" + claim.spec.id + "): " +
                res.error);
        }
        publish();
    }
    return stats;
}

} // anonymous namespace

WorkerStats
runWorker(const std::string &queueDir, exp::ResultCache &cache,
          const WorkerOptions &opts)
{
    const std::string id =
        opts.workerId.empty() ? makeWorkerId() : opts.workerId;
    CellBudget budget(opts.maxCells);

    if (opts.capacity <= 1)
        return runWorkerLoop(queueDir, cache, opts, id, budget);

    // Capacity pool: N copies of the loop, each claiming under its
    // own sub-identity (claim and lease file names embed it), all
    // drawing on one maxCells budget. Each loop owns a private
    // WorkQueue handle — the queue protocol is already
    // multi-process safe, which makes it multi-thread safe for
    // free.
    std::vector<WorkerStats> stats(opts.capacity);
    std::vector<std::thread> pool;
    std::mutex error_mutex;
    std::string first_error;
    for (std::size_t k = 0; k < opts.capacity; ++k) {
        pool.emplace_back([&, k] {
            try {
                stats[k] = runWorkerLoop(
                    queueDir, cache, opts,
                    id + "-p" + std::to_string(k), budget);
            } catch (const std::exception &e) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error.empty())
                    first_error = e.what();
            }
        });
    }
    for (auto &t : pool)
        t.join();
    if (!first_error.empty())
        throw std::runtime_error(first_error);

    WorkerStats total;
    for (const WorkerStats &s : stats)
        total += s;
    return total;
}

} // namespace dist
} // namespace sysscale
