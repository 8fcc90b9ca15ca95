#include "dist/dispatch.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "exp/spec_codec.hh"

namespace sysscale {
namespace dist {

DispatchOutcome
runDistributed(const std::vector<exp::ExperimentSpec> &specs,
               const std::string &queueDir, exp::ResultCache &cache,
               const DispatchOptions &opts)
{
    WorkQueue queue(queueDir);
    queue.onEvent = opts.onEvent;
    auto log = [&](const std::string &line) {
        if (opts.onEvent)
            opts.onEvent(line);
    };

    DispatchOutcome out;
    out.results.resize(specs.size());

    // Reorder buffer for onResult streaming: rows resolve in
    // whatever order workers finish them, but the callback sees
    // them in spec order — emit the longest resolved prefix each
    // time it grows.
    std::vector<char> resolved(specs.size(), 0);
    std::size_t streamed = 0;
    auto streamReady = [&] {
        while (streamed < specs.size() && resolved[streamed]) {
            if (opts.onResult)
                opts.onResult(streamed, out.results[streamed]);
            ++streamed;
        }
    };

    // Index the grid by content key: duplicate cells (differing only
    // in id/labels) share one chain and one simulation but still fill
    // one result row each. A cell may ride the queue under its own
    // key (the whole-cell link, which is also what retry-failed puts
    // back) or, when sliced, under the keys of its chain's links.
    struct Cell
    {
        std::vector<std::size_t> rows;
        std::vector<std::string> keys;
    };
    std::map<std::string, Cell> cells;
    for (std::size_t i = 0; i < specs.size(); ++i)
        cells[exp::specKey(specs[i])].rows.push_back(i);
    for (auto &[key, cell] : cells) {
        const std::uint64_t n = WorkQueue::sliceCount(
            specs[cell.rows.front()], opts.sliceTicks);
        cell.keys.push_back(key);
        for (std::uint64_t i = 0; n > 1 && i < n; ++i) {
            cell.keys.push_back(
                WorkQueue::sliceKeyFor(key, opts.sliceTicks, i));
        }
    }

    // Enqueue a cell's first unfinished link: right after the last
    // published chain snapshot rather than link 0 — a crashed chain
    // re-pays at most one link, never the prefix. A chain of one
    // link is the whole cell. Returns whether a file was written.
    auto enqueueCell = [&](const std::string &key, const Cell &cell) {
        const exp::ExperimentSpec &spec = specs[cell.rows.front()];
        const std::uint64_t n =
            WorkQueue::sliceCount(spec, opts.sliceTicks);
        std::uint64_t resume = n > 1 ? n - 1 : 0;
        std::error_code ec;
        while (resume > 0 &&
               !std::filesystem::exists(
                   queue.snapshotPath(key, resume * opts.sliceTicks),
                   ec))
            --resume;
        const std::size_t before = queue.counters().enqueued;
        queue.enqueue(spec, opts.sliceTicks, resume);
        return queue.counters().enqueued != before;
    };

    // Resolve a cell the shared cache holds: fill its rows and sweep
    // its queue leftovers — a re-enqueue race's pending file, or the
    // claim of a worker that died between publishing and releasing
    // (this campaign or a previous one) — so a finished sweep leaves
    // an empty queue.
    auto resolveFromCache = [&](const Cell &cell) {
        const std::size_t first = cell.rows.front();
        if (!cache.lookup(specs[first], out.results[first]))
            return false;
        for (const std::size_t i : cell.rows) {
            if (i != first)
                cache.lookup(specs[i], out.results[i]);
            resolved[i] = 1;
        }
        for (const std::string &k : cell.keys)
            queue.discardResolved(k);
        return true;
    };

    // Resolve a failed cell from its failure marker as error rows.
    auto resolveFromMarker = [&](const std::string &key,
                                 const Cell &cell) {
        std::string governor, error;
        double hostSeconds = 0.0;
        if (!queue.failedResult(key, governor, error, hostSeconds))
            return false;
        for (const std::size_t i : cell.rows) {
            exp::RunResult &res = out.results[i];
            res.id = specs[i].id;
            res.governor = governor;
            res.workload = specs[i].workload.name();
            res.labels = specs[i].labels;
            res.ok = false;
            res.error = error;
            res.hostSeconds = hostSeconds;
            ++out.failedCells;
            resolved[i] = 1;
        }
        return true;
    };

    // Phase 1: resolve what the shared cache already has; enqueue
    // the rest. Stale failure markers from a previous campaign are
    // cleared first — like the single-process runner, every dispatch
    // retries previously failed cells. Only real writes count, not
    // cells another campaign already queued.
    std::vector<std::string> unresolved;
    for (const auto &[key, cell] : cells) {
        if (resolveFromCache(cell)) {
            out.alreadyCached += cell.rows.size();
            continue;
        }
        queue.clearFailed(key);
        out.enqueued += enqueueCell(key, cell);
        unresolved.push_back(key);
    }
    log("enqueued " + std::to_string(out.enqueued) + " cell(s) (" +
        std::to_string(out.alreadyCached) +
        " already cached) on queue " + queue.dir());
    streamReady();

    // Phase 2: local workers, if requested — the same loop the
    // sweep_worker daemon runs, one thread each. They serve (not
    // drain): a drain worker could observe the queue momentarily
    // empty while the dispatcher is re-enqueueing a corrupt-
    // recovered cell and exit with work left, so the dispatcher
    // stops them explicitly once every cell has resolved.
    std::atomic<bool> stopWorkers{false};
    std::vector<std::thread> workers;
    std::vector<WorkerStats> workerStats(opts.spawnWorkers);
    for (std::size_t w = 0; w < opts.spawnWorkers; ++w) {
        workers.emplace_back([&, w] {
            // A throw escaping a std::thread is terminate(): treat
            // a dying local worker like a dying remote one — report
            // and let lease reclamation reroute its cells.
            try {
                WorkerOptions wo;
                wo.poll = opts.poll;
                wo.heartbeat = opts.heartbeat;
                wo.leaseTimeout = opts.leaseTimeout;
                wo.onEvent = opts.onEvent;
                wo.shouldStop = [&] {
                    return stopWorkers.load(
                        std::memory_order_relaxed);
                };
                workerStats[w] = runWorker(queueDir, cache, wo);
            } catch (const std::exception &e) {
                if (opts.onEvent)
                    opts.onEvent(std::string("local worker died: ") +
                                 e.what());
            }
        });
    }
    auto joinWorkers = [&] {
        stopWorkers.store(true, std::memory_order_relaxed);
        for (auto &t : workers)
            t.join();
    };

    // Phase 3: watch until every key resolves. The cache entry is
    // the completion marker; failed/ markers resolve error rows; a
    // key missing everywhere was quarantined as corrupt and is
    // re-enqueued from our own spec. The whole watch runs under one
    // try so the spawned workers are always joined before an error
    // propagates (a joinable std::thread destructor is terminate()).
    try {
        // lint:allow nondeterminism -- host-side stall clock for the
        // watch loop; never feeds a simulated quantity
        auto lastProgress = std::chrono::steady_clock::now();
        while (!unresolved.empty()) {
            // One listing of pending/ + claimed/ per poll serves
            // every key's in-flight check, instead of a directory
            // scan per unresolved cell.
            const std::set<std::string> onQueue =
                queue.inFlightKeys();

            bool progressed = false;
            for (std::size_t u = 0; u < unresolved.size();) {
                const std::string key = unresolved[u];
                const Cell &cell = cells[key];

                if (!resolveFromCache(cell) &&
                    !resolveFromMarker(key, cell)) {
                    // Neither finished nor in flight? The queue file
                    // was quarantined (corrupt) or lost — re-enqueue
                    // from the spec we hold. enqueue() itself
                    // re-checks pending/claimed/failed, so a link
                    // that moved between the listing and here is
                    // skipped, not duplicated.
                    const bool inFlight = std::any_of(
                        cell.keys.begin(), cell.keys.end(),
                        [&](const std::string &k) {
                            return onQueue.count(k) > 0;
                        });
                    if (!inFlight && enqueueCell(key, cell)) {
                        ++out.reenqueued;
                        log("re-enqueued " + key +
                            " (queue entry was lost or "
                            "quarantined)");
                    }
                    ++u;
                    continue;
                }
                unresolved[u] = unresolved.back();
                unresolved.pop_back();
                progressed = true;
            }
            if (progressed)
                streamReady();
            if (unresolved.empty())
                break;

            queue.reclaimStale(opts.leaseTimeout);

            // lint:allow nondeterminism -- host-side stall clock
            const auto now = std::chrono::steady_clock::now();
            if (progressed) {
                lastProgress = now;
                std::size_t left = 0;
                for (const auto &k : unresolved)
                    left += cells[k].rows.size();
                log(std::to_string(specs.size() - left) + "/" +
                    std::to_string(specs.size()) +
                    " cells resolved");
            } else if (opts.stallTimeout.count() > 0 &&
                       now - lastProgress > opts.stallTimeout) {
                throw std::runtime_error(
                    "runDistributed: no cell completed within the "
                    "stall timeout — are any workers serving queue "
                    "\"" +
                    queue.dir() + "\"?");
            }
            std::this_thread::sleep_for(opts.poll);
        }
    } catch (...) {
        joinWorkers();
        throw;
    }

    joinWorkers();
    for (const WorkerStats &ws : workerStats)
        out.localWork += ws;
    return out;
}

} // namespace dist
} // namespace sysscale
