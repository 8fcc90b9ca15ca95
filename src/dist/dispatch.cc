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
    // in id/labels) share one queue entry and one simulation but
    // still fill one result row each.
    std::map<std::string, std::vector<std::size_t>> byKey;
    for (std::size_t i = 0; i < specs.size(); ++i)
        byKey[exp::specKey(specs[i])].push_back(i);

    // Phase 1: resolve what the shared cache already has; enqueue
    // the rest. Stale failure markers from a previous campaign are
    // cleared first — like the single-process runner, every dispatch
    // retries previously failed cells. The counters delta separates
    // real writes from cells another campaign already queued.
    // A cell rides the queue sliced when slicing is on and the cell
    // is longer than one slice (a one-slice chain would only add
    // snapshot overhead for nothing).
    auto sliced = [&](const exp::ExperimentSpec &spec) {
        return opts.sliceTicks > 0 &&
               WorkQueue::sliceCount(spec, opts.sliceTicks) > 1;
    };

    // First queue entry of a lost sliced cell: resume right after
    // the last published chain snapshot rather than from slice 0 —
    // a crashed chain re-pays at most one slice, never the prefix.
    auto enqueueChain = [&](const exp::ExperimentSpec &spec) {
        const std::uint64_t n =
            WorkQueue::sliceCount(spec, opts.sliceTicks);
        const std::string base = exp::specKey(spec);
        std::uint64_t resume = 0;
        for (std::uint64_t i = n - 1; i > 0; --i) {
            std::error_code ec;
            if (std::filesystem::exists(
                    queue.snapshotPath(base,
                                       i * opts.sliceTicks),
                    ec)) {
                resume = i;
                break;
            }
        }
        queue.enqueueSlice(spec, opts.sliceTicks, resume);
    };

    // Sweep a resolved cell's queue leftovers — including, for a
    // sliced cell, any entry of its chain.
    auto discardCell = [&](const std::string &key,
                           const exp::ExperimentSpec &spec) {
        queue.discardResolved(key);
        if (sliced(spec)) {
            const std::uint64_t n =
                WorkQueue::sliceCount(spec, opts.sliceTicks);
            for (std::uint64_t i = 0; i < n; ++i) {
                queue.discardResolved(WorkQueue::sliceKeyFor(
                    key, opts.sliceTicks, i));
            }
        }
    };

    std::vector<std::string> unresolved;
    for (auto &kv : byKey) {
        const std::size_t first = kv.second.front();
        if (cache.lookup(specs[first], out.results[first])) {
            for (std::size_t j = 1; j < kv.second.size(); ++j) {
                cache.lookup(specs[kv.second[j]],
                             out.results[kv.second[j]]);
            }
            for (const std::size_t i : kv.second)
                resolved[i] = 1;
            out.alreadyCached += kv.second.size();
            // A worker that died between publishing and releasing
            // (this campaign or a previous one) leaves its claim
            // behind; sweep it so the queue cannot accrete garbage.
            discardCell(kv.first, specs[first]);
            continue;
        }
        queue.clearFailed(kv.first);
        const std::size_t before = queue.counters().enqueued;
        if (sliced(specs[first]))
            enqueueChain(specs[first]);
        else
            queue.enqueue(specs[first]);
        out.enqueued += queue.counters().enqueued - before;
        unresolved.push_back(kv.first);
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
                const auto &indices = byKey[key];
                const std::size_t first = indices.front();

                if (cache.lookup(specs[first],
                                 out.results[first])) {
                    for (std::size_t j = 1; j < indices.size();
                         ++j) {
                        cache.lookup(specs[indices[j]],
                                     out.results[indices[j]]);
                    }
                    for (const std::size_t i : indices)
                        resolved[i] = 1;
                    // Sweep any queue leftovers of the resolved
                    // cell — a re-enqueue race's pending file, or
                    // the claim of a worker that died between
                    // publishing and releasing — so a finished
                    // sweep leaves an empty queue.
                    discardCell(key, specs[first]);
                    unresolved[u] = unresolved.back();
                    unresolved.pop_back();
                    progressed = true;
                    continue;
                }

                std::string governor, error;
                double hostSeconds = 0.0;
                if (queue.failedResult(key, governor, error,
                                       hostSeconds)) {
                    for (const std::size_t i : indices) {
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
                    unresolved[u] = unresolved.back();
                    unresolved.pop_back();
                    progressed = true;
                    continue;
                }

                // Neither finished nor in flight? The queue file
                // was quarantined (corrupt) or lost — re-enqueue
                // from the spec we hold. enqueue() itself re-checks
                // pending/claimed/failed, so a cell that moved
                // between the listing and here is skipped, not
                // duplicated. A sliced cell is in flight if *any*
                // entry of its chain is; losing the chain costs at
                // most one slice — the resume scan picks up right
                // after the last published snapshot.
                bool inFlight = onQueue.count(key) > 0;
                if (!inFlight && sliced(specs[first])) {
                    const std::uint64_t n = WorkQueue::sliceCount(
                        specs[first], opts.sliceTicks);
                    for (std::uint64_t i = 0; i < n && !inFlight;
                         ++i) {
                        inFlight =
                            onQueue.count(WorkQueue::sliceKeyFor(
                                key, opts.sliceTicks, i)) > 0;
                    }
                }
                if (!inFlight) {
                    const std::size_t before =
                        queue.counters().enqueued;
                    if (sliced(specs[first]))
                        enqueueChain(specs[first]);
                    else
                        queue.enqueue(specs[first]);
                    if (queue.counters().enqueued != before) {
                        ++out.reenqueued;
                        log("re-enqueued " + key +
                            " (queue entry was lost or "
                            "quarantined)");
                    }
                }
                ++u;
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
                    left += byKey[k].size();
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
    for (const WorkerStats &ws : workerStats) {
        out.localWork.claimed += ws.claimed;
        out.localWork.simulated += ws.simulated;
        out.localWork.cacheHits += ws.cacheHits;
        out.localWork.failures += ws.failures;
        out.localWork.reclaims += ws.reclaims;
    }
    return out;
}

} // namespace dist
} // namespace sysscale
