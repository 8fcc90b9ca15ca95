/**
 * @file
 * Filesystem work-stealing queue for distributed sweeps.
 *
 * One grid fans out across machines through a shared directory (NFS
 * or any POSIX filesystem with atomic rename — no locks, no server):
 *
 *     <queue>/pending/<key>.spec        chain links waiting for a worker
 *     <queue>/claimed/<key>.<worker>    links being simulated
 *     <queue>/leases/<key>.<worker>     heartbeat files (mtime = alive)
 *     <queue>/failed/<key>              published error rows
 *     <queue>/failed/<key>.spec         retained whole-cell links
 *                                       (retry-failed)
 *     <queue>/snaps/<key>.t<tick>.snap  checkpoint-chain snapshots
 *     <queue>/metrics/<worker>.metrics  worker telemetry
 *     <queue>/corrupt/                  quarantined unreadable files
 *     <queue>/tmp/                      staging for atomic writes
 *                                       + the lease-staleness probe
 *
 * Every queue entry is one link of its cell's checkpoint chain (see
 * @ref WorkQueue::enqueue): a `sysscale-slice v2` record holding the
 * cell's content key (exp::specKey), the slicing period, the link
 * index and the cell's serialized exp::ExperimentSpec (format
 * docs/EXPERIMENTS.md). An unsliced cell is the one-link chain with
 * period 0, filed under the cell's own content key, so the queue
 * inherits the cache's identity rules: duplicate cells collapse to
 * one file and renaming/relabeling never re-enqueues. Entries,
 * failure markers and metrics files are records of the snapshot
 * codec (sim/snapshot.hh), and every file is published through
 * writeSnapshotFile, staged under tmp/.
 *
 * Claiming is one atomic rename(pending -> claimed): exactly one
 * worker wins a link, with no coordination beyond the filesystem.
 * While simulating, the winner refreshes its lease file; a claim
 * whose lease goes stale (crashed or partitioned worker) is renamed
 * back into pending/ by whoever notices first, so no link is ever
 * lost. A cell's result is published through the shared
 * exp::ResultCache — the cache entry *is* the completion marker —
 * and workers check the cache immediately after claiming, so a
 * reclaimed link whose cell another worker actually finished is
 * never simulated twice.
 *
 * Corrupt or truncated files never produce a claim (and therefore
 * never a wrong result): they are moved into corrupt/ and reported
 * loudly; the dispatcher re-enqueues the cell from its own spec.
 */

#ifndef SYSSCALE_DIST_WORK_QUEUE_HH
#define SYSSCALE_DIST_WORK_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace sysscale {
namespace dist {

/**
 * One claimed queue entry, owned by a worker until release/fail/
 * requeue: link @ref index of its cell's checkpoint chain (see
 * @ref WorkQueue::enqueue). The link simulates [t0, t1] of the cell's
 * warmup+window timeline; an unsliced cell is the one link with
 * step 0 and window [0, total].
 */
struct Claim
{
    std::string key;      //!< sliceKeyFor(baseKey, step, index).
    std::string workerId; //!< Worker holding the claim.
    exp::ExperimentSpec spec;

    std::string baseKey;   //!< exp::specKey of the cell.
    Tick step = 0;         //!< Chain slicing period; 0 = whole cell.
    std::uint64_t index = 0; //!< Link number, 0-based.
    Tick t0 = 0;           //!< Link start = index * step.
    Tick t1 = 0;           //!< Link end (total for step 0).
    Tick total = 0;        //!< Cell length (warmup + window).
};

/** Directory occupancy from one scan (point-in-time, racy by design). */
struct QueueScan
{
    std::size_t pending = 0;
    std::size_t claimed = 0;
    std::size_t failed = 0;

    /** No cell waiting or in flight (failed cells are finished). */
    bool drained() const { return pending == 0 && claimed == 0; }
};

/**
 * One live lease, aged against the queue filesystem's own clock (a
 * probe file touched next to the leases — see @ref
 * WorkQueue::status), so the age is meaningful even when observer
 * and worker clocks disagree.
 */
struct LeaseInfo
{
    std::string key;      //!< Cell the lease covers.
    std::string workerId; //!< Worker refreshing it.
    double ageSeconds = 0.0; //!< Probe mtime minus lease mtime.
};

/**
 * One cell visible on the queue, with its spec decoded for display
 * (read-only: inspection never quarantines, claims, or reclaims).
 */
struct CellInfo
{
    /** "pending", "claimed", or "failed". */
    std::string state;
    std::string key;
    std::string workerId; //!< Claimed cells only.

    /**
     * Cell id decoded from the queue entry via the spec codec, with
     * " [slice <i>]" appended for a link of a multi-link chain;
     * "(unparsable)" when the file does not decode (the claim path
     * will quarantine it — inspection only reports).
     */
    std::string specId;

    /** Failed cells only: the published error text. */
    std::string error;

    /** Claimed cells only; negative when the lease is missing. */
    double leaseAgeSeconds = -1.0;
};

/** Point-in-time queue health, assembled by @ref WorkQueue::status. */
struct QueueStatus
{
    std::size_t pending = 0;
    std::size_t claimed = 0;
    std::size_t failed = 0;
    std::size_t corrupt = 0; //!< Files quarantined under corrupt/.

    /** Every live lease, sorted by key then worker. */
    std::vector<LeaseInfo> leases;
};

/**
 * The error row a failed cell leaves behind (failed/<key>, a
 * `sysscale-dist-failure v2` record): what a dispatcher reports for
 * every row of the cell instead of simulating it again.
 */
struct FailureMarker
{
    std::string key;      //!< Base key (exp::specKey) of the cell.
    std::string governor; //!< The failed row's governor column.
    double hostSeconds = 0.0;
    std::string error;    //!< One line: newlines become spaces.
};

/**
 * One worker's self-published campaign telemetry. Workers rewrite
 * their own metrics file (metrics/<workerId>.metrics, a
 * `sysscale-metrics v1` record published by atomic staged rename)
 * after every completed cell; observers read the whole
 * directory back with @ref WorkQueue::workerMetrics. Ages are
 * measured against the queue filesystem's probe clock, like lease
 * ages, so "last heartbeat" is meaningful across skewed machines.
 */
struct WorkerMetrics
{
    std::string workerId;
    std::size_t claimed = 0;   //!< Cells claimed so far.
    std::size_t simulated = 0; //!< Cells actually simulated.
    std::size_t cacheHits = 0; //!< Claims already completed elsewhere.
    std::size_t failures = 0;  //!< Error rows published.

    /** Simulated (model) seconds completed, summed over cells. */
    double simSeconds = 0.0;

    /** Host wall seconds those simulations took (hostSeconds sum). */
    double wallSeconds = 0.0;

    /**
     * Readers only: probe mtime minus metrics-file mtime — how long
     * since this worker last finished a cell. Ignored on publish.
     */
    double ageSeconds = 0.0;
};

/** Monotonic per-instance counters. */
struct QueueCounters
{
    std::size_t enqueued = 0;  //!< Cells newly written to pending/.
    std::size_t skipped = 0;   //!< Enqueues already present somewhere.
    std::size_t claims = 0;    //!< Successful tryClaim calls.
    std::size_t releases = 0;  //!< Claims completed.
    std::size_t failures = 0;  //!< Error rows published.
    std::size_t reclaims = 0;  //!< Stale claims recovered.
    std::size_t corrupt = 0;   //!< Files quarantined to corrupt/.
};

class WorkQueue
{
  public:
    /**
     * @param dir Queue root; the subdirectory tree is created
     *        (recursively) if absent. Throws std::runtime_error when
     *        it cannot be created.
     */
    explicit WorkQueue(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * @name Checkpoint chains.
     *
     * A cell rides the queue as a *chain* of links: link i simulates
     * [i*step, min((i+1)*step, total)] of the cell's warmup+window
     * timeline via exp::runCellSlice, restoring the chain's snapshot
     * at t0 and publishing one at t1 under snaps/ (tmp+rename, so
     * observers never read a torn snapshot). A chain of one link —
     * an unsliced cell, or one no longer than its period — is the
     * whole cell: step 0, window [0, total], filed under the cell's
     * content key, no snapshot. Only link i is on the queue at a
     * time; the worker that completes it enqueues link i+1 before
     * releasing, and the published snapshot doubles as the link's
     * completion marker — a reclaimed link whose snapshot already
     * exists is never simulated twice. A missing or corrupt chain
     * snapshot degrades to a cache miss inside runCellSlice
     * (re-simulate from tick 0), so a damaged chain heals itself
     * instead of wedging; the final link publishes the cell's
     * RunResult through the shared cache, byte-identical to the
     * unsliced run (tests/test_contracts.cc pins the equivalence,
     * test_dist.cc the queue protocol).
     * @{
     */

    /**
     * File key of link @p index of the cell with content key
     * @p baseKey under slicing period @p step: @p baseKey itself for
     * step 0 (the whole cell), else 16 hex digits deterministic
     * across processes (the whole fleet derives the same chain from
     * the same spec).
     */
    static std::string sliceKeyFor(const std::string &baseKey,
                                   Tick step, std::uint64_t index);

    /** Links in @p spec's chain under period @p step (1 for step 0). */
    static std::uint64_t sliceCount(const exp::ExperimentSpec &spec,
                                    Tick step);

    /**
     * Put link @p index of @p spec's chain under period @p step into
     * pending/ (atomic write) and return its key. A chain of at most
     * one link is enqueued as the whole cell (step 0), so
     * enqueue(spec) is the unsliced cell under exp::specKey(spec).
     * An entry already pending or claimed — or a cell already failed
     * — is skipped (its key is still returned). Throws
     * std::invalid_argument for unserializable specs or an index at
     * or past the end of the chain.
     */
    std::string enqueue(const exp::ExperimentSpec &spec, Tick step = 0,
                        std::uint64_t index = 0);

    /**
     * Path of the chain snapshot published at tick @p t of cell
     * @p baseKey (snaps/<baseKey>.t<t>.snap). Existence = the link
     * ending at @p t completed; validity is re-checked on read.
     */
    std::string snapshotPath(const std::string &baseKey,
                             Tick t) const;
    /** @} */

    /**
     * Claim any pending link for @p workerId: the lease file is
     * written first, then the entry is renamed into claimed/ — an
     * atomic operation only one contender can win. On success fills
     * @p out and returns true; returns false when nothing claimable
     * remains. Unparsable or key-mismatched files are quarantined
     * (never claimed, never a wrong result) and the scan continues.
     */
    bool tryClaim(const std::string &workerId, Claim &out);

    /** Refresh @p claim's lease (call periodically while simulating). */
    void heartbeat(const Claim &claim);

    /**
     * Drop a finished claim (the result has been published through
     * the shared cache). Idempotent; a concurrently reclaimed claim
     * releases as a no-op.
     */
    void release(const Claim &claim);

    /**
     * Publish an error row for @p claim's cell into failed/ (under
     * the cell's content key: a failed link fails its cell) and drop
     * the claim. Failed cells count as finished: they are not retried
     * until a dispatcher explicitly clears them (error rows are
     * never cached, matching the single-process runner). The cell's
     * whole-cell link is kept alongside the marker
     * (failed/<key>.spec) so @ref retryFailed can put the cell back
     * on the queue without a dispatcher.
     */
    void fail(const Claim &claim, const exp::RunResult &res);

    /**
     * Read the error row published for @p key, if any: the marker
     * when a valid failure marker for @p key exists, nothing when it
     * is absent, torn, stale or foreign.
     */
    std::optional<FailureMarker>
    failedResult(const std::string &key) const;

    /** Remove the failure marker of @p key (fresh dispatch attempt). */
    void clearFailed(const std::string &key);

    /**
     * Drop every queue file of a cell that has resolved through the
     * cache: its pending file (re-enqueue race leftovers) and any
     * claim + lease a worker that died between publishing and
     * releasing left behind. Always safe once the result is cached
     * — a live claim holder's store and release are both
     * idempotent. Dispatcher cleanup so a finished sweep leaves an
     * empty queue.
     */
    void discardResolved(const std::string &key);

    /**
     * Keys currently in pending/ or claimed/ — one directory
     * listing, for the dispatcher's in-flight check.
     */
    std::set<std::string> inFlightKeys() const;

    /**
     * Recover cells whose worker died: every claim whose lease file
     * is missing or older than @p timeout is renamed back into
     * pending/, and orphaned lease files (crash between lease write
     * and claim rename) older than @p timeout are removed. Safe to
     * call from any process at any time; rename arbitrates races.
     * Returns the number of claims reclaimed.
     *
     * @p timeout must comfortably exceed the heartbeat interval: a
     * live-but-slow worker whose claim is reclaimed causes a
     * duplicate (deterministic, so still correct) simulation, never
     * a wrong or lost result.
     */
    std::size_t reclaimStale(std::chrono::seconds timeout);

    /** Count the queue directories (racy snapshot). */
    QueueScan scan() const;

    /** @name Read-only inspection (sweep_queue, dashboards). @{ */

    /**
     * Occupancy counts plus every live lease's age. Ages are
     * measured against a probe file touched in tmp/ — the queue
     * filesystem's own clock — so they are exact across machines
     * with skewed wall clocks. Tolerates concurrent mutation: a
     * file that vanishes between the directory listing and its
     * stat (claimed, released, reclaimed meanwhile) is skipped,
     * never misreported as corrupt.
     */
    QueueStatus status() const;

    /**
     * Every cell on the queue (pending, claimed, failed) with its
     * spec id decoded via the spec codec, sorted by state then key.
     * Strictly read-only: an unparsable file is reported as
     * "(unparsable)" but never quarantined, and vanishing files are
     * skipped — safe to run against a live campaign.
     */
    std::vector<CellInfo> listCells() const;

    /** @} */

    /** @name Worker telemetry (campaign dashboards). @{ */

    /**
     * Publish @p m as this worker's metrics file
     * (metrics/<m.workerId>.metrics), staged under tmp/ and atomically
     * renamed so observers never read a torn write. Best-effort: a
     * publish that cannot complete is dropped silently (telemetry
     * must never fail a cell).
     */
    void publishMetrics(const WorkerMetrics &m);

    /**
     * Read back every published worker metrics file, sorted by
     * worker id, with @ref WorkerMetrics::ageSeconds filled from the
     * probe clock. Unreadable, stale, or foreign files are skipped.
     */
    std::vector<WorkerMetrics> workerMetrics() const;

    /** @} */

    /**
     * Put every failed cell back on the queue: the failure marker is
     * removed and the retained whole-cell link (failed/<key>.spec)
     * renamed into pending/. Removing the marker arbitrates
     * concurrent callers: only the one whose removal succeeds counts
     * the cell, moves its link and reports it. A marker without a
     * retained link is just cleared, so the next dispatch re-enqueues
     * the cell. Returns the number of markers this call cleared.
     */
    std::size_t retryFailed();

    /**
     * Remove every file in the queue (pending, claimed, leases,
     * failed, corrupt, tmp) — a destructive reset for abandoned
     * campaigns. Returns the number of files removed.
     */
    std::size_t purge();

    const QueueCounters &counters() const { return counters_; }

    /**
     * Loud-degradation hook: corrupt quarantines and stale reclaims
     * are reported here (and are visible in @ref counters either
     * way). Not serialized; set before sharing across threads.
     */
    std::function<void(const std::string &)> onEvent;

    /**
     * Test-only race injection: called with each file name during
     * status()/listCells() after the directory listing and before
     * the file is stat'ed or read — lets tests delete a file at
     * exactly that point to pin vanish tolerance. Null in
     * production.
     */
    std::function<void(const std::string &)> onScanFile;

    /**
     * Fallback "now" used only when the staleness probe file cannot
     * be written (read-only queue filesystem). Defaults to the
     * observer's wall clock; injectable so tests can pin that a
     * skewed observer clock never changes staleness decisions —
     * lease ages come from the probe, not from here.
     */
    std::function<std::filesystem::file_time_type()> wallClock;

    /** @name Path helpers (tests and tools). @{ */
    std::string pendingPath(const std::string &key) const;
    std::string claimedPath(const std::string &key,
                            const std::string &workerId) const;
    std::string leasePath(const std::string &key,
                          const std::string &workerId) const;
    std::string failedPath(const std::string &key) const;
    std::string metricsPath(const std::string &workerId) const;
    /** @} */

  private:
    void note(const std::string &event);
    bool quarantine(const std::string &path,
                    const std::string &reason);
    void heartbeatPath(const std::string &lease,
                       const std::string &workerId);

    /**
     * The queue filesystem's own "now": touch a probe file under
     * tmp/ and read its mtime back, so staleness decisions compare
     * two timestamps stamped by the same clock — the filesystem
     * serving the queue — regardless of any machine's wall clock.
     * Falls back to @ref wallClock when the probe cannot be
     * written.
     */
    std::filesystem::file_time_type probeNow() const;

    std::string dir_;
    QueueCounters counters_;
    std::size_t tmpSerial_ = 0;
};

/**
 * A process-unique worker identity: "<host>-<pid>-<serial>",
 * sanitized to filename-safe characters (claim and lease file names
 * embed it after the 16-hex-digit cell key).
 */
std::string makeWorkerId();

} // namespace dist
} // namespace sysscale

#endif // SYSSCALE_DIST_WORK_QUEUE_HH
