#include "dist/work_queue.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"

namespace fs = std::filesystem;

namespace sysscale {
namespace dist {

namespace {

constexpr std::size_t kKeyLen = 16; //!< specKey() hex digits.
/** Header of a failure marker (failed/<key>). */
constexpr const char *kFailureHeader = "sysscale-dist-failure v2";

/**
 * Header of a queue entry (one chain link): base key, slicing period,
 * link index and the cell's own serialized spec. The spec codec's
 * version guard covers the spec, this header the record around it.
 */
constexpr const char *kSliceHeader = "sysscale-slice v2";

/** Header of a worker metrics file (metrics/<worker>.metrics). */
constexpr const char *kMetricsHeader = "sysscale-metrics v1";

bool
isHexKey(const std::string &s)
{
    if (s.size() != kKeyLen)
        return false;
    for (const char c : s) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return true;
}

/** Split "<key>.<worker>" claim/lease file names; empty on garbage. */
bool
splitClaimName(const std::string &name, std::string &key,
               std::string &worker)
{
    if (name.size() < kKeyLen + 2 || name[kKeyLen] != '.')
        return false;
    key = name.substr(0, kKeyLen);
    worker = name.substr(kKeyLen + 1);
    return isHexKey(key) && !worker.empty();
}

/**
 * A queue entry: link @ref Claim::index of the chain of the cell
 * under @ref Claim::baseKey, sliced every @ref Claim::step, with the
 * cell's own full spec record. A loading walk also derives the
 * link's window; the claim's key and worker are not stored.
 */
void
visit(StateIO &io, Claim &c)
{
    io.field("base", c.baseKey);
    io.field("step", c.step);
    io.field("index", c.index);
    std::string spec =
        io.loading() ? std::string() : exp::serializeSpec(c.spec);
    io.field("spec", spec);
    if (!io.loading())
        return;
    c.spec = exp::parseSpec(spec);
    c.total = c.spec.warmup + c.spec.window;
    c.t0 = c.index * c.step;
    c.t1 = c.step == 0 ? c.total : std::min(c.t0 + c.step, c.total);
}

void
visit(StateIO &io, FailureMarker &m)
{
    io.field("key", m.key);
    io.field("governor", m.governor);
    io.field("host_seconds", m.hostSeconds);
    io.field("error", m.error);
}

/** WorkerMetrics::ageSeconds is the reader's and is not stored. */
void
visit(StateIO &io, WorkerMetrics &m)
{
    io.field("worker", m.workerId);
    io.field("claimed", m.claimed);
    io.field("simulated", m.simulated);
    io.field("cache_hits", m.cacheHits);
    io.field("failures", m.failures);
    io.field("sim_seconds", m.simSeconds);
    io.field("wall_seconds", m.wallSeconds);
}

/** @p record as a @p header record: one saving walk. */
template <typename T>
std::string
recordText(const char *header, const T &record)
{
    SnapshotWriter w(header);
    StateIO io(w);
    visit(io, const_cast<T &>(record));
    return w.str();
}

/**
 * Fill @p record from the @p header record @p text: one loading
 * walk. Throws on anything that does not decode, a record of another
 * type or version included.
 */
template <typename T>
void
readRecord(std::string text, const char *header, T &record)
{
    SnapshotReader r(std::move(text), header);
    StateIO io(r);
    visit(io, record);
    r.finish();
}

/** @p ref minus @p path's mtime, in (possibly negative) seconds. */
double
ageAgainst(const fs::file_time_type ref, const fs::path &path,
           std::error_code &ec)
{
    const auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return 0.0;
    return std::chrono::duration<double>(ref - mtime).count();
}

} // anonymous namespace

WorkQueue::WorkQueue(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    for (const char *sub :
         {"pending", "claimed", "leases", "failed", "snaps",
          "corrupt", "tmp", "metrics"}) {
        const fs::path p = fs::path(dir_) / sub;
        fs::create_directories(p, ec);
        if (ec || !fs::is_directory(p)) {
            throw std::runtime_error("WorkQueue: cannot create \"" +
                                     p.string() + "\"");
        }
    }
}

std::string
WorkQueue::pendingPath(const std::string &key) const
{
    return dir_ + "/pending/" + key + ".spec";
}

std::string
WorkQueue::claimedPath(const std::string &key,
                       const std::string &workerId) const
{
    return dir_ + "/claimed/" + key + "." + workerId;
}

std::string
WorkQueue::leasePath(const std::string &key,
                     const std::string &workerId) const
{
    return dir_ + "/leases/" + key + "." + workerId;
}

std::string
WorkQueue::failedPath(const std::string &key) const
{
    return dir_ + "/failed/" + key;
}

std::string
WorkQueue::metricsPath(const std::string &workerId) const
{
    return dir_ + "/metrics/" + workerId + ".metrics";
}

void
WorkQueue::note(const std::string &event)
{
    if (onEvent)
        onEvent(event);
}

bool
WorkQueue::quarantine(const std::string &path,
                      const std::string &reason)
{
    std::error_code ec;
    const fs::path src(path);
    const fs::path dst = fs::path(dir_) / "corrupt" /
                         (src.filename().string() + "." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(tmpSerial_++));
    fs::rename(src, dst, ec);
    if (ec) {
        // Someone else moved or claimed it first; nothing to report.
        return false;
    }
    ++counters_.corrupt;
    note("corrupt: " + src.filename().string() + " quarantined to " +
         dst.string() + " (" + reason + ")");
    return true;
}

std::string
WorkQueue::sliceKeyFor(const std::string &baseKey, Tick step,
                       std::uint64_t index)
{
    if (step == 0)
        return baseKey;
    // Deterministic across processes: every worker and dispatcher
    // derives the same chain keys from the same (cell, period).
    const std::string salt = "slice:" + baseKey + ":" +
                             std::to_string(step) + ":" +
                             std::to_string(index);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(salt)));
    return buf;
}

std::uint64_t
WorkQueue::sliceCount(const exp::ExperimentSpec &spec, Tick step)
{
    if (step == 0)
        return 1;
    const Tick total = spec.warmup + spec.window;
    return (total + step - 1) / step;
}

std::string
WorkQueue::snapshotPath(const std::string &baseKey, Tick t) const
{
    return dir_ + "/snaps/" + baseKey + ".t" + std::to_string(t) +
           ".snap";
}

std::string
WorkQueue::enqueue(const exp::ExperimentSpec &spec, Tick step,
                   std::uint64_t index)
{
    // A chain of one link is the whole cell, under the cell's own key.
    if (sliceCount(spec, step) <= 1)
        step = 0;
    if (index >= sliceCount(spec, step)) {
        throw std::invalid_argument(
            "WorkQueue: link index " + std::to_string(index) +
            " past the end of the chain");
    }
    const std::string baseKey = exp::specKey(spec);
    const std::string key = sliceKeyFor(baseKey, step, index);

    // The entry already pending or claimed — or its cell already
    // failed — is a skip, which is what makes the crash-recovery
    // "enqueue successor, then release" order safe to replay.
    std::error_code ec;
    bool present = fs::exists(pendingPath(key), ec) ||
                   fs::exists(failedPath(baseKey), ec);
    if (!present) {
        for (const auto &entry : fs::directory_iterator(
                 fs::path(dir_) / "claimed", ec)) {
            if (entry.path().filename().string().rfind(key + ".",
                                                       0) == 0) {
                present = true;
                break;
            }
        }
    }
    if (present) {
        ++counters_.skipped;
        return key;
    }
    Claim link;
    link.spec = spec;
    link.baseKey = baseKey;
    link.step = step;
    link.index = index;
    writeSnapshotFile(pendingPath(key), recordText(kSliceHeader, link),
                      dir_ + "/tmp");
    ++counters_.enqueued;
    return key;
}

bool
WorkQueue::tryClaim(const std::string &workerId, Claim &out)
{
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "pending", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() != kKeyLen + 5 ||
            name.compare(kKeyLen, 5, ".spec") != 0 ||
            !isHexKey(name.substr(0, kKeyLen))) {
            quarantine(entry.path().string(),
                       "not a <key>.spec file");
            continue;
        }
        const std::string key = name.substr(0, kKeyLen);

        // Lease before rename: a visible claim always has a lease,
        // so reclaimStale() can treat a missing lease as a crash.
        heartbeatPath(leasePath(key, workerId), workerId);
        const std::string claimed = claimedPath(key, workerId);
        fs::rename(entry.path(), claimed, ec);
        if (ec) {
            // Lost the race for this cell; drop the lease and try
            // the next one.
            fs::remove(leasePath(key, workerId), ec);
            continue;
        }

        // The rename is ours. A file that does not decode back into
        // the link it is named for must never be simulated — move it
        // aside loudly and keep scanning; the dispatcher re-enqueues
        // the cell from its own copy of the spec.
        Claim claim;
        claim.key = key;
        claim.workerId = workerId;
        std::string reason;
        try {
            readRecord(readSnapshotFile(claimed), kSliceHeader, claim);
            if (exp::specKey(claim.spec) != claim.baseKey) {
                reason = "base key mismatch";
            } else if (sliceKeyFor(claim.baseKey, claim.step,
                                   claim.index) != key) {
                reason = "link key mismatch";
            } else if (claim.index >=
                       sliceCount(claim.spec, claim.step)) {
                reason = "link index past the chain";
            }
        } catch (const std::exception &e) {
            reason = *e.what() ? e.what() : "undecodable";
        }
        if (!reason.empty()) {
            quarantine(claimed, reason);
            fs::remove(leasePath(key, workerId), ec);
            continue;
        }
        out = std::move(claim);
        ++counters_.claims;
        return true;
    }
    return false;
}

void
WorkQueue::heartbeatPath(const std::string &lease,
                         const std::string &workerId)
{
    // Rewritten in place: the mtime is the signal, the content is
    // diagnostic only. A torn write is harmless.
    // lint:allow raw-queue-write -- mtime-only heartbeat; a torn
    // write is harmless by design (content is diagnostic)
    std::ofstream os(lease, std::ios::binary | std::ios::trunc);
    if (os)
        os << workerId << "\n";
}

void
WorkQueue::heartbeat(const Claim &claim)
{
    heartbeatPath(leasePath(claim.key, claim.workerId),
                  claim.workerId);
}

void
WorkQueue::release(const Claim &claim)
{
    std::error_code ec;
    fs::remove(claimedPath(claim.key, claim.workerId), ec);
    fs::remove(leasePath(claim.key, claim.workerId), ec);
    ++counters_.releases;
}

void
WorkQueue::fail(const Claim &claim, const exp::RunResult &res)
{
    // Keep the whole-cell link next to the marker: retryFailed()
    // can then put the cell back on the queue, from tick 0, without
    // needing a dispatcher's copy of the grid. Written first, so a
    // retry that sees the marker also finds the link.
    try {
        Claim whole = claim;
        whole.step = 0;
        whole.index = 0;
        writeSnapshotFile(failedPath(claim.baseKey) + ".spec",
                          recordText(kSliceHeader, whole),
                          dir_ + "/tmp");
    } catch (const SnapshotError &) {
        // A retry then waits for the next dispatch instead.
    }

    // A failed link fails its *cell*: the marker carries the base
    // key the dispatcher is watching, and the rest of the chain is
    // simply never enqueued.
    FailureMarker marker{claim.baseKey, res.governor, res.hostSeconds,
                         res.error};
    for (char &c : marker.error) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    try {
        writeSnapshotFile(failedPath(claim.baseKey),
                          recordText(kFailureHeader, marker),
                          dir_ + "/tmp");
        ++counters_.failures;
    } catch (const SnapshotError &) {
        // No marker: the dispatcher re-enqueues the cell.
    }
    std::error_code ec;
    fs::remove(claimedPath(claim.key, claim.workerId), ec);
    fs::remove(leasePath(claim.key, claim.workerId), ec);
}

std::optional<FailureMarker>
WorkQueue::failedResult(const std::string &key) const
{
    // Absent, torn, stale or foreign markers are treated as absent;
    // the cell re-runs.
    FailureMarker marker;
    try {
        readRecord(readSnapshotFile(failedPath(key)), kFailureHeader,
                   marker);
    } catch (const SnapshotError &) {
        return std::nullopt;
    }
    if (marker.key != key)
        return std::nullopt;
    return marker;
}

void
WorkQueue::clearFailed(const std::string &key)
{
    std::error_code ec;
    fs::remove(failedPath(key), ec);
    fs::remove(failedPath(key) + ".spec", ec);
}

void
WorkQueue::discardResolved(const std::string &key)
{
    std::error_code ec;
    fs::remove(pendingPath(key), ec);
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(key + ".", 0) != 0)
            continue;
        fs::remove(entry.path(), ec);
        fs::remove(fs::path(dir_) / "leases" / name, ec);
    }
}

std::set<std::string>
WorkQueue::inFlightKeys() const
{
    std::set<std::string> keys;
    std::error_code ec;
    for (const char *sub : {"pending", "claimed"}) {
        for (const auto &entry :
             fs::directory_iterator(fs::path(dir_) / sub, ec)) {
            const std::string name =
                entry.path().filename().string();
            if (name.size() >= kKeyLen &&
                isHexKey(name.substr(0, kKeyLen)))
                keys.insert(name.substr(0, kKeyLen));
        }
    }
    return keys;
}

fs::file_time_type
WorkQueue::probeNow() const
{
    // Rewritten in place, like a lease heartbeat: only the mtime
    // matters. One file per observer process so concurrent
    // inspectors never contend.
    const fs::path probe = fs::path(dir_) / "tmp" /
                           (".probe." + std::to_string(::getpid()));
    {
        // lint:allow raw-queue-write -- mtime-only probe under
        // tmp/; never read as data, only stat'ed for its clock
        std::ofstream os(probe, std::ios::binary | std::ios::trunc);
        if (os)
            os << "probe\n";
    }
    std::error_code ec;
    const auto mtime = fs::last_write_time(probe, ec);
    if (!ec)
        return mtime;
    return wallClock ? wallClock()
                     // lint:allow nondeterminism -- this IS the
                     // injectable wallClock seam's default
                     : fs::file_time_type::clock::now();
}

std::size_t
WorkQueue::reclaimStale(std::chrono::seconds timeout)
{
    std::error_code ec;
    std::size_t reclaimed = 0;

    // One probe touch serves the whole pass: every staleness test
    // compares two mtimes stamped by the filesystem serving the
    // queue, so machines with skewed wall clocks still agree on
    // which leases are dead.
    const fs::file_time_type ref = probeNow();
    const double limit =
        std::chrono::duration<double>(timeout).count();

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec)) {
        const std::string name = entry.path().filename().string();
        std::string key, worker;
        if (!splitClaimName(name, key, worker)) {
            quarantine(entry.path().string(),
                       "not a <key>.<worker> claim");
            continue;
        }
        const fs::path lease = leasePath(key, worker);
        bool stale;
        if (!fs::exists(lease, ec)) {
            // tryClaim writes the lease before the claim rename, so
            // a claim without one means its worker died in between
            // (or a racing reclaimer already took the lease).
            stale = true;
        } else {
            std::error_code age_ec;
            stale = ageAgainst(ref, lease, age_ec) > limit &&
                    !age_ec;
        }
        if (!stale)
            continue;
        fs::rename(entry.path(), pendingPath(key), ec);
        if (ec)
            continue; // The worker released/failed it meanwhile.
        fs::remove(lease, ec);
        ++reclaimed;
        ++counters_.reclaims;
        note("reclaimed stale claim " + key + " from worker " +
             worker);
    }

    // Orphaned leases: crash between lease write and claim rename.
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "leases", ec)) {
        const std::string name = entry.path().filename().string();
        std::string key, worker;
        if (!splitClaimName(name, key, worker)) {
            fs::remove(entry.path(), ec);
            continue;
        }
        std::error_code age_ec;
        if (!fs::exists(claimedPath(key, worker), ec) &&
            ageAgainst(ref, entry.path(), age_ec) > limit &&
            !age_ec) {
            fs::remove(entry.path(), ec);
        }
    }
    return reclaimed;
}

QueueScan
WorkQueue::scan() const
{
    QueueScan s;
    std::error_code ec;
    for (const auto &entry [[maybe_unused]] :
         fs::directory_iterator(fs::path(dir_) / "pending", ec))
        ++s.pending;
    for (const auto &entry [[maybe_unused]] :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec))
        ++s.claimed;
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "failed", ec)) {
        // Count failure markers only, not the retained .spec files
        // kept alongside them for retryFailed().
        if (isHexKey(entry.path().filename().string()))
            ++s.failed;
    }
    return s;
}

QueueStatus
WorkQueue::status() const
{
    QueueStatus s;
    std::error_code ec;
    const QueueScan counts = scan();
    s.pending = counts.pending;
    s.claimed = counts.claimed;
    s.failed = counts.failed;
    for (const auto &entry [[maybe_unused]] :
         fs::directory_iterator(fs::path(dir_) / "corrupt", ec))
        ++s.corrupt;

    const fs::file_time_type ref = probeNow();
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "leases", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        std::string key, worker;
        if (!splitClaimName(name, key, worker))
            continue;
        // The lease may have been released between the listing and
        // this stat — a vanished file is normal churn on a live
        // queue, not corruption; skip it silently.
        std::error_code age_ec;
        const double age = ageAgainst(ref, entry.path(), age_ec);
        if (age_ec)
            continue;
        LeaseInfo info;
        info.key = key;
        info.workerId = worker;
        info.ageSeconds = age;
        s.leases.push_back(std::move(info));
    }
    std::sort(s.leases.begin(), s.leases.end(),
              [](const LeaseInfo &a, const LeaseInfo &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.workerId < b.workerId;
              });
    return s;
}

std::vector<CellInfo>
WorkQueue::listCells() const
{
    std::vector<CellInfo> cells;
    std::error_code ec;
    const fs::file_time_type ref = probeNow();

    // Decode a cell's display id from its queue entry; strictly
    // read-only — listing a live queue must never quarantine (the
    // claim path owns that) or otherwise perturb the campaign.
    auto decodeId = [&](const std::string &path) -> std::string {
        std::string text;
        try {
            text = readSnapshotFile(path);
        } catch (const SnapshotError &) {
            return std::string(); // Vanished mid-scan: skip signal.
        }
        try {
            Claim entry;
            readRecord(text, kSliceHeader, entry);
            if (entry.step != 0)
                return entry.spec.id + " [slice " +
                       std::to_string(entry.index) + "]";
            return entry.spec.id;
        } catch (const std::exception &) {
            return "(unparsable)";
        }
    };

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "pending", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        if (name.size() != kKeyLen + 5 ||
            name.compare(kKeyLen, 5, ".spec") != 0 ||
            !isHexKey(name.substr(0, kKeyLen)))
            continue;
        const std::string id = decodeId(entry.path().string());
        if (id.empty())
            continue; // Claimed or discarded between ls and read.
        CellInfo cell;
        cell.state = "pending";
        cell.key = name.substr(0, kKeyLen);
        cell.specId = id;
        cells.push_back(std::move(cell));
    }

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        std::string key, worker;
        if (!splitClaimName(name, key, worker))
            continue;
        const std::string id = decodeId(entry.path().string());
        if (id.empty())
            continue;
        CellInfo cell;
        cell.state = "claimed";
        cell.key = key;
        cell.workerId = worker;
        cell.specId = id;
        std::error_code age_ec;
        const double age =
            ageAgainst(ref, leasePath(key, worker), age_ec);
        cell.leaseAgeSeconds = age_ec ? -1.0 : age;
        cells.push_back(std::move(cell));
    }

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "failed", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        if (!isHexKey(name))
            continue;
        CellInfo cell;
        cell.state = "failed";
        cell.key = name;
        const std::optional<FailureMarker> marker = failedResult(name);
        if (!marker)
            continue; // Marker vanished (cleared) mid-scan.
        cell.error = marker->error;
        const std::string id =
            decodeId(entry.path().string() + ".spec");
        cell.specId = id.empty() ? "(spec not retained)" : id;
        cells.push_back(std::move(cell));
    }

    std::sort(cells.begin(), cells.end(),
              [](const CellInfo &a, const CellInfo &b) {
                  return a.state != b.state ? a.state < b.state
                                            : a.key < b.key;
              });
    return cells;
}

void
WorkQueue::publishMetrics(const WorkerMetrics &m)
{
    try {
        writeSnapshotFile(metricsPath(m.workerId),
                          recordText(kMetricsHeader, m), dir_ + "/tmp");
    } catch (const SnapshotError &) {
        // Telemetry never fails a cell.
    }
}

std::vector<WorkerMetrics>
WorkQueue::workerMetrics() const
{
    std::vector<WorkerMetrics> all;
    std::error_code ec;
    const fs::file_time_type ref = probeNow();
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "metrics", ec)) {
        const fs::path p = entry.path();
        if (p.extension() != ".metrics")
            continue;
        WorkerMetrics m;
        try {
            readRecord(readSnapshotFile(p.string()), kMetricsHeader, m);
        } catch (const SnapshotError &) {
            continue; // Vanished mid-scan, torn, stale or garbage.
        }
        // The file name is the identity publishMetrics gave it; a
        // record filed under another worker's name is garbage.
        if (m.workerId != p.stem().string())
            continue;
        std::error_code age_ec;
        m.ageSeconds = ageAgainst(ref, p, age_ec);
        if (age_ec)
            m.ageSeconds = 0.0;
        all.push_back(std::move(m));
    }
    std::sort(all.begin(), all.end(),
              [](const WorkerMetrics &a, const WorkerMetrics &b) {
                  return a.workerId < b.workerId;
              });
    return all;
}

std::size_t
WorkQueue::retryFailed()
{
    std::error_code ec;
    std::vector<std::string> keys;
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "failed", ec)) {
        const std::string name = entry.path().filename().string();
        if (isHexKey(name))
            keys.push_back(name);
    }

    std::size_t cleared = 0;
    for (const std::string &key : keys) {
        // The marker's removal arbitrates concurrent retries: exactly
        // one caller removes it, and only that caller counts the
        // cell and moves its link. A marker without a retained link
        // is just cleared — the next dispatch holds the spec and
        // re-enqueues the cell.
        if (!fs::remove(failedPath(key), ec))
            continue;
        fs::rename(failedPath(key) + ".spec", pendingPath(key), ec);
        const bool requeued = !ec;
        ++cleared;
        note(requeued
                 ? "retry-failed: " + key + " back in pending"
                 : "retry-failed: cleared marker for " + key +
                       " (no retained link; next dispatch "
                       "re-enqueues it)");
    }
    return cleared;
}

std::size_t
WorkQueue::purge()
{
    std::error_code ec;
    std::size_t removed = 0;
    for (const char *sub :
         {"pending", "claimed", "leases", "failed", "snaps",
          "corrupt", "tmp", "metrics"}) {
        for (const auto &entry :
             fs::directory_iterator(fs::path(dir_) / sub, ec)) {
            if (fs::remove(entry.path(), ec) && !ec)
                ++removed;
        }
    }
    note("purged " + std::to_string(removed) + " file(s)");
    return removed;
}

std::string
makeWorkerId()
{
    static std::atomic<std::size_t> serial{0};
    char host[256] = "host";
    if (::gethostname(host, sizeof(host) - 1) != 0)
        host[0] = '\0';
    host[sizeof(host) - 1] = '\0';
    std::string id(host[0] ? host : "host");
    for (char &c : id) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-';
        if (!ok)
            c = '-';
    }
    id += "-" + std::to_string(::getpid()) + "-" +
          std::to_string(
              serial.fetch_add(1, std::memory_order_relaxed));
    return id;
}

} // namespace dist
} // namespace sysscale
