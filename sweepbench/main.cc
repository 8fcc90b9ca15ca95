/**
 * @file
 * sweepbench: the repository's end-to-end and per-layer benchmark.
 *
 *     sweepbench --workload NAME --seed N --seconds S --trace 0|1
 *                --work-dir DIR [--spans FILE]
 *
 * Each workload drives the public entry points users call —
 * exp::ExperimentRunner::run over an exp::ResultCache — in a closed
 * loop: the runner's pool (4 threads) is the only client, and a round
 * starts when the previous one has finished.
 *
 * --trace 0 times whole rounds for S seconds with tracing off and
 * prints the end-to-end metrics. --trace 1 runs the layer suite
 * instead, over the same cells: every call the benchmark makes into a
 * layer (soc, exp, sim, dist, workloads) — a sliced
 * dist::runDistributed drain with 3 workers included — is wrapped in
 * an in-memory span, the spans are written to --spans when the run
 * ends, and the per-layer table reports self times, exact work
 * counts, and the tracing overhead.
 * Both modes check every output row and print an exact work-count
 * section; the last stdout line is the JSON result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.hh"
#include "cells.hh"
#include "dist/dispatch.hh"
#include "dist/work_queue.hh"
#include "exp/cache.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/spec_codec.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"

// ---------------------------------------------------------------------
// Allocation hook: exact per-thread heap allocation counts.
// ---------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_allocs = 0;

void *
countedAlloc(std::size_t n)
{
    ++t_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(n ? n : 1);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sweepbench;
namespace fs = std::filesystem;
namespace exp = sysscale::exp;
namespace dist = sysscale::dist;
using sysscale::Tick;
using sysscale::kTicksPerMs;
using exp::ExperimentSpec;
using exp::RunResult;

constexpr std::size_t kJobs = 4;
constexpr std::size_t kFleetWorkers = 3;
/** Fleet slice period: every cell (>= 2.2 s) is a chain of >= 5 links. */
constexpr Tick kSliceTicks = 500 * kTicksPerMs;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

double
simSeconds(const ExperimentSpec &s)
{
    return sysscale::secondsFromTicks(s.warmup + s.window);
}

// ---------------------------------------------------------------------
// Spans: recorded on the main thread only, kept in memory.
// ---------------------------------------------------------------------

struct Tracer
{
    bool on = false;
    std::vector<Span> spans;
    int open = -1;
};

Tracer g_tracer;

/** RAII span around one call into a layer (no-op when tracing is off). */
class Scope
{
  public:
    Scope(const char *layer, const char *name, const std::string &cell = "")
    {
        if (!g_tracer.on)
            return;
        idx_ = static_cast<int>(g_tracer.spans.size());
        g_tracer.spans.push_back(
            {name, layer, nowNs(), 0, g_tracer.open, cell});
        g_tracer.open = idx_;
    }

    ~Scope()
    {
        if (idx_ < 0)
            return;
        g_tracer.spans[static_cast<std::size_t>(idx_)].endNs = nowNs();
        g_tracer.open = g_tracer.spans[static_cast<std::size_t>(idx_)].parent;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int idx_ = -1;
};

void
writeSpans(const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
        const Span &s = g_tracer.spans[i];
        os << (i ? "," : "") << "{\"name\":" << exp::jsonQuote(s.name)
           << ",\"cat\":" << exp::jsonQuote(s.layer)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << exp::formatDouble(static_cast<double>(s.startNs) / 1e3)
           << ",\"dur\":"
           << exp::formatDouble(static_cast<double>(s.endNs - s.startNs) /
                                1e3)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"cell\":" << exp::jsonQuote(s.cell) << "}}\n";
    }
    os << "]}\n";
}

// ---------------------------------------------------------------------
// Output checks and exact work counts.
// ---------------------------------------------------------------------

struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> notes;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 20)
            notes.push_back(why);
    }

    /** Rows must be ok and match @p ref ignoring host_seconds. */
    void
    rows(const std::vector<RunResult> &got,
         const std::vector<RunResult> &ref, const char *what)
    {
        attempted += got.size();
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (!got[i].ok)
                fail(std::string(what) + ": " + got[i].id + " failed: " +
                     got[i].error);
            else if (i >= ref.size() || !sameRowIgnoringHost(got[i], ref[i]))
                fail(std::string(what) + ": " + got[i].id +
                     " differs from the reference row");
        }
    }
};

/** Exact work counts, by name (ordered for printing). */
using Counts = std::map<std::string, std::uint64_t>;

std::uint64_t
statValue(const std::string &dump, const std::string &name)
{
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        if (line.compare(0, name.size() + 1, name + " ") == 0)
            return static_cast<std::uint64_t>(
                std::strtod(line.c_str() + name.size() + 1, nullptr));
    }
    return 0;
}

/** Work counts summed from each result's stats dump and metrics. */
Counts
rowCounts(const std::vector<RunResult> &rows)
{
    Counts c;
    for (const RunResult &r : rows) {
        c["soc.steps"] += statValue(r.statsDump, "soc.steps");
        c["soc.replayed_steps"] +=
            statValue(r.statsDump, "soc.replayed_steps");
        c["core.evaluations"] +=
            statValue(r.statsDump, "soc.pmu.evaluations");
        c["core.transitions"] += r.metrics.transitions;
        c["core.stall_ticks"] += r.metrics.stallTicks;
    }
    return c;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/**
 * Bytes of the cache entries @p rows left in @p cache, minus the
 * host_seconds digits (the one field whose length is host timing).
 */
std::uint64_t
cacheEntryBytes(const exp::ResultCache &cache,
                const std::vector<ExperimentSpec> &specs,
                const std::vector<RunResult> &rows)
{
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        bytes += fileBytes(cache.pathFor(specs[i])) -
                 exp::formatDouble(rows[i].hostSeconds).size();
    }
    return bytes;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        bytes += fileBytes(e.path().string());
    return bytes;
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

// ---------------------------------------------------------------------
// The workload operations.
// ---------------------------------------------------------------------

/** One timed pass of the runner: cold (fresh cache) or warm. */
struct RunnerPass
{
    std::vector<RunResult> rows;
    double wall = 0.0;
};

RunnerPass
runnerPass(const std::vector<ExperimentSpec> &specs,
           exp::ResultCache &cache)
{
    RunnerPass p;
    exp::RunnerOptions o;
    o.jobs = kJobs;
    o.cache = &cache;
    const std::int64_t t0 = nowNs();
    {
        Scope s("exp", "exp::ExperimentRunner::run");
        p.rows = exp::ExperimentRunner(o).run(specs);
    }
    p.wall = secondsSince(t0);
    return p;
}

/** One fleet drain, timed on the benchmark's clock from worker events. */
struct FleetPass
{
    dist::DispatchOutcome out;
    double wall = 0.0;       //!< Until runDistributed returned.
    double drain = 0.0;      //!< Until the last cell's final link.
    double linkSeconds = 0.0; //!< Sum of every link's own host time.
    std::size_t links = 0;    //!< Links the chains consist of.
    std::size_t lookups = 0;  //!< ResultCache lookups, all threads.
    std::uint64_t snapBytes = 0;
    /** Per-cell host time, summed over its links. */
    std::map<std::string, double> cellUs;
};

FleetPass
fleetPass(const std::vector<ExperimentSpec> &specs, const std::string &dir)
{
    freshDir(dir);
    exp::ResultCache cache(dir + "/cache");

    struct Ev
    {
        std::thread::id tid;
        std::int64_t ns;
        std::string line;
    };
    std::mutex mu;
    std::vector<Ev> events;

    dist::DispatchOptions o;
    o.spawnWorkers = kFleetWorkers;
    o.sliceTicks = kSliceTicks;
    o.stallTimeout = std::chrono::seconds(60);
    o.onEvent = [&](const std::string &line) {
        const std::lock_guard<std::mutex> lock(mu);
        events.push_back({std::this_thread::get_id(), nowNs(), line});
    };

    FleetPass p;
    const std::thread::id self = std::this_thread::get_id();
    const std::int64_t t0 = nowNs();
    {
        Scope s("dist", "dist::runDistributed");
        p.out = dist::runDistributed(specs, dir + "/queue", cache, o);
    }
    p.wall = secondsSince(t0);

    // A worker handles one link at a time, so the gap between two of
    // its events is the host time of the link the later one reports.
    std::map<std::thread::id, std::int64_t> last;
    std::int64_t finish = t0;
    for (const Ev &e : events) {
        if (e.tid == self)
            continue;
        const auto it = last.emplace(e.tid, t0).first;
        const std::int64_t gap = e.ns - it->second;
        it->second = e.ns;
        const std::size_t ok = e.line.find(" ok (");
        const std::size_t comma = e.line.rfind(", ");
        if (ok == std::string::npos || comma == std::string::npos ||
            comma < ok)
            continue;
        const std::string id = e.line.substr(ok + 5, comma - ok - 5);
        p.cellUs[id] += static_cast<double>(gap) / 1e3;
        p.linkSeconds += std::strtod(e.line.c_str() + comma + 2, nullptr);
        if (e.line.find(" slice ") == std::string::npos)
            finish = std::max(finish, e.ns);
    }
    p.drain = static_cast<double>(finish - t0) * 1e-9;

    for (const ExperimentSpec &s : specs)
        p.links += dist::WorkQueue::sliceCount(s, kSliceTicks);
    const exp::CacheStats cs = cache.stats();
    p.lookups = cs.hits + cs.misses;
    p.snapBytes = dirBytes(dir + "/queue/snaps");
    return p;
}

/** Fleet-specific failures: duplicate simulations and lost links. */
void
checkFleet(const FleetPass &p, Checks &checks)
{
    const std::size_t sims = p.out.localWork.simulated;
    if (sims != p.links)
        checks.fail("fleet simulated " + std::to_string(sims) +
                    " links, chains have " + std::to_string(p.links));
    if (p.cellUs.size() != p.out.results.size())
        checks.fail("fleet events cover " +
                    std::to_string(p.cellUs.size()) + " of " +
                    std::to_string(p.out.results.size()) + " cells");
}

/** Serial runCell reference rows (skip-ahead as configured). */
std::vector<RunResult>
serialRows(const std::vector<ExperimentSpec> &specs, const char *name,
           std::uint64_t *allocs = nullptr)
{
    std::vector<RunResult> rows;
    rows.reserve(specs.size());
    for (const ExperimentSpec &s : specs) {
        const std::uint64_t a0 = t_allocs;
        {
            Scope span("soc", name, s.id);
            rows.push_back(exp::runCell(s));
        }
        if (allocs)
            *allocs += t_allocs - a0;
    }
    return rows;
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    Counts counts;
    Checks checks;
    bool countsStable = true;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record @p c, or require it to equal what was recorded. */
    void
    ledger(const Counts &c)
    {
        if (counts.empty())
            counts = c;
        else if (counts != c)
            countsStable = false;
    }
};

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Print the fidelity rows of @p rows; returns paper_gap_pp. */
double
printFidelity(const std::vector<RunResult> &rows)
{
    const std::vector<Fidelity> fid = fidelityRows(rows);
    std::vector<double> model, paper;
    std::printf("\nfidelity (fixed figure cells; the model is otherwise "
                "unvalidated)\n");
    for (const Fidelity &f : fid) {
        std::printf("  %-48s model %+7.2f   paper %+6.1f\n",
                    f.row.c_str(), f.model, f.paper);
        model.push_back(f.model);
        paper.push_back(f.paper);
    }
    return paperGapPp(model, paper);
}

struct Options
{
    Workload workload = Workload::SpecSweep;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;
    std::string spansPath;
};

// ---------------------------------------------------------------------
// --trace 0: end-to-end rounds.
// ---------------------------------------------------------------------

void
endToEnd(const Options &opt, Report &rep)
{
    const Workload w = opt.workload;

    // Set-up, three times: generate the inputs and the serial runCell
    // rows every round is checked against.
    std::vector<ExperimentSpec> specs;
    std::vector<RunResult> ref;
    std::vector<double> setups;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
        const std::int64_t t0 = nowNs();
        specs = cellsFor(w, opt.seed);
        ref = serialRows(specs, "soc::runCell");
        setups.push_back(secondsSince(t0));
    }

    // Per-cell percentiles pool the fixed figure cells only: their
    // mix is the same for every seed, so a seed cannot move a
    // percentile across the gap between replaying and stepping cells.
    std::vector<bool> figure(specs.size());
    double sim = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        figure[i] = specs[i].labels.front().second.compare(0, 3, "fig") == 0;
        sim += simSeconds(specs[i]);
    }

    std::vector<double> cellsPerS, simPerS, p50s, p90s, cellUs;
    std::vector<RunResult> firstRows;
    // Round 0 warms the host up and is checked but not timed.
    std::size_t rounds = 0;
    std::int64_t start = nowNs();
    do {
        const std::string dir =
            opt.workDir + "/round" + std::to_string(rounds);
        freshDir(dir);
        exp::ResultCache cache(dir + "/cache");
        RunnerPass p = runnerPass(specs, cache);
        std::vector<RunResult> rows = std::move(p.rows);
        Counts counts = rowCounts(rows);
        counts["exp.cache_entry_bytes"] = cacheEntryBytes(cache, specs, rows);
        fs::remove_all(dir);

        rep.checks.rows(rows, ref, workloadName(w));
        rep.ledger(counts);
        if (rounds == 0) {
            firstRows = std::move(rows);
            start = nowNs();
        } else {
            cellsPerS.push_back(static_cast<double>(specs.size()) / p.wall);
            simPerS.push_back(sim / p.wall);
            std::vector<double> us;
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (figure[i])
                    us.push_back(rows[i].hostSeconds * 1e6);
            }
            p50s.push_back(sysscale::exp::agg::percentile(us, 50.0));
            p90s.push_back(sysscale::exp::agg::percentile(us, 90.0));
            cellUs.insert(cellUs.end(), us.begin(), us.end());
        }
        ++rounds;
    } while (rounds < 3 || secondsSince(start) < opt.seconds);

    namespace agg = sysscale::exp::agg;
    std::printf("%s seed %llu: %zu cells x %zu timed rounds in %.1f s\n",
                workloadName(w), static_cast<unsigned long long>(opt.seed),
                specs.size(), rounds - 1, secondsSince(start));
    rep.add("sim_s_per_host_s", agg::median(simPerS), "s/s");
    rep.add("cells_per_s", agg::median(cellsPerS), "1/s");
    // Per-round percentiles, then the median over rounds; the pooled
    // samples give the tail the percentile rule picks.
    const Tail tail = tailPercentile(cellUs);
    std::printf("figure-cell time: p50 %.1f us, p90 %.1f us (medians of "
                "%zu rounds); pooled tail p%g %.1f us (n = %zu)\n",
                agg::median(p50s), agg::median(p90s), p50s.size(), tail.pct,
                tail.value, tail.count);
    rep.add("cell_us_p50", agg::median(p50s), "us");
    rep.add("cell_us_p90", agg::median(p90s), "us");
    rep.add("setup_s", agg::median(setups), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("paper_gap_pp", printFidelity(firstRows), "pp");
    const double attempted =
        static_cast<double>(std::max<std::size_t>(rep.checks.attempted, 1));
    std::printf("fail_ratio %.6f (%zu of %zu cells)\n",
                static_cast<double>(rep.checks.failed) / attempted,
                rep.checks.failed, rep.checks.attempted);
    rep.add("ok_ratio",
            1.0 - static_cast<double>(rep.checks.failed) / attempted,
            "ratio");
}

// ---------------------------------------------------------------------
// --trace 1: the layer suite.
// ---------------------------------------------------------------------

/** Self time (ns) of every span, grouped by span name. */
std::map<std::string, std::vector<double>>
selfByName(const std::vector<std::int64_t> &self)
{
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i)
        out[g_tracer.spans[i].name].push_back(static_cast<double>(self[i]));
    return out;
}

double
sum(const std::vector<double> &xs)
{
    double s = 0.0;
    for (const double x : xs)
        s += x;
    return s;
}

/** About @p n evenly strided cells: what the costlier probes run on. */
std::vector<ExperimentSpec>
subset(const std::vector<ExperimentSpec> &specs, std::size_t n)
{
    std::vector<ExperimentSpec> out;
    const std::size_t stride = std::max<std::size_t>(specs.size() / n, 1);
    for (std::size_t i = 0; i < specs.size(); i += stride)
        out.push_back(specs[i]);
    return out;
}

/** exp codec and cache calls on every cell; returns the block's wall. */
double
codecBlock(const std::vector<ExperimentSpec> &specs,
           const std::vector<RunResult> &rows, exp::ResultCache &cache,
           Checks &checks)
{
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentSpec &s = specs[i];
        std::string key, text;
        {
            Scope span("exp", "exp::specKey", s.id);
            key = exp::specKey(s);
        }
        {
            Scope span("exp", "exp::serializeSpec", s.id);
            text = exp::serializeSpec(s);
        }
        {
            Scope span("exp", "exp::parseSpec", s.id);
            if (!(exp::parseSpec(text) == s))
                checks.fail("codec round trip: " + s.id);
        }
        {
            Scope span("exp", "exp::ResultCache::store", s.id);
            cache.store(s, rows[i]);
        }
        RunResult hit;
        {
            Scope span("exp", "exp::ResultCache::lookup", s.id);
            if (!cache.lookup(s, hit))
                checks.fail("cache lookup missed: " + s.id);
        }
        {
            Scope span("exp", "exp::csvRow", s.id);
            if (exp::csvRow(hit) != exp::csvRow(rows[i]))
                checks.fail("cache hit differs: " + s.id);
        }
    }
    return secondsSince(t0);
}

/**
 * Checkpoint chains of @p specs through runCellSlice, checked against
 * the unsliced rows, then every published snapshot read and rewritten.
 */
void
chainProbe(const std::vector<ExperimentSpec> &specs,
           const std::map<std::string, RunResult> &ref,
           const std::string &dir, Checks &checks)
{
    freshDir(dir);
    for (const ExperimentSpec &s : specs) {
        const Tick total = s.warmup + s.window;
        RunResult last;
        std::vector<std::string> snaps;
        for (Tick t0 = 0; t0 < total; t0 += kSliceTicks) {
            exp::SliceOptions so;
            so.t0 = t0;
            so.t1 = std::min(t0 + kSliceTicks, total);
            if (t0 > 0)
                so.inSnap = snaps.back();
            if (so.t1 < total) {
                so.outSnap = dir + "/" + exp::specKey(s) + ".t" +
                             std::to_string(so.t1) + ".snap";
                snaps.push_back(so.outSnap);
            }
            Scope span("soc", "exp::runCellSlice", s.id);
            last = exp::runCellSlice(s, so);
        }
        ++checks.attempted;
        if (!last.ok || !sameRowIgnoringHost(last, ref.at(s.id)))
            checks.fail("chain differs from the unsliced run: " + s.id);
        for (const std::string &path : snaps) {
            std::string text;
            {
                Scope span("sim", "sim::readSnapshot", s.id);
                text = sysscale::readSnapshotFile(path);
                sysscale::SnapshotReader reader(text);
            }
            Scope span("sim", "sim::writeSnapshotFile", s.id);
            sysscale::writeSnapshotFile(path + ".copy", text);
        }
    }
}

/** WorkQueue calls on a scratch queue holding every cell. */
void
queueProbe(const std::vector<ExperimentSpec> &specs, const std::string &dir,
           Checks &checks)
{
    freshDir(dir);
    dist::WorkQueue q(dir);
    for (const ExperimentSpec &s : specs) {
        Scope span("dist", "dist::WorkQueue::enqueue", s.id);
        q.enqueue(s);
    }
    for (int i = 0; i < 20; ++i) {
        Scope span("dist", "dist::WorkQueue::inFlightKeys");
        if (q.inFlightKeys().size() != specs.size())
            checks.fail("inFlightKeys lost cells");
    }
    std::size_t claimed = 0;
    for (;;) {
        dist::Claim c;
        bool got = false;
        {
            Scope span("dist", "dist::WorkQueue::tryClaim");
            got = q.tryClaim("probe", c);
        }
        if (!got)
            break;
        ++claimed;
        Scope span("dist", "dist::WorkQueue::release", c.spec.id);
        q.release(c);
    }
    if (claimed != specs.size())
        checks.fail("queue probe claimed " + std::to_string(claimed) +
                    " of " + std::to_string(specs.size()) + " cells");
}

void
layerSuite(const Options &opt, Report &rep)
{
    const std::int64_t start = nowNs();
    g_tracer.on = true;
    g_tracer.spans.reserve(1 << 16);
    const std::string &wd = opt.workDir;

    std::vector<ExperimentSpec> specs;
    {
        Scope span("workloads", "sweepbench::cellsFor");
        specs = cellsFor(opt.workload, opt.seed);
    }

    // The workload's own operation, once, then again from the warm
    // cache it filled; a sliced fleet drain follows below.
    freshDir(wd + "/runner");
    exp::ResultCache runnerCache(wd + "/runner/cache");
    const RunnerPass cold = runnerPass(specs, runnerCache);
    double busy = 0.0;
    for (const RunResult &r : cold.rows)
        busy += r.hostSeconds;

    // Serial runCell with skip-ahead (the reference every other path
    // is checked against), then a subset on the slow path.
    std::uint64_t allocs = 0;
    const std::vector<RunResult> serial =
        serialRows(specs, "soc::runCell", &allocs);
    rep.checks.rows(cold.rows, serial, "runner vs serial runCell");
    std::map<std::string, RunResult> byId;
    for (const RunResult &r : serial)
        byId[r.id] = r;

    // A hit replays host_seconds too, so warm rows match byte for byte.
    const RunnerPass warm = runnerPass(specs, runnerCache);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ++rep.checks.attempted;
        if (exp::csvRow(warm.rows[i]) != exp::csvRow(cold.rows[i]))
            rep.checks.fail("warm cache: " + specs[i].id +
                            " differs from the row that filled it");
    }

    const std::vector<ExperimentSpec> slowSet = subset(specs, 24);
    sysscale::soc::Soc::setSkipAheadDefault(false);
    const std::vector<RunResult> slow =
        serialRows(slowSet, "soc::runCell[slow path]");
    sysscale::soc::Soc::setSkipAheadDefault(true);
    // Skip-ahead changes only how steps run (and the replay count in
    // the stats dump), never a reported row.
    double slowSteps = 0.0;
    std::vector<RunResult> slowRows = slow, slowRef;
    for (std::size_t i = 0; i < slowSet.size(); ++i) {
        slowSteps +=
            static_cast<double>(statValue(slow[i].statsDump, "soc.steps"));
        slowRows[i].statsDump.clear();
        slowRef.push_back(byId.at(slowSet[i].id));
        slowRef.back().statsDump.clear();
    }
    rep.checks.rows(slowRows, slowRef, "slow path vs skip-ahead");

    for (const ExperimentSpec &s : specs) {
        Scope span("soc", "soc::Soc construction", s.id);
        sysscale::Simulator sim(s.seed);
        sysscale::soc::Soc chip(sim, s.soc);
    }

    const std::vector<ExperimentSpec> chainSet = subset(specs, 16);
    chainProbe(chainSet, byId, wd + "/chains", rep.checks);
    queueProbe(specs, wd + "/probe-queue", rep.checks);

    const FleetPass fleet = fleetPass(specs, wd + "/fleet");
    checkFleet(fleet, rep.checks);
    rep.checks.rows(fleet.out.results, serial, "fleet vs serial runCell");

    // Codec calls, alternately untraced and traced, until the run's
    // time is used: the same calls both ways give the overhead.
    freshDir(wd + "/codec");
    exp::ResultCache codecCache(wd + "/codec/cache");
    std::vector<double> untraced, traced;
    for (int i = 0; i < 50; ++i) {
        if (i >= 6 && secondsSince(start) > opt.seconds)
            break;
        g_tracer.on = i % 2 == 1;
        (g_tracer.on ? traced : untraced)
            .push_back(codecBlock(specs, serial, codecCache, rep.checks));
    }
    g_tracer.on = false;

    // Per-layer table.
    namespace agg = sysscale::exp::agg;
    const std::vector<std::int64_t> self = selfTimes(g_tracer.spans);
    auto byName = selfByName(self);
    const Counts counts = rowCounts(serial);
    const double steps = static_cast<double>(counts.at("soc.steps"));
    auto medUs = [&](const char *name) {
        return agg::median(byName[name]) / 1e3;
    };
    double unslicedNs = 0.0;
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
        const Span &s = g_tracer.spans[i];
        if (s.name != "soc::runCell")
            continue;
        for (const ExperimentSpec &c : chainSet) {
            if (c.id == s.cell)
                unslicedNs += static_cast<double>(self[i]);
        }
    }

    rep.add("soc.step_ns", sum(byName["soc::runCell"]) / steps, "ns");
    rep.add("soc.slow_step_ns",
            sum(byName["soc::runCell[slow path]"]) / slowSteps, "ns");
    rep.add("soc.steps", steps, "count");
    rep.add("soc.replayed_steps",
            static_cast<double>(counts.at("soc.replayed_steps")), "count");
    rep.add("soc.replay_ratio",
            static_cast<double>(counts.at("soc.replayed_steps")) / steps,
            "ratio");
    rep.add("soc.allocs_per_step", static_cast<double>(allocs) / steps,
            "count");
    rep.add("soc.construct_us", medUs("soc::Soc construction"), "us");
    rep.add("core.evaluations",
            static_cast<double>(counts.at("core.evaluations")), "count");
    rep.add("core.transitions",
            static_cast<double>(counts.at("core.transitions")), "count");
    rep.add("core.stall_ticks",
            static_cast<double>(counts.at("core.stall_ticks")), "count");
    rep.add("exp.spec_key_us", medUs("exp::specKey"), "us");
    rep.add("exp.serialize_us", medUs("exp::serializeSpec"), "us");
    rep.add("exp.parse_us", medUs("exp::parseSpec"), "us");
    rep.add("exp.cache_lookup_us", medUs("exp::ResultCache::lookup"), "us");
    rep.add("exp.csv_row_us", medUs("exp::csvRow"), "us");
    rep.add("exp.cache_store_us", medUs("exp::ResultCache::store"), "us");
    const std::uint64_t entryBytes =
        cacheEntryBytes(codecCache, specs, serial);
    rep.add("exp.cache_entry_bytes", static_cast<double>(entryBytes),
            "bytes");
    rep.add("exp.runner_busy_frac",
            busy / (cold.wall * static_cast<double>(kJobs)), "ratio");
    rep.add("exp.warm_cells_per_s",
            static_cast<double>(specs.size()) / warm.wall, "1/s");
    rep.add("sim.snapshot_bytes", static_cast<double>(fleet.snapBytes),
            "bytes");
    rep.add("sim.snapshot_write_us", medUs("sim::writeSnapshotFile"), "us");
    rep.add("sim.snapshot_read_us", medUs("sim::readSnapshot"), "us");
    rep.add("sim.chain_overhead_pct",
            (sum(byName["exp::runCellSlice"]) / unslicedNs - 1.0) * 100.0,
            "%");
    rep.add("dist.enqueue_us", medUs("dist::WorkQueue::enqueue"), "us");
    rep.add("dist.claim_us", medUs("dist::WorkQueue::tryClaim"), "us");
    rep.add("dist.release_us", medUs("dist::WorkQueue::release"), "us");
    rep.add("dist.inflight_scan_us", medUs("dist::WorkQueue::inFlightKeys"),
            "us");
    rep.add("dist.worker_busy_frac",
            fleet.linkSeconds /
                (fleet.drain * static_cast<double>(kFleetWorkers)),
            "ratio");
    rep.add("dist.dispatcher_lookups",
            static_cast<double>(fleet.lookups -
                                fleet.out.localWork.claimed),
            "count");
    rep.add("dist.claims", static_cast<double>(fleet.out.localWork.claimed),
            "count");
    rep.add("dist.duplicate_sims",
            static_cast<double>(fleet.out.localWork.simulated -
                                std::min(fleet.out.localWork.simulated,
                                         fleet.links)),
            "count");
    rep.add("dist.reenqueued", static_cast<double>(fleet.out.reenqueued),
            "count");
    // The drain on the benchmark's clock: a sliced cell's hostSeconds
    // covers only its last link.
    std::vector<double> fleetUs;
    for (const auto &kv : fleet.cellUs)
        fleetUs.push_back(kv.second);
    const Tail fleetTail = tailPercentile(fleetUs);
    rep.add("dist.drain_cells_per_s",
            static_cast<double>(specs.size()) / fleet.drain, "1/s");
    rep.add("dist.cell_us_p50", agg::percentile(fleetUs, 50.0), "us");
    rep.add("dist.cell_us_p90", agg::percentile(fleetUs, 90.0), "us");
    rep.add("bench.trace_overhead_pct",
            (agg::median(traced) / agg::median(untraced) - 1.0) * 100.0,
            "%");

    std::map<std::string, double> layerNs;
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i)
        layerNs[g_tracer.spans[i].layer] += static_cast<double>(self[i]);
    for (const char *layer : {"soc", "exp", "sim", "dist", "workloads"})
        rep.add(std::string(layer) + ".self_ms", layerNs[layer] / 1e6, "ms");

    Counts ledger = counts;
    ledger["soc.allocations"] = allocs;
    ledger["exp.cache_entry_bytes"] = entryBytes;
    ledger["sim.snapshot_bytes"] = fleet.snapBytes;
    ledger["dist.claims"] = fleet.out.localWork.claimed;
    rep.ledger(ledger);

    std::printf("%s seed %llu: layer suite over %zu cells, %zu spans, "
                "%.1f s\n",
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed), specs.size(),
                g_tracer.spans.size(), secondsSince(start));
    std::printf("fleet: %zu links, drained in %.3f s, dispatcher returned "
                "after %.3f s; per-cell tail p%g %.1f us (n = %zu)\n",
                fleet.links, fleet.drain, fleet.wall, fleetTail.pct,
                fleetTail.value, fleetTail.count);
    printFidelity(serial);
    if (!opt.spansPath.empty())
        writeSpans(opt.spansPath);
}

// ---------------------------------------------------------------------

bool
parseArgs(int argc, char **argv, Options &o)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            for (const Workload w : allWorkloads()) {
                if (v == workloadName(w)) {
                    o.workload = w;
                    haveWorkload = true;
                }
            }
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            o.trace = v == "1";
        } else if (k == "--work-dir") {
            o.workDir = v;
        } else if (k == "--spans") {
            o.spansPath = v;
        } else {
            return false;
        }
    }
    return haveWorkload && !o.workDir.empty() && argc % 2 == 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: sweepbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --work-dir DIR "
                     "[--spans FILE]\n");
        return 2;
    }

    Report rep;
    try {
        freshDir(opt.workDir);
        if (opt.trace)
            layerSuite(opt, rep);
        else
            endToEnd(opt, rep);
        fs::remove_all(opt.workDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweepbench: %s\n", e.what());
        return 1;
    }

    std::printf("\nexact work counts%s\n",
                rep.countsStable ? "" : " (CHANGED between rounds)");
    for (const auto &kv : rep.counts)
        std::printf("  %-24s %llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    std::printf("\n%s metrics\n", opt.trace ? "per-layer" : "end-to-end");
    for (const Metric &m : rep.metrics)
        std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &n : rep.checks.notes)
        std::printf("CHECK FAILED: %s\n", n.c_str());

    const bool correct = rep.checks.failed == 0 && rep.countsStable;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " +
            std::to_string(std::max<std::size_t>(rep.checks.attempted, 1));
    json += ", \"failed\": " + std::to_string(rep.checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        json += (i ? ", " : "") + exp::jsonQuote(m.name) +
                ": {\"value\": " + exp::formatDouble(m.value) +
                ", \"unit\": " + exp::jsonQuote(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
