#include "exp/cache.hh"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "exp/spec_codec.hh"
#include "power/dvfs_types.hh"
#include "sim/snapshot.hh"
#include "soc/counters.hh"

namespace sysscale {
namespace exp {

namespace {

/**
 * Header of a cache entry: the container's own version. The spec
 * format version rides inside the stored canonical text, so a spec
 * bump turns every entry into a miss without touching this line.
 * v2: every cell reports the PMU's run-average counters and the
 * fixed governor reports as "fixed", so v1 entries (all-zero
 * counters on governor cells, "baseline") read back as misses.
 * v3: every accumulator sums in fixed point (stats::ExactSum), which
 * moves result bits in their last places, so v2 entries read back as
 * misses instead of serving the old bits.
 */
constexpr const char *kEntryHeader = "sysscale-cache v3";

/**
 * One cache entry: the key and canonical text of the spec it answers,
 * and the result stored for it. A loading walk fills @ref res.
 */
struct Entry
{
    const std::string &key;
    const std::string &spec;
    RunResult &res;
};

void
visit(StateIO &io, Entry &e)
{
    // Guard against FNV collisions and stale entries whose key
    // happens to match: the stored canonical text must be this
    // simulation's, byte for byte.
    std::string key = e.key;
    std::string spec = e.spec;
    io.field("key", key);
    io.field("spec", spec);
    if (io.loading() && (key != e.key || spec != e.spec))
        throw SnapshotError("entry is for another spec");

    RunResult &res = e.res;
    io.field("governor", res.governor);
    // host_seconds keeps its decimal text (the one field whose
    // length is host timing).
    io.field("host_seconds", Decimal{res.hostSeconds});
    soc::RunMetrics &m = res.metrics;
    io.push("metrics");
    io.field("seconds", m.seconds);
    io.field("instructions", m.instructions);
    io.field("ips", m.ips);
    io.field("frames", m.frames);
    io.field("fps", m.fps);
    io.field("avg_power_w", m.avgPower);
    io.field("energy_j", m.energy);
    io.field("edp", m.edp);
    io.field("avg_mem_latency_ns", m.avgMemLatencyNs);
    io.field("avg_mem_bandwidth", m.avgMemBandwidth);
    io.field("avg_core_freq_hz", m.avgCoreFreq);
    io.field("qos_violations", m.qosViolations);
    io.field("transitions", m.transitions);
    io.field("stall_ticks", m.stallTicks);
    io.field("low_point_residency", m.lowPointResidency);
    for (const auto rail : power::kAllRails) {
        io.field("rail." + std::string(power::railName(rail)),
                 m.railEnergy[power::railIndex(rail)]);
    }
    io.pop();
    io.push("counter");
    for (const auto counter : soc::kAllCounters) {
        io.field(std::string(soc::counterName(counter)),
                 res.counters.values[soc::counterIndex(counter)]);
    }
    io.pop();
    io.field("stats", res.statsDump);
}

} // anonymous namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_)) {
        throw std::runtime_error("ResultCache: cannot create \"" +
                                 dir_ + "\"");
    }
}

std::string
ResultCache::pathFor(const ExperimentSpec &spec) const
{
    return dir_ + "/" + specKey(spec) + ".entry";
}

bool
ResultCache::lookup(const ExperimentSpec &spec, RunResult &out)
{
    // One serialization per lookup: the key and the collision check
    // both derive from this text.
    const std::string canonical = canonicalSpec(spec);
    const std::string key = specKeyForCanonical(canonical);
    std::string text;
    try {
        text = readSnapshotFile(dir_ + "/" + key + ".entry");
    } catch (const SnapshotError &) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    try {
        // Presentation fields belong to the querying spec; only ok
        // rows are ever stored.
        RunResult res;
        res.id = spec.id;
        res.workload = spec.workload.name();
        res.labels = spec.labels;
        res.ok = true;
        Entry entry{key, canonical, res};
        SnapshotReader r(std::move(text), kEntryHeader);
        StateIO io(r);
        visit(io, entry);
        r.finish();
        out = std::move(res);
    } catch (const SnapshotError &) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ResultCache::store(const ExperimentSpec &spec, const RunResult &res)
{
    if (!res.ok)
        return;

    const std::string canonical = canonicalSpec(spec);
    const std::string key = specKeyForCanonical(canonical);
    Entry entry{key, canonical, const_cast<RunResult &>(res)};
    SnapshotWriter w(kEntryHeader);
    StateIO io(w);
    visit(io, entry);

    // Concurrent sweeps may share one cache directory; the publish
    // helper's temp names are unique across processes.
    try {
        writeSnapshotFile(dir_ + "/" + key + ".entry", w.str());
    } catch (const SnapshotError &) {
        return; // A cache never fails a sweep.
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<ResultCache>
resolveCache(std::string dir, bool no_cache)
{
    if (no_cache)
        return nullptr;
    if (dir.empty()) {
        if (const char *env = std::getenv("SYSSCALE_CACHE_DIR"))
            dir = env;
    }
    if (dir.empty())
        return nullptr;
    return std::make_unique<ResultCache>(std::move(dir));
}

CacheStats
ResultCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    return s;
}

} // namespace exp
} // namespace sysscale
