#include "exp/cache.hh"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "exp/report.hh"
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
 */
constexpr const char *kEntryHeader = "sysscale-cache v2";

/**
 * Every stored RunMetrics field under its entry key, so store() and
 * lookup() cannot drift apart. @p f takes (key, field&).
 */
template <typename Metrics, typename Visit>
void
forEachMetric(Metrics &m, Visit &&f)
{
    f("seconds", m.seconds);
    f("instructions", m.instructions);
    f("ips", m.ips);
    f("frames", m.frames);
    f("fps", m.fps);
    f("avg_power_w", m.avgPower);
    f("energy_j", m.energy);
    f("edp", m.edp);
    f("avg_mem_latency_ns", m.avgMemLatencyNs);
    f("avg_mem_bandwidth", m.avgMemBandwidth);
    f("avg_core_freq_hz", m.avgCoreFreq);
    f("qos_violations", m.qosViolations);
    f("transitions", m.transitions);
    f("stall_ticks", m.stallTicks);
    f("low_point_residency", m.lowPointResidency);
    for (const auto rail : power::kAllRails) {
        f("rail." + std::string(power::railName(rail)),
          m.railEnergy[power::railIndex(rail)]);
    }
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
        SnapshotReader r(std::move(text), kEntryHeader);
        // Guard against FNV collisions and stale entries whose key
        // happens to match: the stored canonical text must be this
        // simulation's, byte for byte.
        if (r.getString("key") != key || r.getString("spec") != canonical)
            throw SnapshotError("entry is for another spec");

        // Presentation fields belong to the querying spec; only ok
        // rows are ever stored.
        RunResult res;
        res.id = spec.id;
        res.workload = spec.workload.name();
        res.labels = spec.labels;
        res.ok = true;
        res.governor = r.getString("governor");
        res.hostSeconds = parseDouble(r.getString("host_seconds"));
        r.push("metrics");
        forEachMetric(res.metrics, [&r](const std::string &k, auto &v) {
            if constexpr (std::is_floating_point_v<
                              std::decay_t<decltype(v)>>)
                v = r.getDouble(k);
            else
                v = r.getU64(k);
        });
        r.pop();
        r.push("counter");
        for (const auto counter : soc::kAllCounters) {
            res.counters.values[soc::counterIndex(counter)] =
                r.getDouble(std::string(soc::counterName(counter)));
        }
        r.pop();
        res.statsDump = r.getString("stats");
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

    // Exactly what lookup() reads back. host_seconds keeps its
    // decimal text (the one field whose length is host timing).
    const std::string canonical = canonicalSpec(spec);
    const std::string key = specKeyForCanonical(canonical);
    SnapshotWriter w(kEntryHeader);
    w.putString("key", key);
    w.putString("spec", canonical);
    w.putString("governor", res.governor);
    w.putString("host_seconds", formatDouble(res.hostSeconds));
    w.push("metrics");
    forEachMetric(res.metrics, [&w](const std::string &k, auto v) {
        if constexpr (std::is_floating_point_v<decltype(v)>)
            w.putDouble(k, v);
        else
            w.putU64(k, v);
    });
    w.pop();
    w.push("counter");
    for (const auto counter : soc::kAllCounters) {
        w.putDouble(std::string(soc::counterName(counter)),
                    res.counters.values[soc::counterIndex(counter)]);
    }
    w.pop();
    w.putString("stats", res.statsDump);

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
