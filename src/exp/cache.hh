/**
 * @file
 * Content-addressed on-disk result cache.
 *
 * One file per cell, named <cache_dir>/<specKey(spec)>.entry: a
 * `sysscale-cache v1` record (sim/snapshot.hh codec) holding the
 * key, the spec's canonical text, and the RunResult fields a hit
 * needs — governor, host_seconds, metrics, rail energies, counters
 * and the stats dump. Doubles are stored bit-exact, so replaying a
 * hit is byte-identical to rerunning the cell — including the
 * recorded hostSeconds of the original execution.
 *
 * Rules:
 *  - only ok results are stored; error rows are never cached,
 *  - a hit byte-compares the stored canonical text against the
 *    query's, so hash collisions and spec-format bumps are misses,
 *  - a corrupt, truncated, stale, or mismatched file is a miss (and
 *    is overwritten by the next store),
 *  - the id, workload name and labels of a hit are taken from the
 *    querying spec: cells that differ only in presentation share
 *    one entry.
 *
 * Writes go through writeSnapshotFile (temp file + atomic rename),
 * so concurrent workers (or concurrent sweeps sharing a directory)
 * never expose a partially written entry.
 */

#ifndef SYSSCALE_EXP_CACHE_HH
#define SYSSCALE_EXP_CACHE_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "exp/experiment.hh"

namespace sysscale {
namespace exp {

/** Counters for one ResultCache instance (monotonic). */
struct CacheStats
{
    std::size_t hits = 0;    //!< Lookups served from disk.
    std::size_t misses = 0;  //!< Lookups with no usable entry.
    std::size_t stores = 0;  //!< Entries written.
    std::size_t corrupt = 0; //!< Files rejected while looking up.
};

class ResultCache
{
  public:
    /**
     * @param dir Cache directory; created (recursively) if absent.
     *        Throws std::runtime_error when it cannot be created.
     */
    explicit ResultCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /** File an entry for @p spec lives at (whether or not present). */
    std::string pathFor(const ExperimentSpec &spec) const;

    /**
     * Try to serve @p spec from disk. On a hit fills @p out (with
     * @p spec's own id and labels) and returns true. Never throws:
     * unreadable or mismatched entries are misses.
     */
    bool lookup(const ExperimentSpec &spec, RunResult &out);

    /**
     * Persist @p res for @p spec. No-op for error rows. Write
     * failures are swallowed (a cache must
     * never fail a sweep); the entry is simply absent next time.
     */
    void store(const ExperimentSpec &spec, const RunResult &res);

    CacheStats stats() const;

  private:
    std::string dir_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> stores_{0};
    std::atomic<std::size_t> corrupt_{0};
};

/**
 * The cache resolution every CLI shares (sweep_grid and the
 * grid-shaped benches): an explicit @p dir wins, the
 * SYSSCALE_CACHE_DIR environment variable is the fallback, and
 * @p no_cache disables both. Returns null when caching is off;
 * throws std::runtime_error when the directory cannot be created.
 */
std::unique_ptr<ResultCache> resolveCache(std::string dir,
                                          bool no_cache);

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_CACHE_HH
