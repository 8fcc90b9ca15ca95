/**
 * @file
 * `figures` — reproduce the paper's figures and tables.
 *
 *   figures [NAME...] [--cache-dir DIR | --no-cache]
 *
 * Runs the named figures of the registry (bench/figures.hh), or all
 * of them in registry order when none are named. The cells of every
 * selected figure run as one ExperimentRunner batch, on all hardware
 * threads or SYSSCALE_BENCH_JOBS of them (0 = all); then each figure
 * prints its banner and reduction to stdout, in the order named.
 *
 * The result cache resolves like sweep_grid's: --cache-dir DIR, else
 * the SYSSCALE_CACHE_DIR environment variable, and --no-cache turns
 * both off. With a cache, the simulated-vs-cached split goes to
 * stderr, so stdout stays byte-identical to an uncached run.
 *
 * Exit codes: 0 ok, 1 a cell failed, 2 usage error (an unknown name
 * or option).
 */

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/figures.hh"
#include "exp/cache.hh"
#include "exp/runner.hh"

using namespace sysscale;

namespace {

int
usage(const std::string &arg)
{
    std::fprintf(stderr,
                 "figures: bad argument \"%s\"\n"
                 "usage: figures [NAME...] [--cache-dir DIR | "
                 "--no-cache]\n"
                 "registered figures:",
                 arg.c_str());
    for (const bench::Figure &f : bench::figures())
        std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const bench::Figure *> selected;
    std::string cache_dir;
    bool no_cache = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache-dir" && i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (const bench::Figure *f = bench::findFigure(arg)) {
            selected.push_back(f);
        } else {
            return usage(arg);
        }
    }
    if (selected.empty()) {
        for (const bench::Figure &f : bench::figures())
            selected.push_back(&f);
    }

    std::unique_ptr<exp::ResultCache> cache;
    try {
        cache = exp::resolveCache(std::move(cache_dir), no_cache);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "figures: %s\n", e.what());
        return 2;
    }

    std::vector<exp::ExperimentSpec> specs;
    std::vector<std::size_t> counts;
    for (const bench::Figure *f : selected) {
        std::vector<exp::ExperimentSpec> cells = f->cells();
        counts.push_back(cells.size());
        specs.insert(specs.end(), std::make_move_iterator(cells.begin()),
                     std::make_move_iterator(cells.end()));
    }

    exp::RunnerOptions opts;
    if (const char *jobs = std::getenv("SYSSCALE_BENCH_JOBS"))
        opts.jobs = std::strtoul(jobs, nullptr, 10);
    opts.cache = cache.get();
    std::vector<exp::RunResult> results =
        exp::ExperimentRunner(opts).run(specs);
    if (cache) {
        const std::size_t hits = cache->stats().hits;
        std::fprintf(stderr,
                     "figures cache: %zu cells (%zu simulated, %zu "
                     "from cache)\n",
                     specs.size(), specs.size() - hits, hits);
    }
    for (const exp::RunResult &res : results) {
        if (!res.ok) {
            std::fprintf(stderr, "figures: cell \"%s\" failed: %s\n",
                         res.id.c_str(), res.error.c_str());
            return 1;
        }
    }

    auto next = std::make_move_iterator(results.begin());
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const std::vector<exp::RunResult> mine(next, next + counts[i]);
        next += counts[i];
        std::printf("======================================="
                    "=========================\n"
                    "%s\n"
                    "======================================="
                    "=========================\n",
                    selected[i]->title);
        selected[i]->reduce(mine);
    }
    return 0;
}
