/**
 * @file
 * sweep_grid: run a declarative governor x workload x TDP x seed
 * grid on the parallel ExperimentRunner and emit CSV/JSON.
 *
 * The driver mirrors how the paper sweeps its experiments (one
 * simulated setup per grid cell, every cell independent) and batches
 * the cells across worker threads; results are deterministic and
 * identical for any --jobs value.
 *
 * Examples:
 *   sweep_grid --workloads battery --governors fixed,sysscale \
 *              --tdps 3.5,4.5,7,15 --jobs 8 --csv results.csv
 *   sweep_grid --workloads spec:416.gamess,video-playback \
 *              --window-ms 500 --json -
 *   sweep_grid --workloads battery --cache-dir .sweep-cache \
 *              --cache-stats --csv results.csv
 *   sweep_grid --workloads spec:470.lbm --scenarios videoconf \
 *              --governors fixed,sysscale --csv mixed.csv
 *   sweep_grid --workloads battery --scenarios none,videoconf \
 *              --governors fixed,sysscale --csv scen-axis.csv
 *   sweep_grid --workloads spec --distributed /nfs/queue \
 *              --cache-dir /nfs/cache --spawn-workers 2 \
 *              --csv results.csv
 *   sweep_grid --list
 *
 * With --cache-dir (or SYSSCALE_CACHE_DIR), finished cells are
 * content-addressed on disk and reused: rerunning the same grid
 * reruns zero simulator cells and an interrupted sweep resumes from
 * the cells it already completed.
 *
 * With --distributed, cells are not simulated here (beyond any
 * --spawn-workers threads): they fan out through a filesystem work
 * queue to every sweep_worker sharing the queue and cache
 * directories — across machines when both live on a shared
 * filesystem — and the assembled output is byte-identical to a
 * single-process run of the same grid. See docs/EXPERIMENTS.md.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/governor_registry.hh"
#include "dist/dispatch.hh"
#include "exp/cache.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "sim/logging.hh"
#include "workloads/battery.hh"
#include "workloads/graphics.hh"
#include "workloads/micro.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Every individually addressable profile, for --list and lookup. */
std::vector<workloads::WorkloadProfile>
allProfiles()
{
    std::vector<workloads::WorkloadProfile> all;
    for (auto &w : workloads::specSuite())
        all.push_back(std::move(w));
    for (auto &w : workloads::batterySuite())
        all.push_back(std::move(w));
    for (auto &w : workloads::graphicsSuite())
        all.push_back(std::move(w));
    all.push_back(workloads::streamMicro());
    all.push_back(workloads::pointerChaseMicro());
    all.push_back(workloads::spinMicro());
    return all;
}

/**
 * Resolve one --workloads token: a suite keyword ("spec",
 * "battery", "graphics", "micro"), "spec:NAME", or a profile name.
 */
std::vector<workloads::WorkloadProfile>
resolveWorkloads(const std::string &token)
{
    if (token == "spec")
        return workloads::specSuite();
    if (token == "battery")
        return workloads::batterySuite();
    if (token == "graphics")
        return workloads::graphicsSuite();
    if (token == "micro") {
        return {workloads::streamMicro(),
                workloads::pointerChaseMicro(),
                workloads::spinMicro()};
    }
    if (token.rfind("spec:", 0) == 0)
        return {workloads::specBenchmark(token.substr(5))};
    for (auto &w : allProfiles()) {
        if (w.name() == token)
            return {std::move(w)};
    }
    std::fprintf(stderr, "sweep_grid: unknown workload \"%s\" "
                         "(try --list)\n",
                 token.c_str());
    std::exit(2);
}

void
listRegistry()
{
    std::printf("governors:\n");
    for (const auto &g : core::governorRegistry())
        std::printf("  %-16s %s\n", g.name.c_str(),
                    g.summary.c_str());
    std::printf("  %-16s %s\n", "collect",
                "no governor: counter collection only");
    std::printf("workload suites: spec battery graphics micro\n");
    std::printf("workloads:\n");
    for (const auto &w : allProfiles())
        std::printf("  %s\n", w.name().c_str());
    std::printf("scenarios:\n");
    for (const auto &s : workloads::scenarioNames())
        std::printf("  %s\n", s.c_str());
}

void
usage()
{
    std::printf(
        "usage: sweep_grid [options]\n"
        "  --workloads LIST   suites/names (default: battery)\n"
        "  --governors LIST   governor tokens (default: "
        "fixed,sysscale);\n"
        "                     a token is name[:key=value...], e.g.\n"
        "                     ondemand:up=0.9 (validated up front)\n"
        "  --tdps LIST        TDP watts (default: 4.5)\n"
        "  --seeds LIST       RNG seeds (default: 1)\n"
        "  --warmup-ms N      warm-up per cell (default: 200)\n"
        "  --window-ms N      measured window per cell (default: "
        "2000)\n"
        "  --jobs N           worker threads (default: hardware)\n"
        "  --scenarios LIST   scenario names as a fifth grid axis\n"
        "                     (mixed agents + timed SoC mutations;\n"
        "                     each cell gets a scenario label and\n"
        "                     id suffix; 'none' is a valid value)\n"
        "  --distributed DIR  fan the grid out through the work\n"
        "                     queue at DIR instead of simulating\n"
        "                     locally (requires a cache; workers:\n"
        "                     sweep_worker and/or --spawn-workers)\n"
        "  --spawn-workers N  local worker threads for the duration\n"
        "                     of a --distributed sweep (default: 0)\n"
        "  --stall-timeout-s N  abort a --distributed sweep after N\n"
        "                     seconds without any cell completing\n"
        "                     (default: 0 = wait forever)\n"
        "  --slice-s N        with --distributed: dispatch cells\n"
        "                     longer than N simulated seconds as a\n"
        "                     checkpoint-chained sequence of N-second\n"
        "                     slices (snapshots hand off under the\n"
        "                     queue's snaps/; results byte-identical\n"
        "                     to unsliced; default: 0 = off)\n"
        "  --stream-csv       with --distributed --csv: write rows\n"
        "                     to the CSV as cells resolve (spec\n"
        "                     order; the finished file is byte-\n"
        "                     identical to a non-streamed run)\n"
        "  --ddr4             use the DDR4 SoC population\n"
        "  --csv FILE         write CSV ('-' = stdout)\n"
        "  --json FILE        write JSON ('-' = stdout)\n"
        "  --stats-csv FILE   write the per-cell stats dumps as a\n"
        "                     wide CSV ('-' = stdout): one column\n"
        "                     per stat path, rows in spec order\n"
        "  --trace-dir DIR    write one Chrome trace-event JSON per\n"
        "                     simulated cell into DIR (cache hits\n"
        "                     skip the simulator and write none;\n"
        "                     combine with --no-cache for full\n"
        "                     coverage). Not valid with --distributed\n"
        "  --log-level LEVEL  debug narrates model decisions to\n"
        "                     stderr; silent, warn and inform\n"
        "                     (default) are all quiet\n"
        "  --cache-dir DIR    reuse finished cells from DIR\n"
        "                     (default: $SYSSCALE_CACHE_DIR)\n"
        "  --no-cache         disable the cell cache entirely\n"
        "  --no-skip-ahead    disable the constant-step replay fast\n"
        "                     path (outputs are byte-identical either\n"
        "                     way; this trades speed for a slow-path\n"
        "                     cross-check)\n"
        "  --cache-stats      report hit/miss/store counts\n"
        "  --quiet            no per-cell progress\n"
        "  --list             list governors and workloads\n");
}

void
emit(const std::string &path, bool json,
     const std::vector<exp::RunResult> &results)
{
    if (path == "-") {
        if (json)
            exp::writeJson(std::cout, results);
        else
            exp::writeCsv(std::cout, results);
        return;
    }
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "sweep_grid: cannot write %s\n",
                     path.c_str());
        std::exit(2);
    }
    if (json)
        exp::writeJson(os, results);
    else
        exp::writeCsv(os, results);
    std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(),
                 results.size());
}

/**
 * Wide-format stats export: one row per cell, one column per stat
 * path, columns in order of first appearance across the (spec-
 * ordered) results, values verbatim from the dump. Cells missing a
 * stat (error rows, heterogeneous grids) leave the field empty.
 */
void
writeStatsCsv(std::ostream &os,
              const std::vector<exp::RunResult> &results)
{
    std::vector<std::string> columns;
    std::vector<std::vector<std::pair<std::string, std::string>>>
        rows;
    rows.reserve(results.size());
    for (const auto &res : results) {
        std::vector<std::pair<std::string, std::string>> row;
        std::istringstream dump(res.statsDump);
        std::string line;
        while (std::getline(dump, line)) {
            // "path.stat value # desc"
            std::istringstream fields(line);
            std::string path, val;
            if (!(fields >> path >> val))
                continue;
            if (std::find(columns.begin(), columns.end(), path) ==
                columns.end()) {
                columns.push_back(path);
            }
            row.emplace_back(path, val);
        }
        rows.push_back(std::move(row));
    }

    os << "id,governor,workload";
    for (const auto &c : columns)
        os << ',' << c;
    os << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const exp::RunResult &res = results[i];
        os << res.id << ',' << res.governor << ','
           << res.workload;
        for (const auto &c : columns) {
            os << ',';
            for (const auto &kv : rows[i]) {
                if (kv.first == c) {
                    os << kv.second;
                    break;
                }
            }
        }
        os << '\n';
    }
}

void
emitStatsCsv(const std::string &path,
             const std::vector<exp::RunResult> &results)
{
    if (path == "-") {
        writeStatsCsv(std::cout, results);
        return;
    }
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "sweep_grid: cannot write %s\n",
                     path.c_str());
        std::exit(2);
    }
    writeStatsCsv(os, results);
    std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(),
                 results.size());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workloads_arg = "battery";
    std::string governors_arg = "fixed,sysscale";
    std::string tdps_arg = "4.5";
    std::string seeds_arg = "1";
    double warmup_ms = 200.0;
    double window_ms = 2000.0;
    std::size_t jobs = 0;
    std::string scenarios_arg;
    std::string distributed_dir;
    std::size_t spawn_workers = 0;
    long stall_timeout_s = 0;
    Tick slice_ticks = 0;
    bool stream_csv = false;
    bool ddr4 = false;
    bool quiet = false;
    bool no_cache = false;
    bool cache_stats = false;
    std::string cache_dir;
    std::string csv_path, json_path;
    std::string stats_csv_path;
    std::string trace_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "sweep_grid: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workloads") {
            workloads_arg = value();
        } else if (arg == "--governors") {
            governors_arg = value();
        } else if (arg == "--tdps") {
            tdps_arg = value();
        } else if (arg == "--seeds") {
            seeds_arg = value();
        } else if (arg == "--warmup-ms") {
            warmup_ms = std::atof(value().c_str());
        } else if (arg == "--window-ms") {
            window_ms = std::atof(value().c_str());
        } else if (arg == "--jobs") {
            jobs = static_cast<std::size_t>(
                std::atol(value().c_str()));
        } else if (arg == "--scenarios") {
            scenarios_arg = value();
        } else if (arg == "--distributed") {
            distributed_dir = value();
        } else if (arg == "--spawn-workers") {
            const long n = std::atol(value().c_str());
            if (n < 0) {
                std::fprintf(stderr, "sweep_grid: --spawn-workers "
                                     "must be >= 0\n");
                return 2;
            }
            spawn_workers = static_cast<std::size_t>(n);
        } else if (arg == "--stall-timeout-s") {
            stall_timeout_s = std::atol(value().c_str());
        } else if (arg == "--slice-s") {
            const double s = std::atof(value().c_str());
            if (s < 0) {
                std::fprintf(stderr, "sweep_grid: --slice-s must "
                                     "be >= 0\n");
                return 2;
            }
            slice_ticks = static_cast<Tick>(s * kTicksPerSec);
        } else if (arg == "--stream-csv") {
            stream_csv = true;
        } else if (arg == "--ddr4") {
            ddr4 = true;
        } else if (arg == "--csv") {
            csv_path = value();
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--stats-csv") {
            stats_csv_path = value();
        } else if (arg == "--trace-dir") {
            trace_dir = value();
        } else if (arg == "--log-level") {
            const std::string level = value();
            if (level == "silent" || level == "warn" ||
                level == "inform") {
                setDebugLog(false);
            } else if (level == "debug") {
                setDebugLog(true);
            } else {
                std::fprintf(stderr,
                             "sweep_grid: unknown --log-level "
                             "\"%s\" (silent, warn, inform, "
                             "debug)\n",
                             level.c_str());
                return 2;
            }
        } else if (arg == "--cache-dir") {
            cache_dir = value();
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--no-skip-ahead") {
            soc::Soc::setSkipAheadDefault(false);
        } else if (arg == "--cache-stats") {
            cache_stats = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            listRegistry();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "sweep_grid: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    exp::GridSpec grid;
    grid.base = ddr4 ? soc::skylakeDdr4Config() : soc::skylakeConfig();
    for (const auto &token : splitList(workloads_arg)) {
        for (auto &w : resolveWorkloads(token))
            grid.workloads.push_back(std::move(w));
    }
    grid.governors = splitList(governors_arg);
    grid.tdps.clear();
    for (const auto &t : splitList(tdps_arg))
        grid.tdps.push_back(std::atof(t.c_str()));
    grid.seeds.clear();
    for (const auto &s : splitList(seeds_arg))
        grid.seeds.push_back(
            static_cast<std::uint64_t>(std::atoll(s.c_str())));
    grid.warmup = ticksFromMs(warmup_ms);
    grid.window = ticksFromMs(window_ms);
    for (const auto &name : splitList(scenarios_arg)) {
        try {
            grid.scenarios.push_back(
                {name, workloads::scenarioByName(name)});
        } catch (const std::exception &) {
            std::fprintf(stderr,
                         "sweep_grid: unknown scenario \"%s\" "
                         "(try --list)\n",
                         name.c_str());
            return 2;
        }
    }

    // Validate every governor token up front: makeGovernor() builds
    // the governor once, so an unknown name (the error enumerates the
    // registry) or a bad parameter dies here at parse time, never
    // deep inside a cell on a sweep worker.
    for (const auto &gov : grid.governors) {
        try {
            const exp::GovernorToken tok =
                exp::parseGovernorToken(gov);
            (void)exp::makeGovernor(tok.name, tok.params);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sweep_grid: bad governor \"%s\": "
                                 "%s (try --list)\n",
                         gov.c_str(), e.what());
            return 2;
        }
    }

    const auto specs = exp::expandGrid(grid);
    if (specs.empty()) {
        std::fprintf(stderr, "sweep_grid: empty grid\n");
        return 2;
    }

    std::unique_ptr<exp::ResultCache> cache;
    try {
        cache = exp::resolveCache(std::move(cache_dir), no_cache);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep_grid: %s\n", e.what());
        return 2;
    }

    if (distributed_dir.empty() && spawn_workers > 0) {
        std::fprintf(stderr, "sweep_grid: --spawn-workers needs "
                             "--distributed\n");
        return 2;
    }
    if (distributed_dir.empty() && slice_ticks > 0) {
        std::fprintf(stderr, "sweep_grid: --slice-s needs "
                             "--distributed\n");
        return 2;
    }
    if (!distributed_dir.empty() && jobs > 0) {
        std::fprintf(stderr,
                     "sweep_grid: --jobs controls the in-process "
                     "runner only; with --distributed use "
                     "--spawn-workers for local parallelism\n");
        return 2;
    }
    if (!distributed_dir.empty() && !cache) {
        std::fprintf(stderr,
                     "sweep_grid: --distributed publishes results "
                     "through the shared cache — pass --cache-dir "
                     "or set SYSSCALE_CACHE_DIR\n");
        return 2;
    }
    if (stream_csv &&
        (distributed_dir.empty() || csv_path.empty())) {
        std::fprintf(stderr,
                     "sweep_grid: --stream-csv needs --distributed "
                     "and --csv\n");
        return 2;
    }
    if (!trace_dir.empty() && !distributed_dir.empty()) {
        std::fprintf(stderr,
                     "sweep_grid: --trace-dir traces in-process "
                     "cells only and cannot follow a --distributed "
                     "sweep onto its workers\n");
        return 2;
    }
    if (!trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "sweep_grid: cannot create --trace-dir "
                         "%s: %s\n",
                         trace_dir.c_str(),
                         ec.message().c_str());
            return 2;
        }
    }

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<exp::RunResult> results;
    std::size_t simulated_here = 0;
    bool csv_streamed = false;

    if (!distributed_dir.empty()) {
        dist::DispatchOptions dopts;
        dopts.spawnWorkers = spawn_workers;
        dopts.stallTimeout = std::chrono::seconds(stall_timeout_s);
        dopts.sliceTicks = slice_ticks;
        if (!quiet) {
            dopts.onEvent = [](const std::string &line) {
                std::fprintf(stderr, "sweep_grid: %s\n",
                             line.c_str());
            };
        }

        // --stream-csv: open the sink and write the header up
        // front, then append each row as its cell resolves (the
        // dispatcher delivers rows in spec order). The finished
        // file is byte-identical to the end-of-run emit() path;
        // mid-campaign it is a valid CSV prefix, tailable from
        // another terminal.
        std::ofstream stream_file;
        std::unique_ptr<exp::CsvWriter> stream_writer;
        if (stream_csv) {
            std::ostream *stream_os = &std::cout;
            if (csv_path != "-") {
                stream_file.open(csv_path);
                if (!stream_file) {
                    std::fprintf(stderr,
                                 "sweep_grid: cannot write %s\n",
                                 csv_path.c_str());
                    return 2;
                }
                stream_os = &stream_file;
            }
            stream_writer = std::make_unique<exp::CsvWriter>(
                *stream_os, /*flushEachRow=*/true);
            dopts.onResult = [&](std::size_t,
                                 const exp::RunResult &res) {
                stream_writer->append(res);
            };
        }

        std::fprintf(stderr,
                     "sweep_grid: dispatching %zu cells through "
                     "queue %s (%zu local worker thread(s))\n",
                     specs.size(), distributed_dir.c_str(),
                     spawn_workers);
        try {
            dist::DispatchOutcome outcome = dist::runDistributed(
                specs, distributed_dir, *cache, dopts);
            results = std::move(outcome.results);
            simulated_here = outcome.localWork.simulated;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sweep_grid: %s\n", e.what());
            return 2;
        }
        if (stream_writer) {
            csv_streamed = true;
            if (csv_path != "-") {
                std::fprintf(stderr,
                             "wrote %s (%zu rows, streamed)\n",
                             csv_path.c_str(),
                             stream_writer->rows());
            }
        }
    } else {
        exp::RunnerOptions opts;
        opts.jobs = jobs;
        opts.cache = cache.get();
        opts.traceDir = trace_dir;
        if (!quiet) {
            opts.onResult = [](const exp::RunResult &res,
                               std::size_t done, std::size_t total) {
                std::fprintf(stderr, "[%zu/%zu] %-40s %s (%.2fs)\n",
                             done, total, res.id.c_str(),
                             res.ok ? "ok" : res.error.c_str(),
                             res.hostSeconds);
            };
        }

        // The actual pool is sized to the cells the cache cannot
        // serve, which is only known after lookup — report an upper
        // bound.
        const exp::ExperimentRunner runner(opts);
        std::fprintf(stderr,
                     "sweep_grid: %zu cells on up to %zu worker "
                     "thread(s)\n",
                     specs.size(), runner.jobsFor(specs.size()));
        results = runner.run(specs);
    }

    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    std::size_t failures = 0;
    double cell_seconds = 0.0;
    for (const auto &res : results) {
        if (!res.ok)
            ++failures;
        cell_seconds += res.hostSeconds;
    }
    // Cache hits replay the hostSeconds of their original run, so
    // cell_seconds is *recorded* work; say how much was simulated
    // here versus served from disk. In a distributed sweep every
    // assembled row comes from the cache — report what the local
    // spawned workers actually simulated instead.
    const std::size_t cached = cache ? cache->stats().hits : 0;
    if (!distributed_dir.empty()) {
        std::fprintf(stderr,
                     "sweep_grid: %zu cells assembled from %s (%zu "
                     "simulated by local workers) in %.2fs wall "
                     "(%.2fs of recorded cell work, %zu failed)\n",
                     results.size(), cache->dir().c_str(),
                     simulated_here, wall, cell_seconds, failures);
    } else {
        std::fprintf(stderr,
                     "sweep_grid: %zu cells (%zu simulated, %zu "
                     "from cache) in %.2fs wall (%.2fs of recorded "
                     "cell work, %zu failed)\n",
                     results.size(), results.size() - cached, cached,
                     wall, cell_seconds, failures);
    }
    if (cache && cache_stats) {
        const exp::CacheStats cs = cache->stats();
        std::fprintf(stderr,
                     "sweep_grid: cache %s: %zu hit(s), %zu "
                     "miss(es), %zu store(s), %zu corrupt\n",
                     cache->dir().c_str(), cs.hits, cs.misses,
                     cs.stores, cs.corrupt);
    } else if (cache_stats) {
        std::fprintf(stderr, "sweep_grid: cache disabled (use "
                             "--cache-dir or SYSSCALE_CACHE_DIR)\n");
    }

    if (!csv_path.empty() && !csv_streamed)
        emit(csv_path, false, results);
    if (!json_path.empty())
        emit(json_path, true, results);
    if (!stats_csv_path.empty())
        emitStatsCsv(stats_csv_path, results);
    if (csv_path.empty() && json_path.empty() &&
        stats_csv_path.empty())
        exp::writeCsv(std::cout, results);

    return failures == 0 ? 0 : 1;
}
