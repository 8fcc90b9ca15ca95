/**
 * @file
 * Declarative experiment cells.
 *
 * An ExperimentSpec pins everything one simulation run depends on —
 * SoC configuration, workload profile, governor, measurement window,
 * pinning overrides, and RNG seed — so a run can execute anywhere
 * (serial loop, worker thread, remote host) and produce the same
 * RunResult. runCell() is the single execution path: it owns an
 * isolated Simulator and Soc per call, which is what makes grid
 * execution embarrassingly parallel and bit-identical to a serial
 * sweep of the same cells.
 *
 * Governors are resolved by name through the core governor registry
 * (core/governor_registry.hh — "fixed", "sysscale", "ondemand",
 * "adaptive", ... plus the policy-less "collect") so grids serialize
 * to plain strings, with optional key=value parameters riding along
 * (the ablation knock-outs are sysscale parameters). Every spec is
 * therefore content-addressable: it caches and queues as is.
 */

#ifndef SYSSCALE_EXP_EXPERIMENT_HH
#define SYSSCALE_EXP_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/governor.hh"
#include "soc/config.hh"
#include "soc/op_point.hh"
#include "soc/soc.hh"
#include "workloads/profile.hh"
#include "workloads/scenario.hh"

namespace sysscale {
namespace exp {

/** Key=value annotations carried through to result rows. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/**
 * Governor parameters (key=value, order-preserving). Same shape as
 * core::GovernorParams; part of the cell's content address.
 */
using GovernorParams =
    std::vector<std::pair<std::string, std::string>>;

/**
 * One grid cell: a fully-specified simulation run.
 */
struct ExperimentSpec
{
    /** Unique cell identifier (grids derive it from the axes). */
    std::string id;

    soc::SocConfig soc = soc::skylakeConfig();
    workloads::WorkloadProfile workload;

    /**
     * Concurrent activity around the base workload: overlay layers
     * (merged by workloads::CompositeAgent) and timed SoC mutations
     * (replayed by workloads::ScenarioScript). Part of the cell's
     * content address — two cells differing only here are different
     * simulations.
     */
    workloads::Scenario scenario;

    /**
     * Registry name of the governor ("collect" or empty = no
     * governor, counter collection only).
     */
    std::string governor = "collect";

    /**
     * Parameters handed to the governor's constructor (empty for
     * the parameterless governors). Part of the content address —
     * two cells differing only here are different simulations.
     */
    GovernorParams governorParams;

    /** Simulator root-RNG seed. */
    std::uint64_t seed = 1;

    Tick warmup = 200 * kTicksPerMs;
    Tick window = 2 * kTicksPerSec;

    bool hdPanel = true;
    bool camera = false;

    /** Pin the CPU cores to this frequency (0 = PBM-controlled). */
    Hertz pinnedCoreFreq = 0.0;

    /** Pin the IO/memory domains to this operating point. */
    std::optional<soc::OperatingPoint> pinnedOpPoint;

    /** Apply unoptimized (boot-trained) MRC at the pinned point. */
    bool pinnedUnoptimizedMrc = false;

    Labels labels;

    /** Field-wise equality (the spec_codec round-trip invariant
     *  parseSpec(serializeSpec(s)) == s is stated with it). */
    bool
    operator==(const ExperimentSpec &o) const
    {
        return id == o.id && soc == o.soc && workload == o.workload &&
               scenario == o.scenario &&
               governor == o.governor &&
               governorParams == o.governorParams && seed == o.seed &&
               warmup == o.warmup && window == o.window &&
               hdPanel == o.hdPanel && camera == o.camera &&
               pinnedCoreFreq == o.pinnedCoreFreq &&
               pinnedOpPoint == o.pinnedOpPoint &&
               pinnedUnoptimizedMrc == o.pinnedUnoptimizedMrc &&
               labels == o.labels;
    }
};

/**
 * Outcome of one cell.
 */
struct RunResult
{
    std::string id;
    std::string governor;
    std::string workload;

    /** False when the cell failed; @ref error holds the reason. */
    bool ok = false;
    std::string error;

    soc::RunMetrics metrics{};
    soc::CounterSnapshot counters{};

    /** Host wall-clock the cell took on its worker (seconds). */
    double hostSeconds = 0.0;

    /**
     * Named stats dump ("path.stat value # desc" lines) of the
     * cell's whole stats::StatGroup hierarchy, taken after the
     * measurement window. Rides the cache JSON as its own member —
     * the CSV/JSON report surfaces are unchanged — and feeds the
     * sweep_grid --stats-csv wide-format export.
     */
    std::string statsDump;

    Labels labels;
};

/** @name Governor registry. @{ */

/**
 * A fresh governor for registered name @p name constructed with
 * @p params; nullptr for "collect"/"", which runs the PMU with no
 * governor. Throws std::invalid_argument on unknown names or
 * parameters the governor rejects, so callers that only validate a
 * token can build and discard one.
 */
std::unique_ptr<core::Governor> makeGovernor(
    const std::string &name, const GovernorParams &params = {});

/**
 * A sweep-console governor token: `name[:key=value[:key=value...]]`.
 * ',' separates whole tokens on the command line, ':' separates the
 * parameters of one token, and values may contain '@' (the userspace
 * governor's at=<ms>@<index> schedule entries).
 */
struct GovernorToken
{
    std::string name;
    GovernorParams params;
};

/**
 * Split a governor token into name + parameters. Throws
 * std::invalid_argument on malformed segments (missing '=' or empty
 * key); the *name* is not checked here — makeGovernor() does that.
 */
GovernorToken parseGovernorToken(const std::string &token);
/** @} */

/**
 * Throw std::invalid_argument if @p spec cannot run (empty workload,
 * zero window, unknown governor, invalid SocConfig). runCell() folds
 * the message into an error result instead of propagating.
 */
void validateSpec(const ExperimentSpec &spec);

/**
 * Execute one cell on the calling thread. Never throws: failures
 * (bad spec, exceptions out of the model) come back as ok=false
 * results so one cell cannot poison its siblings.
 */
RunResult runCell(const ExperimentSpec &spec);

/**
 * One time-slice of a cell: simulate [t0, t1] of the cell's
 * warmup+window timeline, optionally restoring the simulator from a
 * snapshot at t0 and publishing one at t1. runCell() is the
 * degenerate full slice; a chain of slices over the same spec whose
 * snapshots hand off at the cut ticks produces final metrics, stats
 * dump, and trace byte-identical to the unsliced run
 * (the restore and chain modes of tests/test_contracts.cc pin this).
 */
struct SliceOptions
{
    /** Slice start, absolute simulated tick. */
    Tick t0 = 0;

    /** Slice end; 0 means "to the end of the cell" (warmup+window). */
    Tick t1 = 0;

    /**
     * Snapshot restored before simulating; required when t0 > 0. A
     * missing, truncated, corrupt, stale-version, or wrong-spec
     * snapshot degrades to a cache miss — the slice re-simulates
     * from tick 0 (still ending, and snapshotting, at t1) instead of
     * failing.
     */
    std::string inSnap;

    /**
     * Snapshot published at t1 via the tmp+rename protocol (empty =
     * none). Written before stats finalization so a restored
     * continuation sees exactly the mid-run state.
     */
    std::string outSnap;

    /**
     * When non-empty, the cell runs with an obs::TraceSink installed
     * and its Chrome trace-event JSON is written to
     * `<traceDir>/<specKey>.trace.json` by the slice that reaches
     * the end of the cell. Traces contain only sim-clock timestamps,
     * so the same cell produces byte-identical trace files
     * regardless of --jobs.
     */
    std::string traceDir;
};

/**
 * Execute one slice of a cell. Never throws (same contract as
 * runCell). Slices that end before warmup+window return ok=true with
 * empty metrics/stats — only the final slice yields the cell's
 * RunMetrics, counters, stats dump, and trace.
 */
RunResult runCellSlice(const ExperimentSpec &spec,
                       const SliceOptions &opts);

/**
 * Declarative governor x workload x TDP x seed grid with shared
 * measurement settings; expandGrid() produces the cross product in a
 * deterministic order (workload-major, then governor, TDP, seed).
 */
struct GridSpec
{
    soc::SocConfig base = soc::skylakeConfig();
    std::vector<workloads::WorkloadProfile> workloads;
    std::vector<std::string> governors{"sysscale"};
    std::vector<Watt> tdps{4.5};
    std::vector<std::uint64_t> seeds{1};

    Tick warmup = 200 * kTicksPerMs;
    Tick window = 2 * kTicksPerSec;
    bool hdPanel = true;
    bool camera = false;

    /** One value of the scenario grid axis. */
    struct NamedScenario
    {
        std::string name;
        workloads::Scenario scenario;
    };

    /**
     * Scenario *axis*: when non-empty it becomes a fifth grid
     * dimension, expanded innermost (after seed). Every cell then
     * carries a "scenario" label and a "/NAME" id suffix — including
     * for an explicit "none" entry, so the axis values stay
     * distinguishable in aggregation. Empty = scenario-less cells
     * with unsuffixed ids.
     */
    std::vector<NamedScenario> scenarios;
};

std::vector<ExperimentSpec> expandGrid(const GridSpec &grid);

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_EXPERIMENT_HH
