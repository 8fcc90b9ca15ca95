#include "exp/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/governor_registry.hh"
#include "core/governors.hh"
#include "core/transition_flow.hh"
#include "exp/spec_codec.hh"
#include "io/display.hh"
#include "io/isp.hh"
#include "obs/trace.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "workloads/composite.hh"

namespace sysscale {
namespace exp {

namespace {

/** Workload wrapper that overrides the OS core-frequency request. */
class PinnedFreqAgent : public soc::WorkloadAgent
{
  public:
    PinnedFreqAgent(soc::WorkloadAgent &inner, Hertz freq)
        : inner_(inner), freq_(freq)
    {}

    void
    demandAt(Tick now, soc::IntervalDemand &demand) override
    {
        inner_.demandAt(now, demand);
        if (freq_ > 0.0)
            demand.coreFreqRequest = freq_;
    }

    bool
    finished(Tick now) const override
    {
        return inner_.finished(now);
    }

    Tick
    demandHorizon(Tick now) override
    {
        // The override is time-invariant, so the inner horizon holds.
        return inner_.demandHorizon(now);
    }

  private:
    soc::WorkloadAgent &inner_;
    Hertz freq_;
};

/** The optional "run.baseline" section: one RunAccumulators. */
void
visitAccumulators(StateIO &io, soc::Soc::RunAccumulators &a)
{
    io.field("instructions", a.instructions);
    io.field("frames", a.frames);
    for (std::size_t i = 0; i < power::kNumRails; ++i)
        io.field("rail" + std::to_string(i), a.rail[i]);
    io.field("lat_int", a.latInt);
    io.field("lat_secs", a.latSecs);
    io.field("bw_int", a.bwInt);
    io.field("freq_int", a.freqInt);
    io.field("low_secs", a.lowSecs);
    io.field("elapsed_secs", a.elapsedSeconds);
    io.field("qos", a.qos);
    io.field("trans", a.trans);
    io.field("stall", a.stall);
}

/**
 * Walk the full simulator state of a cell: the kernel's sections
 * (Simulator::visitState(): events, every object's state with the
 * PMU's installed governor, stats, RNG), then the trace buffer when
 * the cell traces, and the measurement-window baseline sample once
 * the run has crossed warmup. A loading walk runs on a freshly
 * constructed cell, built exactly as runCell would; any shape
 * mismatch (unknown event name, missing or unconsumed field) throws
 * SnapshotError.
 */
void
visitCellState(StateIO &io, Simulator &sim, obs::TraceSink *sink,
               std::optional<soc::Soc::RunAccumulators> &baseline)
{
    sim.visitState(io);
    if (io.loading() ? io.reader().has("obs.dropped") : sink != nullptr) {
        if (sink != nullptr) {
            io.push("obs");
            sink->visitState(io);
            io.pop();
        } else {
            // Saved with tracing, restored without: drop the buffer.
            io.reader().skipScope("obs");
        }
    }
    if (io.loading() ? io.reader().has("run.baseline.instructions")
                     : baseline.has_value()) {
        io.push("run.baseline");
        visitAccumulators(io, io.loading() ? baseline.emplace()
                                           : *baseline);
        io.pop();
    }
}

} // anonymous namespace

std::unique_ptr<core::Governor>
makeGovernor(const std::string &name, const GovernorParams &params)
{
    if (name.empty() || name == "collect") {
        if (!params.empty()) {
            throw std::invalid_argument(
                "governor \"collect\" takes no parameters");
        }
        return nullptr;
    }
    // core::makeGovernor validates both the name (enumerating the
    // registry on a miss) and the parameters.
    return core::makeGovernor(name, params);
}

GovernorToken
parseGovernorToken(const std::string &token)
{
    GovernorToken out;
    std::size_t start = token.find(':');
    out.name = token.substr(0, start);
    while (start != std::string::npos) {
        ++start;
        std::size_t end = token.find(':', start);
        const std::string seg =
            token.substr(start, end == std::string::npos
                                    ? std::string::npos
                                    : end - start);
        const std::size_t eq = seg.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw std::invalid_argument(
                "governor token \"" + token + "\": segment \"" + seg +
                "\" is not key=value");
        }
        out.params.emplace_back(seg.substr(0, eq), seg.substr(eq + 1));
        start = end;
    }
    return out;
}

void
validateSpec(const ExperimentSpec &spec)
{
    if (spec.workload.numPhases() == 0 && spec.scenario.layers.empty())
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": workload has no phases");
    try {
        workloads::validateScenario(spec.scenario);
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": " + e.what());
    }
    if (spec.window == 0)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": zero measurement window");
    const soc::SocConfig &cfg = spec.soc;
    try {
        (void)makeGovernor(spec.governor, spec.governorParams);
        cfg.validate();
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": " + e.what());
    }

    // Peak concurrent hardware threads: the composite concatenates
    // the base workload's thread work with every layer active at
    // the same instant, and the CPU model asserts (process-fatal)
    // when that exceeds cores x threads — which from a sweep worker
    // would crash the daemon and crash-loop the reclaimed cell
    // across the whole fleet. Reject the cell here instead, using
    // each profile's worst phase at every layer arrival inside the
    // simulated window (a layer arriving after warmup + window
    // never materializes and cannot overflow). The base workload
    // alone is checked too — a too-wide profile is just as fatal
    // without any scenario.
    {
        const std::size_t capacity = cfg.cores * cfg.threadsPerCore;
        const Tick run_end = spec.warmup + spec.window;
        auto maxThreads =
            [](const workloads::WorkloadProfile &profile) {
                std::size_t m = 0;
                for (const workloads::Phase &p : profile.phases())
                    m = std::max(m, p.activeThreads);
                return m;
            };
        std::vector<Tick> edges{0};
        for (const workloads::ScenarioLayer &layer :
             spec.scenario.layers) {
            if (layer.start < run_end)
                edges.push_back(layer.start);
        }
        std::size_t peak = 0;
        for (const Tick t : edges) {
            std::size_t at = maxThreads(spec.workload);
            for (const workloads::ScenarioLayer &layer :
                 spec.scenario.layers) {
                if (layer.start <= t &&
                    (layer.stop == 0 || t < layer.stop))
                    at += maxThreads(layer.profile);
            }
            peak = std::max(peak, at);
        }
        if (peak > capacity) {
            throw std::invalid_argument(
                "cell \"" + spec.id + "\": workload plus scenario "
                "layers peak at " + std::to_string(peak) +
                " concurrent threads, above the " +
                std::to_string(capacity) + " the SoC has");
        }
    }
}

namespace {

/**
 * The throwing core of runCellSlice: build the cell exactly as
 * runCell always has, optionally restore the snapshot at t0, run to
 * t1, optionally publish a snapshot, and produce the cell outputs
 * when t1 is the end of the run. @p use_snap false ignores inSnap
 * (the degrade-to-cache-miss retry path).
 */
void
executeSlice(const ExperimentSpec &spec, const SliceOptions &sopts,
             bool use_snap, RunResult &res)
{
    validateSpec(spec);

    const Tick total = spec.warmup + spec.window;
    const Tick t1 = sopts.t1 == 0 ? total : sopts.t1;
    if (t1 > total)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": slice ends past the run");
    if (sopts.t0 >= t1)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": empty slice");
    if (sopts.t0 > 0 && sopts.inSnap.empty())
        throw std::invalid_argument(
            "cell \"" + spec.id +
            "\": slice starts mid-run without an input snapshot");

    // Built here, per cell: stateful governors (adaptive's learned
    // thresholds) can never leak across cells.
    const std::unique_ptr<core::Governor> gov =
        makeGovernor(spec.governor, spec.governorParams);

    Simulator sim(spec.seed);

    // The sink must be installed before the Soc is built so
    // construction-time trace sites (the boot op-point counters)
    // land in the file. One sink per cell, stamped only with sim
    // clock, written once below — which is what makes traces
    // byte-identical across --jobs counts and skip-ahead modes.
    obs::TraceSink sink;
    const bool tracing = !sopts.traceDir.empty();
    if (tracing)
        sim.setTraceSink(&sink);

    soc::Soc chip(sim, spec.soc);
    if (spec.hdPanel)
        chip.display().attachPanel(0, io::kDefaultHdPanel);
    if (spec.camera)
        chip.isp().startCamera(io::CameraConfig{});

    // Scenario-less cells bind the profile agent directly (the
    // single-workload fast path benches rely on); scenarios
    // overlay their layers through a CompositeAgent and replay
    // timed SoC mutations through a ScenarioScript.
    std::unique_ptr<workloads::ProfileAgent> base;
    if (spec.workload.numPhases() > 0)
        base.reset(new workloads::ProfileAgent(spec.workload));

    workloads::CompositeAgent composite;
    std::vector<std::unique_ptr<workloads::ProfileAgent>> layers;
    soc::WorkloadAgent *root = base.get();
    if (!spec.scenario.layers.empty()) {
        if (base)
            composite.addMember(*base);
        for (const workloads::ScenarioLayer &layer :
             spec.scenario.layers) {
            layers.emplace_back(
                new workloads::ProfileAgent(layer.profile));
            composite.addMember(*layers.back(), layer.start,
                                layer.stop);
        }
        root = &composite;
    }

    std::unique_ptr<workloads::ScenarioScript> script;
    if (!spec.scenario.actions.empty()) {
        script.reset(new workloads::ScenarioScript(
            sim, chip, spec.scenario.actions));
    }

    PinnedFreqAgent pinned(*root, spec.pinnedCoreFreq);
    chip.setWorkload(&pinned);

    chip.pmu().setGovernor(gov.get());
    res.governor = gov ? gov->name() : "collect";

    if (spec.pinnedOpPoint) {
        core::FlowOptions fopts;
        fopts.useOptimizedMrc = !spec.pinnedUnoptimizedMrc;
        core::TransitionFlow flow(chip, fopts);
        soc::OperatingPoint target = *spec.pinnedOpPoint;
        if (spec.pinnedUnoptimizedMrc)
            target.mrcTrainedBin = chip.opPoints().high().dramBin;
        flow.execute(target);
        chip.setComputeBudget(chip.pbm().computeBudget(
            chip.ioMemBudget(chip.opPoints().high()), 0.0));
    }

    // The key only checks and names snapshots and traces, so an
    // ordinary cell never serializes its spec here.
    std::string key;
    const auto keyOf = [&]() -> const std::string & {
        if (key.empty())
            key = specKey(spec);
        return key;
    };
    std::optional<soc::Soc::RunAccumulators> baseline;
    Tick pos = 0;
    if (use_snap && sopts.t0 > 0) {
        const std::string text = readSnapshotFile(sopts.inSnap);
        SnapshotReader reader(text);
        if (reader.specKey() != keyOf()) {
            throw SnapshotError(
                "snapshot " + sopts.inSnap + " belongs to spec " +
                reader.specKey() + ", not " + key);
        }
        if (reader.tick() != sopts.t0) {
            throw SnapshotError(
                "snapshot " + sopts.inSnap + " is at tick " +
                std::to_string(reader.tick()) + ", not slice start " +
                std::to_string(sopts.t0));
        }
        StateIO io(reader);
        visitCellState(io, sim, tracing ? &sink : nullptr, baseline);
        reader.finish();
        pos = sopts.t0;
    }

    // Cross the warmup boundary exactly as the unsliced path does:
    // run to it, then sample the measurement-window baseline. The
    // baseline rides subsequent snapshots so the final slice
    // differences the identical pair of samples.
    if (!baseline && t1 >= spec.warmup && pos <= spec.warmup) {
        if (spec.warmup > pos)
            chip.run(spec.warmup - pos);
        pos = spec.warmup;
        baseline = chip.sampleAccumulators();
    }
    if (t1 > pos)
        chip.run(t1 - pos);

    if (!sopts.outSnap.empty()) {
        // Publish before stats finalization: finalizeStats() closes
        // the time-averaged stats, which must not leak into an image
        // a continuation resumes from.
        SnapshotWriter writer(keyOf(), sim.now());
        StateIO io(writer);
        visitCellState(io, sim, tracing ? &sink : nullptr, baseline);
        writeSnapshotFile(sopts.outSnap, writer.str());
    }

    if (t1 == total) {
        res.metrics = soc::Soc::metricsBetween(
            *baseline, chip.sampleAccumulators(),
            secondsFromTicks(spec.window));
        res.counters = chip.pmu().runAverage();

        // Per-cell stats export: close the time-weighted residency
        // stats and dump the whole hierarchy. Rides the result (and
        // the cache) without touching the CSV/JSON report surfaces.
        chip.finalizeStats(sim.now());
        std::ostringstream stats;
        sim.statsRoot().dumpStats(stats);
        res.statsDump = stats.str();

        if (tracing) {
            const std::string path =
                sopts.traceDir + "/" + keyOf() + ".trace.json";
            std::ofstream os(path,
                             std::ios::binary | std::ios::trunc);
            if (!os) {
                throw std::runtime_error(
                    "cannot write trace file " + path);
            }
            sink.writeJson(os);
        }
    }
    res.ok = true;
}

} // anonymous namespace

RunResult
runCell(const ExperimentSpec &spec)
{
    return runCellSlice(spec, SliceOptions{});
}

RunResult
runCellSlice(const ExperimentSpec &spec, const SliceOptions &sopts)
{
    RunResult res;
    res.id = spec.id;
    res.workload = spec.workload.name();
    res.labels = spec.labels;

    // lint:allow nondeterminism -- hostSeconds is measured host
    // timing, recorded as diagnostic metadata and replayed
    // byte-identically from the cache
    const auto host_start = std::chrono::steady_clock::now();
    try {
        try {
            executeSlice(spec, sopts, /*use_snap=*/true, res);
        } catch (const SnapshotError &e) {
            // Degrade to a cache miss: a bad input snapshot (absent,
            // truncated, corrupt, stale version, wrong spec) means
            // re-simulating the slice's prefix from tick 0, never a
            // failed cell. The retry rebuilds the whole cell — a
            // restore aborted midway leaves partial state behind.
            (void)e;
            RunResult fresh;
            fresh.id = res.id;
            fresh.workload = res.workload;
            fresh.labels = res.labels;
            res = fresh;
            executeSlice(spec, sopts, /*use_snap=*/false, res);
        }
        res.ok = true;
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
    } catch (...) {
        res.ok = false;
        res.error = "unknown exception";
    }
    res.hostSeconds =
        std::chrono::duration<double>(
            // lint:allow nondeterminism -- hostSeconds measurement
            std::chrono::steady_clock::now() - host_start)
            .count();
    return res;
}

std::vector<ExperimentSpec>
expandGrid(const GridSpec &grid)
{
    // The scenario axis: explicit entries expand like any other
    // dimension (every cell suffixed and labeled, "none" included);
    // without them one scenario-less value keeps ids unsuffixed.
    const bool scenario_axis = !grid.scenarios.empty();
    const std::vector<GridSpec::NamedScenario> axis =
        scenario_axis ? grid.scenarios
                      : std::vector<GridSpec::NamedScenario>(1);

    std::vector<ExperimentSpec> cells;
    cells.reserve(grid.workloads.size() * grid.governors.size() *
                  grid.tdps.size() * grid.seeds.size() * axis.size());

    for (const auto &w : grid.workloads) {
        for (const auto &gov : grid.governors) {
            // Grid governors are sweep-console tokens: the base name
            // plus parameters land in the spec, while ids and the
            // "governor" label keep the full token so parameterized
            // variants stay distinguishable in aggregation. Plain
            // names (no parameters) expand exactly as before.
            const GovernorToken token = parseGovernorToken(gov);
            for (const Watt tdp : grid.tdps) {
                for (const std::uint64_t seed : grid.seeds) {
                    for (const auto &sc : axis) {
                        ExperimentSpec cell;
                        cell.soc = grid.base;
                        cell.soc.tdp = tdp;
                        cell.workload = w;
                        cell.scenario = sc.scenario;
                        cell.governor = token.name;
                        cell.governorParams = token.params;
                        cell.seed = seed;
                        cell.warmup = grid.warmup;
                        cell.window = grid.window;
                        cell.hdPanel = grid.hdPanel;
                        cell.camera = grid.camera;

                        char tdp_s[32];
                        std::snprintf(tdp_s, sizeof(tdp_s), "%.3gW",
                                      tdp);
                        cell.id = w.name() + "/" + gov + "/" + tdp_s +
                                  "/seed" + std::to_string(seed);
                        cell.labels = {
                            {"workload", w.name()},
                            {"governor", gov},
                            {"tdp", tdp_s},
                            {"seed", std::to_string(seed)},
                        };
                        if (scenario_axis) {
                            cell.id += "/" + sc.name;
                            cell.labels.emplace_back("scenario",
                                                     sc.name);
                        }
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

} // namespace exp
} // namespace sysscale
