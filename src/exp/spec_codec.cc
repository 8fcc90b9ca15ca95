#include "exp/spec_codec.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "compute/cstates.hh"
#include "dram/spec.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace exp {

namespace {

std::string
specHeader()
{
    return "sysscale-spec v" + std::to_string(kSpecFormatVersion);
}

/**
 * Walk @p wl: name, class, scalability and phase count under
 * @p pre, each phase under @p phase_pre. WorkloadProfile is
 * immutable, so the walk visits locals, and a loading walk builds
 * the profile once at the end. A loading walk accepts a zero-phase
 * profile only as the default-constructed placeholder (empty name).
 */
void
visit(StateIO &io, workloads::WorkloadProfile &wl, const std::string &pre,
      const std::string &phase_pre)
{
    using workloads::WorkloadClass;
    std::string name = wl.name();
    WorkloadClass klass = wl.klass();
    double scal = wl.perfScalability();
    std::uint64_t n_phases = wl.numPhases();
    io.field(pre + "name", name);
    io.field(pre + "class", klass,
             {WorkloadClass::CpuSingleThread, WorkloadClass::CpuMultiThread,
              WorkloadClass::Graphics, WorkloadClass::BatteryLife,
              WorkloadClass::Micro},
             workloads::workloadClassName);
    io.field(pre + "perf_scalability", Decimal{scal});
    io.field(pre + "phases", n_phases);
    // Negated comparison so NaN (which fails every <=) also throws.
    if (io.loading() && !(scal >= 0.0 && scal <= 1.0))
        throw std::invalid_argument(
            "spec codec: perf scalability out of [0,1]");

    std::vector<workloads::Phase> phases;
    for (std::size_t i = 0; i < n_phases; ++i) {
        const std::string ppre = phase_pre + std::to_string(i) + ".";
        workloads::Phase p = io.loading() ? workloads::Phase{} : wl.phase(i);
        io.field(ppre + "duration", p.duration);
        // WorkloadProfile's zero-length-phase check is fatal; throw.
        if (io.loading() && p.duration == 0)
            throw std::invalid_argument("spec codec: zero-length phase");
        io.field(ppre + "active_threads", p.activeThreads);
        io.field(ppre + "io_best_effort", Decimal{p.ioBestEffort});
        io.field(ppre + "core_freq_request", Decimal{p.coreFreqRequest});
        io.field(ppre + "gfx_freq_request", Decimal{p.gfxFreqRequest});
        // The work lists hold the members in declaration order.
        compute::CoreWork &w = p.work;
        std::vector<double> work{w.cpiBase, w.mpki, w.blockingFactor,
                                 w.bytesPerInstr, w.activity};
        io.field(ppre + "work", work, 5);
        compute::GfxWork &g = p.gfxWork;
        std::vector<double> gfx{g.cyclesPerFrame, g.bytesPerFrame,
                                g.targetFps, g.activity};
        io.field(ppre + "gfx", gfx, 4);
        std::vector<double> res;
        for (const compute::CState c : compute::kAllCStates)
            res.push_back(p.residency.fraction(c));
        io.field(ppre + "residency", res, compute::kNumCStates);
        if (!io.loading())
            continue;

        w = compute::CoreWork{work[0], work[1], work[2], work[3], work[4]};
        g = compute::GfxWork{gfx[0], gfx[1], gfx[2], gfx[3]};
        std::array<double, compute::kNumCStates> fractions{};
        double sum = 0.0;
        for (std::size_t c = 0; c < compute::kNumCStates; ++c) {
            // CStateResidency's own negativity and sum checks are
            // fatal (process exit); throw instead. Negated
            // comparisons so NaN fractions are rejected too.
            if (!(res[c] >= 0.0 && res[c] <= 1.0))
                throw std::invalid_argument(
                    "spec codec: residency fraction out of [0,1]");
            fractions[c] = res[c];
            sum += res[c];
        }
        if (!(std::fabs(sum - 1.0) <= 1e-6))
            throw std::invalid_argument(
                "spec codec: residency fractions do not sum to 1");
        p.residency = compute::CStateResidency(fractions);
        phases.push_back(p);
    }
    if (!io.loading())
        return;

    if (n_phases > 0) {
        wl = workloads::WorkloadProfile(name, klass, std::move(phases),
                                        scal);
    } else if (name.empty()) {
        wl = workloads::WorkloadProfile();
    } else {
        // A named profile cannot have zero phases (the constructor
        // would be fatal).
        throw std::invalid_argument(
            "spec codec: workload with zero phases");
    }
}

/**
 * Walk @p spec. The canonical walk skips the presentation-only
 * fields (id, labels, pinned-op-point name), which spec equality
 * ignores too; a loading walk is never canonical and fills a
 * default-constructed spec.
 */
void
visit(StateIO &io, ExperimentSpec &spec, bool canonical)
{
    if (!canonical)
        io.field("id", spec.id);
    io.field("governor", spec.governor);
    // Parameters feed the governor's constructor, so they are part
    // of the canonical (hashed) form, order included.
    std::uint64_t n_params = spec.governorParams.size();
    io.field("governor_params", n_params);
    for (std::size_t i = 0; i < n_params; ++i) {
        std::string kv;
        if (!io.loading()) {
            const auto &param = spec.governorParams[i];
            kv = param.first + "=" + param.second;
        }
        io.field("governor_param." + std::to_string(i), kv);
        if (!io.loading())
            continue;
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                "spec codec: malformed governor parameter \"" + kv +
                "\"");
        spec.governorParams.emplace_back(kv.substr(0, eq),
                                         kv.substr(eq + 1));
    }
    io.field("seed", spec.seed);
    io.field("warmup", spec.warmup);
    io.field("window", spec.window);
    io.field("hd_panel", spec.hdPanel);
    io.field("camera", spec.camera);
    io.field("pinned_core_freq", Decimal{spec.pinnedCoreFreq});
    io.field("pinned_unoptimized_mrc", spec.pinnedUnoptimizedMrc);
    bool pinned = spec.pinnedOpPoint.has_value();
    io.field("pinned_op_point", pinned);
    if (pinned) {
        if (io.loading())
            spec.pinnedOpPoint.emplace();
        soc::OperatingPoint &op = *spec.pinnedOpPoint;
        // The point's name is presentation, like the cell id:
        // OperatingPoint::operator== ignores it, so the canonical
        // (hashed) form must too or equal specs would get
        // different cache keys.
        if (!canonical)
            io.field("pinned_op.name", op.name);
        io.field("pinned_op.dram_bin", op.dramBin);
        io.field("pinned_op.fabric_freq", Decimal{op.fabricFreq});
        io.field("pinned_op.v_sa", Decimal{op.vSa});
        io.field("pinned_op.v_io", Decimal{op.vIo});
        io.field("pinned_op.mrc_trained_bin", op.mrcTrainedBin);
    }

    soc::SocConfig &cfg = spec.soc;
    io.field("soc.name", cfg.name);
    io.field("soc.cores", cfg.cores);
    io.field("soc.threads_per_core", cfg.threadsPerCore);
    io.field("soc.core_base_freq", Decimal{cfg.coreBaseFreq});
    io.field("soc.gfx_base_freq", Decimal{cfg.gfxBaseFreq});
    io.field("soc.llc_bytes", cfg.llcBytes);
    io.field("soc.tdp", Decimal{cfg.tdp});
    io.field("soc.pbm_reserve", Decimal{cfg.pbmReserve});
    io.field("soc.budget_utilization", Decimal{cfg.budgetUtilization});
    io.field("soc.v_sa_boot", Decimal{cfg.vSaBoot});
    io.field("soc.v_io_boot", Decimal{cfg.vIoBoot});
    io.field("soc.vddq", Decimal{cfg.vddq});
    io.field("soc.vr_slew_rate", Decimal{cfg.vrSlewRate});
    io.field("soc.platform_floor", Decimal{cfg.platformFloor});
    io.field("soc.core_cdyn", Decimal{cfg.coreCdyn});
    io.field("soc.core_leak_k", Decimal{cfg.coreLeakK});
    io.field("soc.gfx_cdyn", Decimal{cfg.gfxCdyn});
    io.field("soc.gfx_leak_k", Decimal{cfg.gfxLeakK});
    io.field("soc.temperature", Decimal{cfg.temperature});
    io.field("soc.pstate_steps", cfg.pstateSteps);
    io.field("soc.fabric_freq_high", Decimal{cfg.fabricFreqHigh});
    io.field("soc.fabric_freq_low", Decimal{cfg.fabricFreqLow});
    io.field("soc.evaluation_interval", cfg.evaluationInterval);
    io.field("soc.sample_interval", cfg.sampleInterval);
    io.field("soc.step_interval", cfg.stepInterval);

    // DramSpec is immutable: the walk visits locals, and a loading
    // walk builds the spec once they are all read.
    const dram::DramSpec &dspec = cfg.dramSpec;
    dram::DramType type = dspec.type();
    std::vector<double> rates;
    for (std::size_t i = 0; i < dspec.numBins(); ++i)
        rates.push_back(dspec.bin(i).dataRateMTs);
    std::uint64_t channels = dspec.channels();
    std::uint64_t bytes_per_channel = dspec.bytesPerChannel();
    std::uint64_t ranks = dspec.ranksPerChannel();
    std::uint64_t devices = dspec.devicesPerRank();
    std::uint64_t banks = dspec.banks();
    io.field("soc.dram.type", type,
             {dram::DramType::LPDDR3, dram::DramType::DDR4},
             dram::dramTypeName);
    io.field("soc.dram.bins", rates, 0);
    io.field("soc.dram.channels", channels);
    io.field("soc.dram.bytes_per_channel", bytes_per_channel);
    io.field("soc.dram.ranks_per_channel", ranks);
    io.field("soc.dram.devices_per_rank", devices);
    io.field("soc.dram.banks", banks);
    if (io.loading()) {
        // DramSpec's own checks are fatal (process exit); mirror
        // them as throws so a corrupt document cannot take the
        // process down.
        if (rates.empty() || channels == 0 || bytes_per_channel == 0 ||
            ranks == 0 || devices == 0 || banks == 0) {
            throw std::invalid_argument(
                "spec codec: degenerate DRAM geometry");
        }
        std::vector<dram::FreqBin> bins;
        for (const double rate : rates)
            bins.push_back(dram::FreqBin{rate});
        cfg.dramSpec = dram::DramSpec(type, std::move(bins), channels,
                                      bytes_per_channel, ranks, devices,
                                      banks);
    }

    visit(io, spec.workload, "workload.", "phase.");

    workloads::Scenario &sc = spec.scenario;
    std::uint64_t n_layers = sc.layers.size();
    io.field("scenario.layers", n_layers);
    for (std::size_t i = 0; i < n_layers; ++i) {
        const std::string pre =
            "scenario.layer." + std::to_string(i) + ".";
        if (io.loading())
            sc.layers.emplace_back();
        workloads::ScenarioLayer &layer = sc.layers[i];
        io.field(pre + "start", layer.start);
        io.field(pre + "stop", layer.stop);
        visit(io, layer.profile, pre, pre + "phase.");
        // Only the base workload may be the phase-less placeholder.
        if (io.loading() && layer.profile.numPhases() == 0)
            throw std::invalid_argument(
                "spec codec: workload with zero phases");
    }
    std::uint64_t n_actions = sc.actions.size();
    io.field("scenario.actions", n_actions);
    for (std::size_t i = 0; i < n_actions; ++i) {
        // One line: "<at> <kind> <value>".
        std::string text;
        if (!io.loading()) {
            const workloads::ScenarioAction &a = sc.actions[i];
            text = std::to_string(a.at) + " " +
                   workloads::scenarioActionName(a.kind) + " " +
                   formatDouble(a.value);
        }
        io.field("scenario.action." + std::to_string(i), text);
        if (!io.loading())
            continue;
        const std::size_t sp1 = text.find(' ');
        const std::size_t sp2 = sp1 == std::string::npos
                                    ? sp1
                                    : text.find(' ', sp1 + 1);
        if (sp2 == std::string::npos ||
            text.find(' ', sp2 + 1) != std::string::npos)
            throw std::invalid_argument(
                "spec codec: malformed scenario action");
        workloads::ScenarioAction a;
        const std::string at = text.substr(0, sp1);
        char *end = nullptr;
        a.at = std::strtoull(at.c_str(), &end, 10);
        if (at.empty() || at[0] < '0' || at[0] > '9' ||
            end != at.c_str() + at.size())
            throw std::invalid_argument(
                "spec codec: bad scenario action time");
        const std::string kind = text.substr(sp1 + 1, sp2 - sp1 - 1);
        const auto &kinds = workloads::kAllScenarioActionKinds;
        const auto k = std::find_if(
            kinds.begin(), kinds.end(), [&kind](const auto c) {
                return kind == workloads::scenarioActionName(c);
            });
        if (k == kinds.end())
            throw std::invalid_argument(
                "spec codec: unknown scenario action \"" + kind + "\"");
        a.kind = *k;
        a.value = parseDouble(text.substr(sp2 + 1));
        sc.actions.push_back(a);
    }
    // validateScenario throws on the values the runtime would treat
    // as fatal (unsorted actions, non-positive TDP steps, inverted
    // layer windows), so a corrupt cache entry misses instead of
    // taking the process down.
    if (io.loading())
        workloads::validateScenario(sc);

    if (canonical)
        return;
    std::uint64_t n_labels = spec.labels.size();
    io.field("labels", n_labels);
    for (std::size_t i = 0; i < n_labels; ++i) {
        const std::string pre = "label." + std::to_string(i) + ".";
        if (io.loading())
            spec.labels.emplace_back();
        io.field(pre + "key", spec.labels[i].first);
        io.field(pre + "value", spec.labels[i].second);
    }
}

/** One saving walk; the header (and so the version) is hashed. */
std::string
serializeImpl(const ExperimentSpec &spec, bool canonical)
{
    SnapshotWriter w(specHeader());
    StateIO io(w);
    visit(io, const_cast<ExperimentSpec &>(spec), canonical);
    return w.str();
}

} // anonymous namespace

std::string
serializeSpec(const ExperimentSpec &spec)
{
    return serializeImpl(spec, /*canonical=*/false);
}

std::string
canonicalSpec(const ExperimentSpec &spec)
{
    return serializeImpl(spec, /*canonical=*/true);
}

std::string
specKey(const ExperimentSpec &spec)
{
    return specKeyForCanonical(canonicalSpec(spec));
}

std::string
specKeyForCanonical(std::string_view canonical)
{
    // The checksum covers exactly the canonical text above its line.
    const std::size_t at = canonical.rfind("checksum = ");
    return std::string(canonical.substr(at + 11, 16));
}

ExperimentSpec
parseSpec(const std::string &text)
{
    try {
        SnapshotReader r(text, specHeader());
        StateIO io(r);
        ExperimentSpec spec;
        visit(io, spec, /*canonical=*/false);
        r.finish();
        return spec;
    } catch (const SnapshotError &e) {
        throw std::invalid_argument(std::string("spec codec: ") +
                                    e.what());
    }
}

} // namespace exp
} // namespace sysscale
