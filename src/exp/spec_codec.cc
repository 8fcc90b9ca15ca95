#include "exp/spec_codec.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "compute/cstates.hh"
#include "dram/spec.hh"
#include "exp/report.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace exp {

namespace {

std::string
specHeader()
{
    return "sysscale-spec v" + std::to_string(kSpecFormatVersion);
}

/** Numbers are formatDouble() text (report.hh), not bit patterns. */
void
putNum(SnapshotWriter &w, const std::string &key, double v)
{
    w.putString(key, formatDouble(v));
}

double
getNum(SnapshotReader &r, const std::string &key)
{
    return parseDouble(r.getString(key));
}

/** The space-separated formatDouble() text of @p values. */
std::string
numList(const std::vector<double> &values)
{
    std::string out;
    for (const double v : values) {
        if (!out.empty())
            out += ' ';
        out += formatDouble(v);
    }
    return out;
}

/** @p text split at single spaces; "" has no fields. */
std::vector<std::string>
splitFields(const std::string &text)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < text.size();) {
        const std::size_t j = std::min(text.find(' ', i), text.size());
        out.push_back(text.substr(i, j - i));
        i = j + 1;
    }
    return out;
}

/** Invert numList(); @p arity 0 accepts any length. */
std::vector<double>
getNumList(SnapshotReader &r, const std::string &key, std::size_t arity)
{
    std::vector<double> out;
    for (const std::string &field : splitFields(r.getString(key)))
        out.push_back(parseDouble(field));
    if (arity != 0 && out.size() != arity)
        throw std::invalid_argument("spec codec: wrong arity for \"" +
                                    key + "\"");
    return out;
}

workloads::WorkloadClass
workloadClassFromToken(const std::string &token)
{
    using workloads::WorkloadClass;
    for (const WorkloadClass c :
         {WorkloadClass::CpuSingleThread, WorkloadClass::CpuMultiThread,
          WorkloadClass::Graphics, WorkloadClass::BatteryLife,
          WorkloadClass::Micro}) {
        if (token == workloads::workloadClassName(c))
            return c;
    }
    throw std::invalid_argument(
        "spec codec: unknown workload class \"" + token + "\"");
}

dram::DramType
dramTypeFromToken(const std::string &token)
{
    for (const dram::DramType t :
         {dram::DramType::LPDDR3, dram::DramType::DDR4}) {
        if (token == dram::dramTypeName(t))
            return t;
    }
    throw std::invalid_argument(
        "spec codec: unknown DRAM type \"" + token + "\"");
}

/** Emit @p wl under @p key_prefix, its phases under @p phase_prefix. */
void
writeProfile(SnapshotWriter &w, const std::string &key_prefix,
             const std::string &phase_prefix,
             const workloads::WorkloadProfile &wl)
{
    w.putString(key_prefix + "name", wl.name());
    w.putString(key_prefix + "class",
                workloads::workloadClassName(wl.klass()));
    putNum(w, key_prefix + "perf_scalability", wl.perfScalability());
    w.putU64(key_prefix + "phases", wl.numPhases());
    for (std::size_t i = 0; i < wl.numPhases(); ++i) {
        const workloads::Phase &p = wl.phase(i);
        const std::string pre = phase_prefix + std::to_string(i) + ".";
        w.putU64(pre + "duration", p.duration);
        w.putU64(pre + "active_threads", p.activeThreads);
        putNum(w, pre + "io_best_effort", p.ioBestEffort);
        putNum(w, pre + "core_freq_request", p.coreFreqRequest);
        putNum(w, pre + "gfx_freq_request", p.gfxFreqRequest);
        w.putString(pre + "work",
                    numList({p.work.cpiBase, p.work.mpki,
                             p.work.blockingFactor, p.work.bytesPerInstr,
                             p.work.activity}));
        w.putString(pre + "gfx",
                    numList({p.gfxWork.cyclesPerFrame,
                             p.gfxWork.bytesPerFrame,
                             p.gfxWork.targetFps, p.gfxWork.activity}));
        std::vector<double> res;
        for (const compute::CState c : compute::kAllCStates)
            res.push_back(p.residency.fraction(c));
        w.putString(pre + "residency", numList(res));
    }
}

/**
 * Invert writeProfile(). @p allow_empty permits the zero-phase
 * default-constructed placeholder (legal only for the base
 * workload); scenario layers must always carry a real profile.
 */
workloads::WorkloadProfile
readProfile(SnapshotReader &r, const std::string &key_prefix,
            const std::string &phase_prefix, bool allow_empty)
{
    const std::string name = r.getString(key_prefix + "name");
    const workloads::WorkloadClass klass =
        workloadClassFromToken(r.getString(key_prefix + "class"));
    const double scal = getNum(r, key_prefix + "perf_scalability");
    const std::size_t n_phases = r.getU64(key_prefix + "phases");
    // Negated comparison so NaN (which fails every <=) also throws.
    if (!(scal >= 0.0 && scal <= 1.0))
        throw std::invalid_argument(
            "spec codec: perf scalability out of [0,1]");
    std::vector<workloads::Phase> phases;
    for (std::size_t i = 0; i < n_phases; ++i) {
        const std::string pre = phase_prefix + std::to_string(i) + ".";
        workloads::Phase p;
        p.duration = r.getU64(pre + "duration");
        // WorkloadProfile's zero-length-phase check is fatal; throw.
        if (p.duration == 0)
            throw std::invalid_argument(
                "spec codec: zero-length phase");
        p.activeThreads = r.getU64(pre + "active_threads");
        p.ioBestEffort = getNum(r, pre + "io_best_effort");
        p.coreFreqRequest = getNum(r, pre + "core_freq_request");
        p.gfxFreqRequest = getNum(r, pre + "gfx_freq_request");
        const std::vector<double> work = getNumList(r, pre + "work", 5);
        p.work.cpiBase = work[0];
        p.work.mpki = work[1];
        p.work.blockingFactor = work[2];
        p.work.bytesPerInstr = work[3];
        p.work.activity = work[4];
        const std::vector<double> gfx = getNumList(r, pre + "gfx", 4);
        p.gfxWork.cyclesPerFrame = gfx[0];
        p.gfxWork.bytesPerFrame = gfx[1];
        p.gfxWork.targetFps = gfx[2];
        p.gfxWork.activity = gfx[3];
        const std::vector<double> res =
            getNumList(r, pre + "residency", compute::kNumCStates);
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
        phases.push_back(std::move(p));
    }
    if (n_phases > 0) {
        return workloads::WorkloadProfile(name, klass,
                                          std::move(phases), scal);
    }
    if (!name.empty() || !allow_empty) {
        // A named profile cannot have zero phases (the constructor
        // would be fatal); only the default-constructed placeholder
        // base workload round-trips through this branch.
        throw std::invalid_argument(
            "spec codec: workload with zero phases");
    }
    return workloads::WorkloadProfile();
}

workloads::ScenarioActionKind
scenarioActionFromToken(const std::string &token)
{
    for (const auto k : workloads::kAllScenarioActionKinds) {
        if (token == workloads::scenarioActionName(k))
            return k;
    }
    throw std::invalid_argument(
        "spec codec: unknown scenario action \"" + token + "\"");
}

std::string
serializeImpl(const ExperimentSpec &spec, bool canonical)
{
    // The header is part of the checksummed text, so the version
    // participates in the key.
    SnapshotWriter w(specHeader());
    if (!canonical)
        w.putString("id", spec.id);
    w.putString("governor", spec.governor);
    // Parameters feed the governor's constructor, so they are part
    // of the canonical (hashed) form, order included.
    w.putU64("governor_params", spec.governorParams.size());
    for (std::size_t i = 0; i < spec.governorParams.size(); ++i) {
        const auto &kv = spec.governorParams[i];
        w.putString("governor_param." + std::to_string(i),
                    kv.first + "=" + kv.second);
    }
    w.putU64("seed", spec.seed);
    w.putU64("warmup", spec.warmup);
    w.putU64("window", spec.window);
    w.putBool("hd_panel", spec.hdPanel);
    w.putBool("camera", spec.camera);
    putNum(w, "pinned_core_freq", spec.pinnedCoreFreq);
    w.putBool("pinned_unoptimized_mrc", spec.pinnedUnoptimizedMrc);
    w.putBool("pinned_op_point", spec.pinnedOpPoint.has_value());
    if (spec.pinnedOpPoint) {
        const soc::OperatingPoint &op = *spec.pinnedOpPoint;
        // The point's name is presentation, like the cell id:
        // OperatingPoint::operator== ignores it, so the canonical
        // (hashed) form must too or equal specs would get
        // different cache keys.
        if (!canonical)
            w.putString("pinned_op.name", op.name);
        w.putU64("pinned_op.dram_bin", op.dramBin);
        putNum(w, "pinned_op.fabric_freq", op.fabricFreq);
        putNum(w, "pinned_op.v_sa", op.vSa);
        putNum(w, "pinned_op.v_io", op.vIo);
        w.putU64("pinned_op.mrc_trained_bin", op.mrcTrainedBin);
    }

    const soc::SocConfig &cfg = spec.soc;
    w.putString("soc.name", cfg.name);
    w.putU64("soc.cores", cfg.cores);
    w.putU64("soc.threads_per_core", cfg.threadsPerCore);
    putNum(w, "soc.core_base_freq", cfg.coreBaseFreq);
    putNum(w, "soc.gfx_base_freq", cfg.gfxBaseFreq);
    w.putU64("soc.llc_bytes", cfg.llcBytes);
    putNum(w, "soc.tdp", cfg.tdp);
    putNum(w, "soc.pbm_reserve", cfg.pbmReserve);
    putNum(w, "soc.budget_utilization", cfg.budgetUtilization);
    putNum(w, "soc.v_sa_boot", cfg.vSaBoot);
    putNum(w, "soc.v_io_boot", cfg.vIoBoot);
    putNum(w, "soc.vddq", cfg.vddq);
    putNum(w, "soc.vr_slew_rate", cfg.vrSlewRate);
    putNum(w, "soc.platform_floor", cfg.platformFloor);
    putNum(w, "soc.core_cdyn", cfg.coreCdyn);
    putNum(w, "soc.core_leak_k", cfg.coreLeakK);
    putNum(w, "soc.gfx_cdyn", cfg.gfxCdyn);
    putNum(w, "soc.gfx_leak_k", cfg.gfxLeakK);
    putNum(w, "soc.temperature", cfg.temperature);
    w.putU64("soc.pstate_steps", cfg.pstateSteps);
    putNum(w, "soc.fabric_freq_high", cfg.fabricFreqHigh);
    putNum(w, "soc.fabric_freq_low", cfg.fabricFreqLow);
    w.putU64("soc.evaluation_interval", cfg.evaluationInterval);
    w.putU64("soc.sample_interval", cfg.sampleInterval);
    w.putU64("soc.step_interval", cfg.stepInterval);

    const dram::DramSpec &dspec = cfg.dramSpec;
    w.putString("soc.dram.type", dram::dramTypeName(dspec.type()));
    std::vector<double> bins;
    for (std::size_t i = 0; i < dspec.numBins(); ++i)
        bins.push_back(dspec.bin(i).dataRateMTs);
    w.putString("soc.dram.bins", numList(bins));
    w.putU64("soc.dram.channels", dspec.channels());
    w.putU64("soc.dram.bytes_per_channel", dspec.bytesPerChannel());
    w.putU64("soc.dram.ranks_per_channel", dspec.ranksPerChannel());
    w.putU64("soc.dram.devices_per_rank", dspec.devicesPerRank());
    w.putU64("soc.dram.banks", dspec.banks());

    writeProfile(w, "workload.", "phase.", spec.workload);

    const workloads::Scenario &sc = spec.scenario;
    w.putU64("scenario.layers", sc.layers.size());
    for (std::size_t i = 0; i < sc.layers.size(); ++i) {
        const workloads::ScenarioLayer &layer = sc.layers[i];
        const std::string pre =
            "scenario.layer." + std::to_string(i) + ".";
        w.putU64(pre + "start", layer.start);
        w.putU64(pre + "stop", layer.stop);
        writeProfile(w, pre, pre + "phase.", layer.profile);
    }
    w.putU64("scenario.actions", sc.actions.size());
    for (std::size_t i = 0; i < sc.actions.size(); ++i) {
        const workloads::ScenarioAction &a = sc.actions[i];
        w.putString("scenario.action." + std::to_string(i),
                    std::to_string(a.at) + " " +
                        workloads::scenarioActionName(a.kind) + " " +
                        formatDouble(a.value));
    }

    if (!canonical) {
        w.putU64("labels", spec.labels.size());
        for (std::size_t i = 0; i < spec.labels.size(); ++i) {
            const std::string pre = "label." + std::to_string(i) + ".";
            w.putString(pre + "key", spec.labels[i].first);
            w.putString(pre + "value", spec.labels[i].second);
        }
    }

    return w.str();
}

/** Invert serializeImpl(); the caller owns the reader's finish(). */
ExperimentSpec
readSpec(SnapshotReader &r)
{
    ExperimentSpec spec;

    spec.id = r.getString("id");
    spec.governor = r.getString("governor");
    const std::size_t n_params = r.getU64("governor_params");
    for (std::size_t i = 0; i < n_params; ++i) {
        const std::string kv =
            r.getString("governor_param." + std::to_string(i));
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                "spec codec: malformed governor parameter \"" + kv +
                "\"");
        spec.governorParams.emplace_back(kv.substr(0, eq),
                                         kv.substr(eq + 1));
    }
    spec.seed = r.getU64("seed");
    spec.warmup = r.getU64("warmup");
    spec.window = r.getU64("window");
    spec.hdPanel = r.getBool("hd_panel");
    spec.camera = r.getBool("camera");
    spec.pinnedCoreFreq = getNum(r, "pinned_core_freq");
    spec.pinnedUnoptimizedMrc = r.getBool("pinned_unoptimized_mrc");
    if (r.getBool("pinned_op_point")) {
        soc::OperatingPoint op;
        op.name = r.getString("pinned_op.name");
        op.dramBin = r.getU64("pinned_op.dram_bin");
        op.fabricFreq = getNum(r, "pinned_op.fabric_freq");
        op.vSa = getNum(r, "pinned_op.v_sa");
        op.vIo = getNum(r, "pinned_op.v_io");
        op.mrcTrainedBin = r.getU64("pinned_op.mrc_trained_bin");
        spec.pinnedOpPoint = op;
    }

    soc::SocConfig &cfg = spec.soc;
    cfg.name = r.getString("soc.name");
    cfg.cores = r.getU64("soc.cores");
    cfg.threadsPerCore = r.getU64("soc.threads_per_core");
    cfg.coreBaseFreq = getNum(r, "soc.core_base_freq");
    cfg.gfxBaseFreq = getNum(r, "soc.gfx_base_freq");
    cfg.llcBytes = r.getU64("soc.llc_bytes");
    cfg.tdp = getNum(r, "soc.tdp");
    cfg.pbmReserve = getNum(r, "soc.pbm_reserve");
    cfg.budgetUtilization = getNum(r, "soc.budget_utilization");
    cfg.vSaBoot = getNum(r, "soc.v_sa_boot");
    cfg.vIoBoot = getNum(r, "soc.v_io_boot");
    cfg.vddq = getNum(r, "soc.vddq");
    cfg.vrSlewRate = getNum(r, "soc.vr_slew_rate");
    cfg.platformFloor = getNum(r, "soc.platform_floor");
    cfg.coreCdyn = getNum(r, "soc.core_cdyn");
    cfg.coreLeakK = getNum(r, "soc.core_leak_k");
    cfg.gfxCdyn = getNum(r, "soc.gfx_cdyn");
    cfg.gfxLeakK = getNum(r, "soc.gfx_leak_k");
    cfg.temperature = getNum(r, "soc.temperature");
    cfg.pstateSteps = r.getU64("soc.pstate_steps");
    cfg.fabricFreqHigh = getNum(r, "soc.fabric_freq_high");
    cfg.fabricFreqLow = getNum(r, "soc.fabric_freq_low");
    cfg.evaluationInterval = r.getU64("soc.evaluation_interval");
    cfg.sampleInterval = r.getU64("soc.sample_interval");
    cfg.stepInterval = r.getU64("soc.step_interval");

    const dram::DramType dtype =
        dramTypeFromToken(r.getString("soc.dram.type"));
    const std::vector<double> rates =
        getNumList(r, "soc.dram.bins", 0);
    const std::size_t channels = r.getU64("soc.dram.channels");
    const std::size_t bytes_per_channel =
        r.getU64("soc.dram.bytes_per_channel");
    const std::size_t ranks = r.getU64("soc.dram.ranks_per_channel");
    const std::size_t devices = r.getU64("soc.dram.devices_per_rank");
    const std::size_t banks = r.getU64("soc.dram.banks");
    // DramSpec's own checks are fatal (process exit); mirror them as
    // throws so a corrupt document cannot take the process down.
    if (rates.empty() || channels == 0 || bytes_per_channel == 0 ||
        ranks == 0 || devices == 0 || banks == 0) {
        throw std::invalid_argument(
            "spec codec: degenerate DRAM geometry");
    }
    std::vector<dram::FreqBin> bins;
    for (const double rate : rates)
        bins.push_back(dram::FreqBin{rate});
    cfg.dramSpec = dram::DramSpec(dtype, std::move(bins), channels,
                                  bytes_per_channel, ranks, devices,
                                  banks);

    spec.workload =
        readProfile(r, "workload.", "phase.", /*allow_empty=*/true);

    const std::size_t n_layers = r.getU64("scenario.layers");
    for (std::size_t i = 0; i < n_layers; ++i) {
        const std::string pre =
            "scenario.layer." + std::to_string(i) + ".";
        workloads::ScenarioLayer layer;
        layer.start = r.getU64(pre + "start");
        layer.stop = r.getU64(pre + "stop");
        layer.profile =
            readProfile(r, pre, pre + "phase.", /*allow_empty=*/false);
        spec.scenario.layers.push_back(std::move(layer));
    }
    const std::size_t n_actions = r.getU64("scenario.actions");
    for (std::size_t i = 0; i < n_actions; ++i) {
        const std::vector<std::string> f = splitFields(
            r.getString("scenario.action." + std::to_string(i)));
        if (f.size() != 3)
            throw std::invalid_argument(
                "spec codec: malformed scenario action");
        workloads::ScenarioAction a;
        char *end = nullptr;
        a.at = std::strtoull(f[0].c_str(), &end, 10);
        if (f[0][0] < '0' || f[0][0] > '9' ||
            end != f[0].c_str() + f[0].size())
            throw std::invalid_argument(
                "spec codec: bad scenario action time");
        a.kind = scenarioActionFromToken(f[1]);
        a.value = parseDouble(f[2]);
        spec.scenario.actions.push_back(a);
    }
    // validateScenario throws on the values the runtime would treat
    // as fatal (unsorted actions, non-positive TDP steps, inverted
    // layer windows), so a corrupt cache entry misses instead of
    // taking the process down.
    workloads::validateScenario(spec.scenario);

    const std::size_t n_labels = r.getU64("labels");
    for (std::size_t i = 0; i < n_labels; ++i) {
        const std::string pre = "label." + std::to_string(i) + ".";
        spec.labels.emplace_back(r.getString(pre + "key"),
                                 r.getString(pre + "value"));
    }

    return spec;
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
        ExperimentSpec spec = readSpec(r);
        r.finish();
        return spec;
    } catch (const SnapshotError &e) {
        throw std::invalid_argument(std::string("spec codec: ") +
                                    e.what());
    }
}

} // namespace exp
} // namespace sysscale
