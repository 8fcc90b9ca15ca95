#include "exp/spec_codec.hh"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "compute/cstates.hh"
#include "dram/spec.hh"
#include "exp/report.hh"

namespace sysscale {
namespace exp {

namespace {

/**
 * The shared round-trip number format (report.hh): "%.17g" survives
 * strtod exactly, and writer/reader cannot drift apart.
 */
std::string
num(double v)
{
    return formatDouble(v);
}

/** Keep string values single-line: escape backslash, LF, CR. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (i + 1 >= s.size())
            throw std::invalid_argument(
                "spec codec: dangling escape in string value");
        switch (s[++i]) {
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          default:
            throw std::invalid_argument(
                "spec codec: unknown escape in string value");
        }
    }
    return out;
}

const char *
workloadClassToken(workloads::WorkloadClass c)
{
    return workloads::workloadClassName(c);
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

/** Emitter holding the growing document. */
class Writer
{
  public:
    void
    put(const std::string &key, const std::string &value)
    {
        text_ += key + " = " + value + "\n";
    }

    void putStr(const std::string &key, const std::string &v)
    {
        put(key, escape(v));
    }

    void putNum(const std::string &key, double v) { put(key, num(v)); }

    void
    putU64(const std::string &key, std::uint64_t v)
    {
        put(key, std::to_string(v));
    }

    void
    putBool(const std::string &key, bool v)
    {
        put(key, v ? "1" : "0");
    }

    std::string take() { return std::move(text_); }

  private:
    std::string text_;
};

/** Parsed key/value view with strict consumption tracking. */
class Reader
{
  public:
    explicit Reader(const std::string &text)
    {
        std::istringstream is(text);
        std::string line;
        if (!std::getline(is, line) ||
            line != "sysscale-spec v" +
                        std::to_string(kSpecFormatVersion)) {
            throw std::invalid_argument(
                "spec codec: missing or unsupported version header");
        }
        while (std::getline(is, line)) {
            if (line.empty())
                continue;
            const std::size_t sep = line.find(" = ");
            if (sep == std::string::npos)
                throw std::invalid_argument(
                    "spec codec: malformed line \"" + line + "\"");
            const std::string key = line.substr(0, sep);
            if (!fields_.emplace(key, line.substr(sep + 3)).second)
                throw std::invalid_argument(
                    "spec codec: duplicate key \"" + key + "\"");
        }
    }

    const std::string &
    get(const std::string &key)
    {
        const auto it = fields_.find(key);
        if (it == fields_.end())
            throw std::invalid_argument(
                "spec codec: missing key \"" + key + "\"");
        consumed_.insert(key);
        return it->second;
    }

    std::string getStr(const std::string &key)
    {
        return unescape(get(key));
    }

    double
    getNum(const std::string &key)
    {
        const std::string &v = get(key);
        char *end = nullptr;
        const double d = std::strtod(v.c_str(), &end);
        if (end != v.c_str() + v.size() || v.empty())
            throw std::invalid_argument(
                "spec codec: bad number for \"" + key + "\"");
        return d;
    }

    std::uint64_t
    getU64(const std::string &key)
    {
        const std::string &v = get(key);
        // strtoull silently wraps negatives ("-1" -> 2^64-1), so
        // insist on a leading digit.
        if (v.empty() || v[0] < '0' || v[0] > '9')
            throw std::invalid_argument(
                "spec codec: bad integer for \"" + key + "\"");
        char *end = nullptr;
        const std::uint64_t u = std::strtoull(v.c_str(), &end, 10);
        if (end != v.c_str() + v.size())
            throw std::invalid_argument(
                "spec codec: bad integer for \"" + key + "\"");
        return u;
    }

    std::size_t
    getSize(const std::string &key)
    {
        return static_cast<std::size_t>(getU64(key));
    }

    bool
    getBool(const std::string &key)
    {
        const std::string &v = get(key);
        if (v == "1")
            return true;
        if (v == "0")
            return false;
        throw std::invalid_argument(
            "spec codec: bad boolean for \"" + key + "\"");
    }

    /** Fixed-arity space-separated double list. */
    std::vector<double>
    getNumList(const std::string &key, std::size_t arity)
    {
        std::istringstream is(get(key));
        std::vector<double> out;
        std::string token;
        while (is >> token) {
            char *end = nullptr;
            out.push_back(std::strtod(token.c_str(), &end));
            if (end != token.c_str() + token.size())
                throw std::invalid_argument(
                    "spec codec: bad number list for \"" + key +
                    "\"");
        }
        if (arity != 0 && out.size() != arity)
            throw std::invalid_argument(
                "spec codec: wrong arity for \"" + key + "\"");
        return out;
    }

    void
    finish() const
    {
        for (const auto &kv : fields_) {
            if (!consumed_.count(kv.first))
                throw std::invalid_argument(
                    "spec codec: unknown key \"" + kv.first + "\"");
        }
    }

  private:
    std::map<std::string, std::string> fields_;
    std::set<std::string> consumed_;
};

/** Emit @p wl under @p key_prefix, its phases under @p phase_prefix. */
void
writeProfile(Writer &body, const std::string &key_prefix,
             const std::string &phase_prefix,
             const workloads::WorkloadProfile &wl)
{
    body.putStr(key_prefix + "name", wl.name());
    body.put(key_prefix + "class", workloadClassToken(wl.klass()));
    body.putNum(key_prefix + "perf_scalability",
                wl.perfScalability());
    body.putU64(key_prefix + "phases", wl.numPhases());
    for (std::size_t i = 0; i < wl.numPhases(); ++i) {
        const workloads::Phase &p = wl.phase(i);
        const std::string pre = phase_prefix + std::to_string(i) + ".";
        body.putU64(pre + "duration", p.duration);
        body.putU64(pre + "active_threads", p.activeThreads);
        body.putNum(pre + "io_best_effort", p.ioBestEffort);
        body.putNum(pre + "core_freq_request", p.coreFreqRequest);
        body.putNum(pre + "gfx_freq_request", p.gfxFreqRequest);
        body.put(pre + "work",
                 num(p.work.cpiBase) + " " + num(p.work.mpki) + " " +
                     num(p.work.blockingFactor) + " " +
                     num(p.work.bytesPerInstr) + " " +
                     num(p.work.activity));
        body.put(pre + "gfx",
                 num(p.gfxWork.cyclesPerFrame) + " " +
                     num(p.gfxWork.bytesPerFrame) + " " +
                     num(p.gfxWork.targetFps) + " " +
                     num(p.gfxWork.activity));
        std::string res;
        for (const compute::CState c : compute::kAllCStates) {
            if (!res.empty())
                res += " ";
            res += num(p.residency.fraction(c));
        }
        body.put(pre + "residency", res);
    }
}

/**
 * Invert writeProfile(). @p allow_empty permits the zero-phase
 * default-constructed placeholder (legal only for the base
 * workload); scenario layers must always carry a real profile.
 */
workloads::WorkloadProfile
readProfile(Reader &r, const std::string &key_prefix,
            const std::string &phase_prefix, bool allow_empty)
{
    const std::string name = r.getStr(key_prefix + "name");
    const workloads::WorkloadClass klass =
        workloadClassFromToken(r.get(key_prefix + "class"));
    const double scal = r.getNum(key_prefix + "perf_scalability");
    const std::size_t n_phases = r.getSize(key_prefix + "phases");
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
        p.activeThreads = r.getSize(pre + "active_threads");
        p.ioBestEffort = r.getNum(pre + "io_best_effort");
        p.coreFreqRequest = r.getNum(pre + "core_freq_request");
        p.gfxFreqRequest = r.getNum(pre + "gfx_freq_request");
        const std::vector<double> work =
            r.getNumList(pre + "work", 5);
        p.work.cpiBase = work[0];
        p.work.mpki = work[1];
        p.work.blockingFactor = work[2];
        p.work.bytesPerInstr = work[3];
        p.work.activity = work[4];
        const std::vector<double> gfx = r.getNumList(pre + "gfx", 4);
        p.gfxWork.cyclesPerFrame = gfx[0];
        p.gfxWork.bytesPerFrame = gfx[1];
        p.gfxWork.targetFps = gfx[2];
        p.gfxWork.activity = gfx[3];
        const std::vector<double> res =
            r.getNumList(pre + "residency", compute::kNumCStates);
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
    // Header first: the version participates in the hashed text.
    const std::string doc =
        "sysscale-spec v" + std::to_string(kSpecFormatVersion) + "\n";

    Writer body;
    if (!canonical)
        body.putStr("id", spec.id);
    body.putStr("governor", spec.governor);
    // Parameters feed the governor's constructor, so they are part
    // of the canonical (hashed) form, order included.
    body.putU64("governor_params", spec.governorParams.size());
    for (std::size_t i = 0; i < spec.governorParams.size(); ++i) {
        const auto &kv = spec.governorParams[i];
        body.putStr("governor_param." + std::to_string(i),
                    kv.first + "=" + kv.second);
    }
    body.putU64("seed", spec.seed);
    body.putU64("warmup", spec.warmup);
    body.putU64("window", spec.window);
    body.putBool("hd_panel", spec.hdPanel);
    body.putBool("camera", spec.camera);
    body.putNum("pinned_core_freq", spec.pinnedCoreFreq);
    body.putBool("pinned_unoptimized_mrc", spec.pinnedUnoptimizedMrc);
    body.putBool("pinned_op_point", spec.pinnedOpPoint.has_value());
    if (spec.pinnedOpPoint) {
        const soc::OperatingPoint &op = *spec.pinnedOpPoint;
        // The point's name is presentation, like the cell id:
        // OperatingPoint::operator== ignores it, so the canonical
        // (hashed) form must too or equal specs would get
        // different cache keys.
        if (!canonical)
            body.putStr("pinned_op.name", op.name);
        body.putU64("pinned_op.dram_bin", op.dramBin);
        body.putNum("pinned_op.fabric_freq", op.fabricFreq);
        body.putNum("pinned_op.v_sa", op.vSa);
        body.putNum("pinned_op.v_io", op.vIo);
        body.putU64("pinned_op.mrc_trained_bin", op.mrcTrainedBin);
    }

    const soc::SocConfig &cfg = spec.soc;
    body.putStr("soc.name", cfg.name);
    body.putU64("soc.cores", cfg.cores);
    body.putU64("soc.threads_per_core", cfg.threadsPerCore);
    body.putNum("soc.core_base_freq", cfg.coreBaseFreq);
    body.putNum("soc.gfx_base_freq", cfg.gfxBaseFreq);
    body.putU64("soc.llc_bytes", cfg.llcBytes);
    body.putNum("soc.tdp", cfg.tdp);
    body.putNum("soc.pbm_reserve", cfg.pbmReserve);
    body.putNum("soc.budget_utilization", cfg.budgetUtilization);
    body.putNum("soc.v_sa_boot", cfg.vSaBoot);
    body.putNum("soc.v_io_boot", cfg.vIoBoot);
    body.putNum("soc.vddq", cfg.vddq);
    body.putNum("soc.vr_slew_rate", cfg.vrSlewRate);
    body.putNum("soc.platform_floor", cfg.platformFloor);
    body.putNum("soc.core_cdyn", cfg.coreCdyn);
    body.putNum("soc.core_leak_k", cfg.coreLeakK);
    body.putNum("soc.gfx_cdyn", cfg.gfxCdyn);
    body.putNum("soc.gfx_leak_k", cfg.gfxLeakK);
    body.putNum("soc.temperature", cfg.temperature);
    body.putU64("soc.pstate_steps", cfg.pstateSteps);
    body.putNum("soc.fabric_freq_high", cfg.fabricFreqHigh);
    body.putNum("soc.fabric_freq_low", cfg.fabricFreqLow);
    body.putU64("soc.evaluation_interval", cfg.evaluationInterval);
    body.putU64("soc.sample_interval", cfg.sampleInterval);
    body.putU64("soc.step_interval", cfg.stepInterval);

    const dram::DramSpec &dspec = cfg.dramSpec;
    body.put("soc.dram.type", dram::dramTypeName(dspec.type()));
    std::string bins;
    for (std::size_t i = 0; i < dspec.numBins(); ++i) {
        if (i)
            bins += " ";
        bins += num(dspec.bin(i).dataRateMTs);
    }
    body.put("soc.dram.bins", bins);
    body.putU64("soc.dram.channels", dspec.channels());
    body.putU64("soc.dram.bytes_per_channel", dspec.bytesPerChannel());
    body.putU64("soc.dram.ranks_per_channel", dspec.ranksPerChannel());
    body.putU64("soc.dram.devices_per_rank", dspec.devicesPerRank());
    body.putU64("soc.dram.banks", dspec.banks());

    writeProfile(body, "workload.", "phase.", spec.workload);

    const workloads::Scenario &sc = spec.scenario;
    body.putU64("scenario.layers", sc.layers.size());
    for (std::size_t i = 0; i < sc.layers.size(); ++i) {
        const workloads::ScenarioLayer &layer = sc.layers[i];
        const std::string pre =
            "scenario.layer." + std::to_string(i) + ".";
        body.putU64(pre + "start", layer.start);
        body.putU64(pre + "stop", layer.stop);
        writeProfile(body, pre, pre + "phase.", layer.profile);
    }
    body.putU64("scenario.actions", sc.actions.size());
    for (std::size_t i = 0; i < sc.actions.size(); ++i) {
        const workloads::ScenarioAction &a = sc.actions[i];
        body.put("scenario.action." + std::to_string(i),
                 std::to_string(a.at) + " " +
                     workloads::scenarioActionName(a.kind) + " " +
                     num(a.value));
    }

    if (!canonical) {
        body.putU64("labels", spec.labels.size());
        for (std::size_t i = 0; i < spec.labels.size(); ++i) {
            const std::string pre = "label." + std::to_string(i) + ".";
            body.putStr(pre + "key", spec.labels[i].first);
            body.putStr(pre + "value", spec.labels[i].second);
        }
    }

    return doc + body.take();
}

} // anonymous namespace

std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

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
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(canonical)));
    return buf;
}

ExperimentSpec
parseSpec(const std::string &text)
{
    Reader r(text);
    ExperimentSpec spec;

    spec.id = r.getStr("id");
    spec.governor = r.getStr("governor");
    const std::size_t n_params = r.getSize("governor_params");
    for (std::size_t i = 0; i < n_params; ++i) {
        const std::string kv =
            r.getStr("governor_param." + std::to_string(i));
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
    spec.pinnedCoreFreq = r.getNum("pinned_core_freq");
    spec.pinnedUnoptimizedMrc = r.getBool("pinned_unoptimized_mrc");
    if (r.getBool("pinned_op_point")) {
        soc::OperatingPoint op;
        op.name = r.getStr("pinned_op.name");
        op.dramBin = r.getSize("pinned_op.dram_bin");
        op.fabricFreq = r.getNum("pinned_op.fabric_freq");
        op.vSa = r.getNum("pinned_op.v_sa");
        op.vIo = r.getNum("pinned_op.v_io");
        op.mrcTrainedBin = r.getSize("pinned_op.mrc_trained_bin");
        spec.pinnedOpPoint = op;
    }

    soc::SocConfig &cfg = spec.soc;
    cfg.name = r.getStr("soc.name");
    cfg.cores = r.getSize("soc.cores");
    cfg.threadsPerCore = r.getSize("soc.threads_per_core");
    cfg.coreBaseFreq = r.getNum("soc.core_base_freq");
    cfg.gfxBaseFreq = r.getNum("soc.gfx_base_freq");
    cfg.llcBytes = r.getSize("soc.llc_bytes");
    cfg.tdp = r.getNum("soc.tdp");
    cfg.pbmReserve = r.getNum("soc.pbm_reserve");
    cfg.budgetUtilization = r.getNum("soc.budget_utilization");
    cfg.vSaBoot = r.getNum("soc.v_sa_boot");
    cfg.vIoBoot = r.getNum("soc.v_io_boot");
    cfg.vddq = r.getNum("soc.vddq");
    cfg.vrSlewRate = r.getNum("soc.vr_slew_rate");
    cfg.platformFloor = r.getNum("soc.platform_floor");
    cfg.coreCdyn = r.getNum("soc.core_cdyn");
    cfg.coreLeakK = r.getNum("soc.core_leak_k");
    cfg.gfxCdyn = r.getNum("soc.gfx_cdyn");
    cfg.gfxLeakK = r.getNum("soc.gfx_leak_k");
    cfg.temperature = r.getNum("soc.temperature");
    cfg.pstateSteps = r.getSize("soc.pstate_steps");
    cfg.fabricFreqHigh = r.getNum("soc.fabric_freq_high");
    cfg.fabricFreqLow = r.getNum("soc.fabric_freq_low");
    cfg.evaluationInterval = r.getU64("soc.evaluation_interval");
    cfg.sampleInterval = r.getU64("soc.sample_interval");
    cfg.stepInterval = r.getU64("soc.step_interval");

    const dram::DramType dtype =
        dramTypeFromToken(r.get("soc.dram.type"));
    const std::vector<double> rates =
        r.getNumList("soc.dram.bins", 0);
    const std::size_t channels = r.getSize("soc.dram.channels");
    const std::size_t bytes_per_channel =
        r.getSize("soc.dram.bytes_per_channel");
    const std::size_t ranks = r.getSize("soc.dram.ranks_per_channel");
    const std::size_t devices = r.getSize("soc.dram.devices_per_rank");
    const std::size_t banks = r.getSize("soc.dram.banks");
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

    const std::size_t n_layers = r.getSize("scenario.layers");
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
    const std::size_t n_actions = r.getSize("scenario.actions");
    for (std::size_t i = 0; i < n_actions; ++i) {
        std::istringstream is(
            r.get("scenario.action." + std::to_string(i)));
        std::string at_s, kind_s, value_s, extra;
        if (!(is >> at_s >> kind_s >> value_s) || (is >> extra))
            throw std::invalid_argument(
                "spec codec: malformed scenario action");
        workloads::ScenarioAction a;
        if (at_s[0] < '0' || at_s[0] > '9')
            throw std::invalid_argument(
                "spec codec: bad scenario action time");
        char *end = nullptr;
        a.at = std::strtoull(at_s.c_str(), &end, 10);
        if (end != at_s.c_str() + at_s.size())
            throw std::invalid_argument(
                "spec codec: bad scenario action time");
        a.kind = scenarioActionFromToken(kind_s);
        a.value = std::strtod(value_s.c_str(), &end);
        if (end != value_s.c_str() + value_s.size())
            throw std::invalid_argument(
                "spec codec: bad scenario action value");
        spec.scenario.actions.push_back(a);
    }
    // validateScenario throws on the values the runtime would treat
    // as fatal (unsorted actions, non-positive TDP steps, inverted
    // layer windows), so a corrupt cache entry misses instead of
    // taking the process down.
    workloads::validateScenario(spec.scenario);

    const std::size_t n_labels = r.getSize("labels");
    for (std::size_t i = 0; i < n_labels; ++i) {
        const std::string pre = "label." + std::to_string(i) + ".";
        spec.labels.emplace_back(r.getStr(pre + "key"),
                                 r.getStr(pre + "value"));
    }

    r.finish();
    return spec;
}

} // namespace exp
} // namespace sysscale
