#include "core/governor_registry.hh"

#include <stdexcept>

#include "core/governor_zoo.hh"
#include "core/governors.hh"

namespace sysscale {
namespace core {

namespace {

/** Throw when a parameterless governor receives parameters. */
void
rejectParams(const char *name, const GovernorParams &params)
{
    if (!params.empty()) {
        throw std::invalid_argument(
            std::string("governor \"") + name +
            "\" takes no parameters");
    }
}

/**
 * SysScale with its feature knock-outs as parameters: every key takes
 * 0|1 and defaults to 1 (the full governor). scale-fabric=0 also pins
 * V_SA, which cannot ramp without fabric scaling.
 */
std::unique_ptr<Governor>
makeSysScale(const GovernorParams &params)
{
    FlowOptions opts;
    bool redistribute = true;
    for (const auto &kv : params) {
        if (kv.second != "0" && kv.second != "1") {
            throw std::invalid_argument(
                "governor \"sysscale\": bad value \"" + kv.second +
                "\" for parameter \"" + kv.first + "\" (expected 0|1)");
        }
        const bool on = kv.second == "1";
        if (kv.first == "optimized-mrc") {
            opts.useOptimizedMrc = on;
        } else if (kv.first == "scale-vio") {
            opts.scaleVio = on;
        } else if (kv.first == "scale-fabric") {
            opts.scaleFabric = on;
            opts.scaleVsa = on;
        } else if (kv.first == "sram-mrc") {
            opts.sramMrc = on;
        } else if (kv.first == "redistribute") {
            redistribute = on;
        } else {
            throw std::invalid_argument(
                "governor \"sysscale\": unknown parameter \"" +
                kv.first + "\" (known: optimized-mrc, scale-vio, "
                "scale-fabric, sram-mrc, redistribute)");
        }
    }
    return std::make_unique<SysScaleGovernor>(
        SysScaleGovernor::defaultThresholds(), LinearImpactModel{},
        opts, redistribute);
}

/**
 * Registration idiom. Keep each call on one line starting with
 * `addEntry(reg, "<name>"` — check_docs.sh greps this file for that
 * pattern to enforce that every registered name appears in the docs.
 */
void
addEntry(std::vector<GovernorEntry> &reg, const char *name,
         const char *summary,
         std::function<std::unique_ptr<Governor>(
             const GovernorParams &)> make)
{
    reg.push_back(GovernorEntry{name, summary, std::move(make)});
}

std::vector<GovernorEntry>
buildRegistry()
{
    std::vector<GovernorEntry> reg;

    addEntry(reg, "fixed",
             "paper baseline: IO/memory domains pinned at the high "
             "point, worst-case budgets",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 rejectParams("fixed", p);
                 return std::make_unique<FixedGovernor>();
             });

    addEntry(reg, "sysscale",
             "the paper's five-condition multi-domain governor "
             "(Sec. 4) with budget redistribution",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 return makeSysScale(p);
             });

    addEntry(reg, "memscale",
             "memory-domain-only DVFS [Deng+, ASPLOS'11]",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 rejectParams("memscale", p);
                 return std::make_unique<MemScaleGovernor>(false);
             });

    addEntry(reg, "memscale-r",
             "MemScale plus power-budget redistribution",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 rejectParams("memscale-r", p);
                 return std::make_unique<MemScaleGovernor>(true);
             });

    addEntry(reg, "coscale",
             "coordinated CPU+memory DVFS [Deng+, MICRO'12]",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 rejectParams("coscale", p);
                 return std::make_unique<CoScaleGovernor>(false);
             });

    addEntry(reg, "coscale-r",
             "CoScale plus power-budget redistribution",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 rejectParams("coscale-r", p);
                 return std::make_unique<CoScaleGovernor>(true);
             });

    addEntry(reg, "ondemand",
             "CPUFreq-style load governor: high under pressure, low "
             "when the low point has headroom",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 return std::make_unique<OndemandGovernor>(p);
             });

    addEntry(reg, "conservative",
             "CPUFreq-style graceful governor: one table step per "
             "evaluation in either direction",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 return std::make_unique<ConservativeGovernor>(p);
             });

    addEntry(reg, "userspace",
             "declarative operating point: fixed table index or a "
             "time-indexed schedule",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 return std::make_unique<UserspaceTableGovernor>(p);
             });

    addEntry(reg, "latency-budget",
             "ondemand targets under a per-window transition-latency "
             "budget enforced by the driver",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 return std::make_unique<LatencyBudgetGovernor>(p);
             });

    addEntry(reg, "adaptive",
             "SysScale decision rule with thresholds that keep "
             "learning (mu+sigma + clamp) during the run",
             [](const GovernorParams &p) -> std::unique_ptr<Governor> {
                 return std::make_unique<OnlineAdaptiveGovernor>(p);
             });

    return reg;
}

} // anonymous namespace

const std::vector<GovernorEntry> &
governorRegistry()
{
    static const std::vector<GovernorEntry> reg = buildRegistry();
    return reg;
}

std::vector<std::string>
governorNames()
{
    std::vector<std::string> names;
    for (const GovernorEntry &e : governorRegistry())
        names.push_back(e.name);
    return names;
}

bool
isRegisteredGovernor(const std::string &name)
{
    for (const GovernorEntry &e : governorRegistry()) {
        if (e.name == name)
            return true;
    }
    return false;
}

std::unique_ptr<Governor>
makeGovernor(const std::string &name, const GovernorParams &params)
{
    for (const GovernorEntry &e : governorRegistry()) {
        if (e.name == name)
            return e.make(params);
    }
    std::string known;
    for (const GovernorEntry &e : governorRegistry()) {
        if (!known.empty())
            known += ", ";
        known += e.name;
    }
    throw std::invalid_argument("unknown governor \"" + name +
                                "\" (registered: " + known + ")");
}

} // namespace core
} // namespace sysscale
