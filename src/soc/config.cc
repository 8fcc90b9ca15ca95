#include "soc/config.hh"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace sysscale {
namespace soc {

namespace {

/** Throw std::invalid_argument with a printf-formatted message. */
[[noreturn]] void
reject(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void
reject(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    throw std::invalid_argument(buf);
}

} // anonymous namespace

void
SocConfig::validate() const
{
    if (cores == 0 || threadsPerCore == 0)
        reject("%s: zero cores/threads", name.c_str());
    if (tdp <= 0.0)
        reject("%s: non-positive TDP %.2f", name.c_str(), tdp);
    if (pbmReserve < 0.0 || pbmReserve >= tdp)
        reject("%s: reserve %.2f outside [0, TDP)", name.c_str(),
               pbmReserve);
    if (vSaBoot <= 0.0 || vIoBoot <= 0.0 || vddq <= 0.0)
        reject("%s: non-positive rail voltage", name.c_str());
    if (fabricFreqLow > fabricFreqHigh)
        reject("%s: fabric low clock above high clock", name.c_str());
    if (sampleInterval == 0 || evaluationInterval == 0 ||
        stepInterval == 0) {
        reject("%s: zero PM cadence interval", name.c_str());
    }
    if (sampleInterval % stepInterval != 0)
        reject("%s: sample interval not a multiple of the step "
               "interval", name.c_str());
    if (evaluationInterval % sampleInterval != 0)
        reject("%s: evaluation interval not a multiple of the sample "
               "interval", name.c_str());
    if (budgetUtilization <= 0.0 || budgetUtilization > 1.0)
        reject("%s: budget utilization %.2f out of (0,1]", name.c_str(),
               budgetUtilization);
}

SocConfig
skylakeConfig(Watt tdp)
{
    SocConfig cfg;
    cfg.name = "skylake-m6y75";
    cfg.tdp = tdp;
    cfg.validate();
    return cfg;
}

SocConfig
broadwellConfig()
{
    // The previous-generation part used for the Sec. 3 motivation
    // experiments; identical platform topology, slightly leakier
    // process and no SysScale hardware.
    SocConfig cfg;
    cfg.name = "broadwell-m5y71";
    cfg.coreCdyn = 1.15e-9;
    cfg.coreLeakK = 0.21;
    cfg.gfxLeakK = 0.25;
    cfg.validate();
    return cfg;
}

SocConfig
skylakeDdr4Config(Watt tdp)
{
    SocConfig cfg = skylakeConfig(tdp);
    cfg.name = "skylake-m6y75-ddr4";
    cfg.dramSpec = dram::ddr4Spec();
    cfg.validate();
    return cfg;
}

} // namespace soc
} // namespace sysscale
