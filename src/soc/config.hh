/**
 * @file
 * SoC configurations (paper Table 2).
 *
 * A SocConfig carries every integration-time parameter of the modeled
 * part: core counts, clocks, cache size, TDP, DRAM population, rail
 * boot voltages, and the power characterization of the compute units.
 * Factories provide the two parts the paper measures — the Skylake
 * M-6Y75 (SysScale's host) and the Broadwell M-5Y71 (motivation
 * experiments) — plus the TDP variants of the Sec. 7.4 sensitivity
 * study.
 */

#ifndef SYSSCALE_SOC_CONFIG_HH
#define SYSSCALE_SOC_CONFIG_HH

#include <cstdint>
#include <string>

#include "dram/spec.hh"
#include "power/vf_curve.hh"
#include "sim/types.hh"

namespace sysscale {
namespace soc {

/**
 * Integration-time parameters of one SoC part.
 */
struct SocConfig
{
    std::string name;

    /** @name Compute domain (Table 2). @{ */
    std::size_t cores = 2;
    std::size_t threadsPerCore = 2;
    Hertz coreBaseFreq = 1.2 * kGHz;
    Hertz gfxBaseFreq = 0.3 * kGHz;
    std::size_t llcBytes = 4ull * 1024 * 1024;
    /** @} */

    /** @name Power (Table 2 + VR boot points). @{ */
    Watt tdp = 4.5;

    /** Budget reserved for rails the PBM does not manage. */
    Watt pbmReserve = 0.25;

    /** Utilization at which operating points are costed for budget. */
    double budgetUtilization = 0.70;

    Volt vSaBoot = 0.80;  //!< V_SA at the default (high) point.
    Volt vIoBoot = 1.00;  //!< V_IO at the default (high) point.
    Volt vddq = 1.20;     //!< Fixed DRAM/DDRIO-analog voltage.

    /** VR slew rate (50mV/us per Sec. 5). */
    double vrSlewRate = 50e-3 / 1e-6;

    /**
     * Always-on platform power outside the managed domains (PCH
     * slice, VR losses, clocks) — measured at the wall alongside the
     * SoC rails, and covered by pbmReserve in budget terms.
     */
    Watt platformFloor = 0.55;

    /** Per-core effective switched capacitance. */
    double coreCdyn = 1.05e-9;

    /** Per-core leakage coefficient at (0.8V, 50C). */
    double coreLeakK = 0.18;

    /** Graphics effective switched capacitance. */
    double gfxCdyn = 1.50e-9;

    /** Graphics leakage coefficient at (0.8V, 50C). */
    double gfxLeakK = 0.22;

    /** Characterization temperature. */
    Celsius temperature = 50.0;

    /** P-states per compute unit. */
    std::size_t pstateSteps = 28;
    /** @} */

    /** @name IO and memory domains. @{ */
    dram::DramSpec dramSpec = dram::lpddr3Spec();

    Hertz fabricFreqHigh = 0.8 * kGHz;

    /**
     * Fabric clock at the low operating point; chosen to align with
     * the V_SA level the low memory bin needs (Table 1: 0.4GHz).
     */
    Hertz fabricFreqLow = 0.4 * kGHz;
    /** @} */

    /** @name Power-management cadence (Sec. 4.3). @{ */
    Tick evaluationInterval = 30 * kTicksPerMs;
    Tick sampleInterval = 1 * kTicksPerMs;
    Tick stepInterval = 100 * kTicksPerUs;
    /** @} */

    /** Sanity-check invariants; throws std::invalid_argument. */
    void validate() const;

    // Every field participates: a new config knob must be added here
    // AND to the exp/spec_codec encoding, or cached results keyed on
    // the old encoding would silently alias the new configuration.
    bool
    operator==(const SocConfig &o) const
    {
        return name == o.name && cores == o.cores &&
               threadsPerCore == o.threadsPerCore &&
               coreBaseFreq == o.coreBaseFreq &&
               gfxBaseFreq == o.gfxBaseFreq &&
               llcBytes == o.llcBytes && tdp == o.tdp &&
               pbmReserve == o.pbmReserve &&
               budgetUtilization == o.budgetUtilization &&
               vSaBoot == o.vSaBoot && vIoBoot == o.vIoBoot &&
               vddq == o.vddq && vrSlewRate == o.vrSlewRate &&
               platformFloor == o.platformFloor &&
               coreCdyn == o.coreCdyn && coreLeakK == o.coreLeakK &&
               gfxCdyn == o.gfxCdyn && gfxLeakK == o.gfxLeakK &&
               temperature == o.temperature &&
               pstateSteps == o.pstateSteps &&
               dramSpec == o.dramSpec &&
               fabricFreqHigh == o.fabricFreqHigh &&
               fabricFreqLow == o.fabricFreqLow &&
               evaluationInterval == o.evaluationInterval &&
               sampleInterval == o.sampleInterval &&
               stepInterval == o.stepInterval;
    }
};

/** The Skylake M-6Y75 mobile SoC (Table 2), 4.5W TDP default. */
SocConfig skylakeConfig(Watt tdp = 4.5);

/** The Broadwell M-5Y71 used for the motivation data (Sec. 3). */
SocConfig broadwellConfig();

/** Skylake with the DDR4 population of the Sec. 7.4 study. */
SocConfig skylakeDdr4Config(Watt tdp = 4.5);

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_CONFIG_HH
