/**
 * @file
 * Per-rail energy accounting — the simulation stand-in for the paper's
 * NI-DAQ rail instrumentation (Sec. 6, "Power Measurements").
 *
 * The Soc charges each rail's energy per step; the meter accumulates
 * it per rail and answers average-power queries over arbitrary
 * windows.
 */

#ifndef SYSSCALE_POWER_ENERGY_METER_HH
#define SYSSCALE_POWER_ENERGY_METER_HH

#include <array>
#include <string>

#include "power/dvfs_types.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sysscale {
namespace power {

/**
 * Integrates energy on each of the SoC's rails.
 */
class EnergyMeter
{
  public:
    EnergyMeter() { reset(0); }

    /**
     * Charge @p n rounds of the @p m raw energy amounts @p joules on
     * @p rail (one exact sum per rail: any grouping of the same
     * charges leaves the same bits).
     */
    void addEnergy(Rail rail, const Joule *joules, std::size_t m,
                   std::uint64_t n);

    /** Charge the non-negative @p joules @p n times on @p rail. */
    void addEnergy(Rail rail, const stats::ExactSum::Term &joules,
                   std::uint64_t n);

    /** Total energy on one rail since reset. */
    Joule railEnergy(Rail rail) const { return railSum(rail).value(); }

    /** The exact sum railEnergy() rounds. */
    const stats::ExactSum &
    railSum(Rail rail) const { return energy_[railIndex(rail)]; }

    /** Total energy across all rails since reset. */
    Joule totalEnergy() const;

    /** Average SoC power over [resetTick, now]. */
    Watt averagePower(Tick now) const;

    /** Clear all accumulators and set the window start to @p now. */
    void reset(Tick now);

    /** Snapshot support: bit-exact rail energies + window. */
    void visitState(StateIO &io);

  private:
    std::array<stats::ExactSum, kNumRails> energy_{};
    Tick windowStart_ = 0;
};

inline void
EnergyMeter::addEnergy(Rail rail, const Joule *joules, std::size_t m,
                       std::uint64_t n)
{
    stats::ExactSum::Term round;
    for (std::size_t i = 0; i < m; ++i) {
        SYSSCALE_ASSERT(joules[i] >= 0.0, "negative energy on rail %s",
                        std::string(railName(rail)).c_str());
        round += joules[i];
    }
    addEnergy(rail, round, n);
}

inline void
EnergyMeter::addEnergy(Rail rail, const stats::ExactSum::Term &joules,
                       std::uint64_t n)
{
    SYSSCALE_ASSERT(joules.value() >= 0.0, "negative energy on rail %s",
                    std::string(railName(rail)).c_str());
    energy_[railIndex(rail)].add(joules, n);
}

} // namespace power
} // namespace sysscale

#endif // SYSSCALE_POWER_ENERGY_METER_HH
