/**
 * @file
 * Per-rail energy accounting — the simulation stand-in for the paper's
 * NI-DAQ rail instrumentation (Sec. 6, "Power Measurements").
 *
 * Components report power over intervals; the meter integrates energy
 * per rail and answers average-power queries over arbitrary windows.
 */

#ifndef SYSSCALE_POWER_ENERGY_METER_HH
#define SYSSCALE_POWER_ENERGY_METER_HH

#include <array>
#include <string>

#include "power/dvfs_types.hh"
#include "sim/logging.hh"
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

    /** Charge @p watts drawn on @p rail for @p duration ticks. */
    void addPower(Rail rail, Watt watts, Tick duration);

    /** Charge a raw energy amount on @p rail. */
    void addEnergy(Rail rail, Joule joules);

    /** Total energy on one rail since reset. */
    Joule railEnergy(Rail rail) const;

    /** Total energy across all rails since reset. */
    Joule totalEnergy() const;

    /** Average power on one rail over [resetTick, now]. */
    Watt railAveragePower(Rail rail, Tick now) const;

    /** Average SoC power over [resetTick, now]. */
    Watt averagePower(Tick now) const;

    /** Clear all accumulators and set the window start to @p now. */
    void reset(Tick now);

    Tick windowStart() const { return windowStart_; }

    /** Snapshot support: bit-exact rail energies + window. */
    void visitState(StateIO &io);

  private:
    std::array<Joule, kNumRails> energy_{};
    Tick windowStart_ = 0;
};

inline void
EnergyMeter::addEnergy(Rail rail, Joule joules)
{
    SYSSCALE_ASSERT(joules >= 0.0, "negative energy on rail %s",
                    std::string(railName(rail)).c_str());
    energy_[railIndex(rail)] += joules;
}

} // namespace power
} // namespace sysscale

#endif // SYSSCALE_POWER_ENERGY_METER_HH
