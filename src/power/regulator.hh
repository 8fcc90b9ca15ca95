/**
 * @file
 * Slew-rate-limited voltage regulator model.
 *
 * SysScale's transition flow charges ~2us per +/-100mV step at the
 * 50mV/us slew rate of the Skylake-class VRs (paper Sec. 5). The model
 * tracks the output voltage as a piecewise-linear ramp and reports the
 * ramp latency the PMU flow must wait for.
 */

#ifndef SYSSCALE_POWER_REGULATOR_HH
#define SYSSCALE_POWER_REGULATOR_HH

#include <string>

#include "power/dvfs_types.hh"
#include "sim/types.hh"

namespace sysscale {
namespace power {

/**
 * One voltage regulator output rail.
 */
class Regulator
{
  public:
    /**
     * @param rail Which rail this regulator drives.
     * @param initial Output voltage at reset.
     * @param slew_rate Volts per second (e.g. 50mV/us = 5e4 V/s).
     * @param efficiency Conversion efficiency in (0, 1]; losses are
     *        charged as extra input power.
     */
    Regulator(Rail rail, Volt initial, double slew_rate,
              double efficiency = 0.85);

    Rail rail() const { return rail_; }

    /** Current output voltage at time @p now. */
    Volt voltage(Tick now) const;

    /** True if a ramp is still in flight at @p now. */
    bool ramping(Tick now) const { return now < rampEnd_; }

    /**
     * Begin ramping toward @p target at time @p now.
     * @return The ramp duration in ticks (0 if already at target).
     */
    Tick rampTo(Volt target, Tick now);

    /** Ramp duration for a hypothetical move to @p target. */
    Tick rampLatency(Volt target, Tick now) const;

    /**
     * Input power required to deliver @p load_w at the output,
     * accounting for conversion efficiency.
     */
    Watt inputPower(Watt load_w) const;

    double efficiency() const { return efficiency_; }

    /** Snapshot support: the in-flight ramp (rail/slew/efficiency
     *  are construction-fixed). */
    void visitState(StateIO &io);

  private:
    Rail rail_;
    double slewRate_;
    double efficiency_;

    Volt from_ = 0.0;
    Volt target_ = 0.0;
    Tick rampStart_ = 0;
    Tick rampEnd_ = 0;
};

} // namespace power
} // namespace sysscale

#endif // SYSSCALE_POWER_REGULATOR_HH
