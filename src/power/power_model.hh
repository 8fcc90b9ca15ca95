/**
 * @file
 * Analytic power primitives: switching power, leakage, P-states, and
 * energy-efficiency metrics (EDP).
 */

#ifndef SYSSCALE_POWER_POWER_MODEL_HH
#define SYSSCALE_POWER_POWER_MODEL_HH

#include <string>
#include <vector>

#include "power/vf_curve.hh"
#include "sim/types.hh"

namespace sysscale {
namespace power {

/**
 * Switching (dynamic) power: Cdyn * V^2 * f * activity.
 *
 * @param cdyn_farad Effective switched capacitance in farads.
 * @param v Supply voltage.
 * @param f Clock frequency.
 * @param activity Activity factor in [0, 2] (values above 1 model
 *        guard-banded interfaces toggling above the data reference).
 */
Watt dynamicPower(double cdyn_farad, Volt v, Hertz f, double activity);

/**
 * Leakage power with exponential voltage/temperature sensitivity:
 *
 *   P = k * V * exp(beta_v * (V - v_ref)) * exp(beta_t * (T - t_ref))
 *
 * @param k_watt Leakage at (v_ref, t_ref) per volt.
 * @param v Supply voltage.
 * @param temp_c Junction temperature.
 * @param v_ref Reference voltage of the characterization.
 * @param t_ref Reference temperature of the characterization.
 */
Watt leakagePower(double k_watt, Volt v, Celsius temp_c,
                  Volt v_ref = 0.8, Celsius t_ref = 50.0,
                  double beta_v = 3.0, double beta_t = 0.02);

/** Energy-delay product; lower is more efficient (Gonzalez-Horowitz). */
double edp(Joule energy, double delay_seconds);

/** Energy-delay^2; emphasizes performance over energy. */
double ed2p(Joule energy, double delay_seconds);

/**
 * One DVFS operating point of a compute unit (a P-state).
 */
struct PState
{
    Hertz freq;
    Volt voltage;
    Watt maxPower; //!< Power at activity = 1.0 (for budgeting).

    /** @name Activity-invariant terms, filled by PStateTable. @{ */
    Watt dynPowerW = 0.0;  //!< cdyn * V^2 * f (dynamicPower at 1.0).
    Watt leakPowerW = 0.0; //!< leakagePower at the table's temperature.
    /** @} */

    /** dynamicPower() + leakagePower() at @p activity, bit for bit. */
    Watt powerAt(double activity) const
    {
        return dynPowerW * activity + leakPowerW;
    }
};

/**
 * A P-state table built from a VfCurve and a Cdyn/leakage
 * characterization, used by the power budget manager to trade budget
 * for frequency.
 */
class PStateTable
{
  public:
    PStateTable() = default;

    /**
     * Build @p steps evenly spaced P-states over the curve span.
     *
     * @param curve V/F curve of the unit.
     * @param cdyn_farad Effective capacitance at activity 1.
     * @param leak_k Leakage coefficient (see leakagePower()).
     * @param temp_c Characterization temperature.
     * @param steps Number of P-states (>= 2).
     */
    PStateTable(const VfCurve &curve, double cdyn_farad, double leak_k,
                Celsius temp_c, std::size_t steps);

    /**
     * Power drawn at @p freq with @p activity. A @p freq bitwise equal
     * to a state's reuses that state's cached terms; any other
     * frequency interpolates the V/F curve.
     */
    Watt powerAt(Hertz freq, double activity) const;

    /**
     * Highest P-state whose full-activity power fits @p budget.
     * Returns the lowest state if nothing fits (the unit cannot be
     * turned off by the budget manager; C-states handle idling).
     */
    const PState &highestUnder(Watt budget) const;

    /**
     * Highest P-state fitting @p budget at a given activity: a binary
     * search over the terms cached at construction. Valid because a
     * state's power at any activity in [0, 2] is nondecreasing in its
     * index (frequency ascends and VfCurve voltage never descends).
     */
    const PState &highestUnder(Watt budget, double activity) const;

    const std::vector<PState> &states() const { return states_; }
    const PState &min() const { return states_.front(); }
    const PState &max() const { return states_.back(); }

    double cdyn() const { return cdyn_; }
    double leakK() const { return leakK_; }
    Celsius temperature() const { return tempC_; }

  private:
    std::vector<PState> states_;
    double cdyn_ = 0.0;
    double leakK_ = 0.0;
    Celsius tempC_ = 50.0;
    VfCurve curve_;
};

} // namespace power
} // namespace sysscale

#endif // SYSSCALE_POWER_POWER_MODEL_HH
