#include "power/power_model.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "sim/logging.hh"

namespace sysscale {
namespace power {

namespace {

/**
 * Activity above 1.0 is legal for guard-banded interfaces that toggle
 * more than the data-path reference (unoptimized MRC). Shared by
 * dynamicPower() and the PStateTable loops that inline its formula.
 */
void
checkActivity(double activity)
{
    SYSSCALE_ASSERT(activity >= 0.0 && activity <= 2.0 + 1e-9,
                    "activity %f out of [0,2]", activity);
}

} // namespace

Watt
dynamicPower(double cdyn_farad, Volt v, Hertz f, double activity)
{
    SYSSCALE_ASSERT(cdyn_farad >= 0.0 && v >= 0.0 && f >= 0.0,
                    "negative dynamic-power inputs");
    checkActivity(activity);
    return cdyn_farad * v * v * f * activity;
}

Watt
leakagePower(double k_watt, Volt v, Celsius temp_c, Volt v_ref,
             Celsius t_ref, double beta_v, double beta_t)
{
    SYSSCALE_ASSERT(k_watt >= 0.0, "negative leakage coefficient");
    return k_watt * v * std::exp(beta_v * (v - v_ref)) *
           std::exp(beta_t * (temp_c - t_ref));
}

double
edp(Joule energy, double delay_seconds)
{
    return energy * delay_seconds;
}

double
ed2p(Joule energy, double delay_seconds)
{
    return energy * delay_seconds * delay_seconds;
}

PStateTable::PStateTable(const VfCurve &curve, double cdyn_farad,
                         double leak_k, Celsius temp_c,
                         std::size_t steps)
    : cdyn_(cdyn_farad), leakK_(leak_k), tempC_(temp_c), curve_(curve)
{
    if (steps < 2)
        SYSSCALE_FATAL("PStateTable needs >= 2 steps");

    const Hertz lo = curve.fmin();
    const Hertz hi = curve.fmax();
    states_.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        const double t =
            static_cast<double>(i) / static_cast<double>(steps - 1);
        const Hertz f = lo + t * (hi - lo);
        const Volt v = curve.voltageAt(f);
        // x * 1.0 == x exactly, so dyn * activity later reproduces
        // dynamicPower(cdyn, v, f, activity) bit for bit.
        const Watt dyn = dynamicPower(cdyn_farad, v, f, 1.0);
        const Watt leak = leakagePower(leak_k, v, temp_c);
        states_.push_back(PState{f, v, dyn + leak, dyn, leak});
    }
}

Watt
PStateTable::powerAt(Hertz freq, double activity) const
{
    SYSSCALE_ASSERT(!states_.empty(), "empty PStateTable");
    checkActivity(activity);
    // States ascend in frequency; the default request is max().freq,
    // which the first probe hits.
    for (auto it = states_.rbegin();
         it != states_.rend() && it->freq >= freq; ++it) {
        if (it->freq == freq)
            return it->powerAt(activity);
    }
    const Volt v = curve_.voltageAt(freq);
    return dynamicPower(cdyn_, v, freq, activity) +
           leakagePower(leakK_, v, tempC_);
}

const PState &
PStateTable::highestUnder(Watt budget) const
{
    return highestUnder(budget, 1.0);
}

const PState &
PStateTable::highestUnder(Watt budget, double activity) const
{
    SYSSCALE_ASSERT(!states_.empty(), "empty PStateTable");
    checkActivity(activity);
    // Power is nondecreasing in state index (VfCurve rejects a
    // decreasing voltage), so the states that fit form a prefix.
    const auto fits = std::partition_point(
        states_.begin(), states_.end(), [&](const PState &s) {
            return s.powerAt(activity) <= budget;
        });
    return fits == states_.begin() ? states_.front() : *std::prev(fits);
}

} // namespace power
} // namespace sysscale
