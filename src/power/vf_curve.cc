#include "power/vf_curve.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sysscale {
namespace power {

VfCurve::VfCurve(std::string name, std::vector<VfPoint> points)
    : name_(std::move(name)), points_(std::move(points))
{
    if (points_.empty())
        SYSSCALE_FATAL("VfCurve '%s': no points", name_.c_str());

    std::sort(points_.begin(), points_.end(),
              [](const VfPoint &a, const VfPoint &b) {
                  return a.freq < b.freq;
              });

    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].voltage < points_[i - 1].voltage) {
            SYSSCALE_FATAL(
                "VfCurve '%s': voltage not monotonic at %.0f MHz",
                name_.c_str(), points_[i].freq / kMHz);
        }
        if (points_[i].freq == points_[i - 1].freq) {
            SYSSCALE_FATAL("VfCurve '%s': duplicate frequency %.0f MHz",
                           name_.c_str(), points_[i].freq / kMHz);
        }
    }
}

Hertz
VfCurve::fmin() const
{
    SYSSCALE_ASSERT(!points_.empty(), "empty VfCurve");
    return points_.front().freq;
}

Hertz
VfCurve::fmax() const
{
    SYSSCALE_ASSERT(!points_.empty(), "empty VfCurve");
    return points_.back().freq;
}

Volt
VfCurve::voltageAt(Hertz freq) const
{
    SYSSCALE_ASSERT(!points_.empty(), "empty VfCurve");
    if (freq <= points_.front().freq)
        return points_.front().voltage;
    if (freq >= points_.back().freq)
        return points_.back().voltage;

    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (freq <= points_[i].freq) {
            const VfPoint &a = points_[i - 1];
            const VfPoint &b = points_[i];
            const double t = (freq - a.freq) / (b.freq - a.freq);
            return a.voltage + t * (b.voltage - a.voltage);
        }
    }
    return points_.back().voltage; // unreachable
}

Hertz
VfCurve::freqAt(Volt voltage) const
{
    SYSSCALE_ASSERT(!points_.empty(), "empty VfCurve");
    if (voltage <= points_.front().voltage)
        return points_.front().freq;
    if (voltage >= points_.back().voltage)
        return points_.back().freq;

    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (voltage <= points_[i].voltage) {
            const VfPoint &a = points_[i - 1];
            const VfPoint &b = points_[i];
            if (b.voltage == a.voltage)
                return b.freq;
            const double t =
                (voltage - a.voltage) / (b.voltage - a.voltage);
            return a.freq + t * (b.freq - a.freq);
        }
    }
    return points_.back().freq; // unreachable
}

VfCurve
skylakeCoreCurve()
{
    return VfCurve("core", {
        {0.4 * kGHz, 0.55},
        {0.8 * kGHz, 0.62},
        {1.2 * kGHz, 0.70},
        {1.6 * kGHz, 0.78},
        {2.0 * kGHz, 0.87},
        {2.4 * kGHz, 0.96},
        {2.8 * kGHz, 1.06},
        {3.1 * kGHz, 1.15},
    });
}

VfCurve
skylakeGfxCurve()
{
    return VfCurve("gfx", {
        {0.30 * kGHz, 0.55},
        {0.45 * kGHz, 0.62},
        {0.60 * kGHz, 0.70},
        {0.75 * kGHz, 0.80},
        {0.90 * kGHz, 0.92},
        {1.05 * kGHz, 1.05},
    });
}

VfCurve
skylakeSaCurve()
{
    // Indexed by IO-interconnect frequency; the MC runs at half the
    // DDR data rate on the same rail. 0.4GHz (paired with the 1066
    // bin) already sits at Vmin = 0.64V, so scaling the fabric below
    // 0.4GHz frees no further voltage (Sec. 7.4 of the paper).
    return VfCurve("sa", {
        {0.30 * kGHz, 0.64},
        {0.40 * kGHz, 0.64},
        {0.53 * kGHz, 0.68},
        {0.80 * kGHz, 0.80},
        {1.00 * kGHz, 0.90},
    });
}

VfCurve
skylakeIoCurve()
{
    // Indexed by DDRIO-digital frequency (half DDR data rate). The
    // 533MHz point (the 1066MT/s bin) sits at 0.85V = 0.85 * V_IO,
    // matching Table 1's MD-DVFS setup exactly.
    return VfCurve("io", {
        {0.40 * kGHz, 0.82},
        {0.53 * kGHz, 0.85},
        {0.80 * kGHz, 1.00},
        {0.93 * kGHz, 1.05},
    });
}

} // namespace power
} // namespace sysscale
