#include "power/regulator.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace power {

Regulator::Regulator(Rail rail, Volt initial, double slew_rate,
                     double efficiency)
    : rail_(rail), slewRate_(slew_rate), efficiency_(efficiency),
      from_(initial), target_(initial)
{
    if (slew_rate <= 0.0)
        SYSSCALE_FATAL("regulator %s: non-positive slew rate",
                       std::string(railName(rail)).c_str());
    if (efficiency <= 0.0 || efficiency > 1.0)
        SYSSCALE_FATAL("regulator %s: efficiency %.2f out of (0,1]",
                       std::string(railName(rail)).c_str(), efficiency);
}

Volt
Regulator::voltage(Tick now) const
{
    if (now >= rampEnd_)
        return target_;
    if (now <= rampStart_)
        return from_;
    const double t =
        static_cast<double>(now - rampStart_) /
        static_cast<double>(rampEnd_ - rampStart_);
    return from_ + t * (target_ - from_);
}

Tick
Regulator::rampLatency(Volt target, Tick now) const
{
    const double dv = std::fabs(target - voltage(now));
    return ticksFromSeconds(dv / slewRate_);
}

Tick
Regulator::rampTo(Volt target, Tick now)
{
    SYSSCALE_ASSERT(target >= 0.0, "negative rail voltage requested");
    const Volt cur = voltage(now);
    const Tick latency = rampLatency(target, now);
    from_ = cur;
    target_ = target;
    rampStart_ = now;
    rampEnd_ = now + latency;
    return latency;
}

Watt
Regulator::inputPower(Watt load_w) const
{
    SYSSCALE_ASSERT(load_w >= 0.0, "negative load power");
    return load_w / efficiency_;
}

void
Regulator::visitState(StateIO &io)
{
    io.field("from", from_);
    io.field("target", target_);
    io.field("ramp_start", rampStart_);
    io.field("ramp_end", rampEnd_);
}

} // namespace power
} // namespace sysscale
