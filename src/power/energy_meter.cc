#include "power/energy_meter.hh"

#include "sim/snapshot.hh"

namespace sysscale {
namespace power {

Joule
EnergyMeter::totalEnergy() const
{
    Joule sum = 0.0;
    for (const stats::ExactSum &e : energy_)
        sum += e.value();
    return sum;
}

Watt
EnergyMeter::averagePower(Tick now) const
{
    if (now <= windowStart_)
        return 0.0;
    return totalEnergy() / secondsFromTicks(now - windowStart_);
}

void
EnergyMeter::reset(Tick now)
{
    energy_ = {};
    windowStart_ = now;
}

void
EnergyMeter::visitState(StateIO &io)
{
    for (std::size_t i = 0; i < energy_.size(); ++i)
        io.field("energy" + std::to_string(i), energy_[i]);
    io.field("window_start", windowStart_);
}

} // namespace power
} // namespace sysscale
