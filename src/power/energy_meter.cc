#include "power/energy_meter.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace power {

void
EnergyMeter::addPower(Rail rail, Watt watts, Tick duration)
{
    SYSSCALE_ASSERT(watts >= 0.0, "negative power on rail %s",
                    std::string(railName(rail)).c_str());
    energy_[railIndex(rail)] += watts * secondsFromTicks(duration);
}

Joule
EnergyMeter::railEnergy(Rail rail) const
{
    return energy_[railIndex(rail)];
}

Joule
EnergyMeter::totalEnergy() const
{
    Joule sum = 0.0;
    for (auto e : energy_)
        sum += e;
    return sum;
}

Watt
EnergyMeter::railAveragePower(Rail rail, Tick now) const
{
    if (now <= windowStart_)
        return 0.0;
    return railEnergy(rail) / secondsFromTicks(now - windowStart_);
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
    energy_.fill(0.0);
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
