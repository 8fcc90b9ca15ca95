#include "mem/ddrio.hh"

#include "power/power_model.hh"
#include "sim/logging.hh"

namespace sysscale {
namespace mem {

Ddrio::Ddrio(const dram::DramSpec &spec, Volt v_io, double cdyn_farad,
             double leak_k)
    : spec_(spec), vio_(v_io), cdyn_(cdyn_farad), leakK_(leak_k)
{
    if (v_io <= 0.0)
        SYSSCALE_FATAL("Ddrio: non-positive V_IO %.3f", v_io);
    setVio(v_io);
}

void
Ddrio::setBin(std::size_t bin_index)
{
    SYSSCALE_ASSERT(bin_index < spec_.numBins(),
                    "Ddrio bin %zu out of range", bin_index);
    binIndex_ = bin_index;
}

void
Ddrio::setVio(Volt v)
{
    SYSSCALE_ASSERT(v > 0.0, "Ddrio: non-positive V_IO %.3f", v);
    vio_ = v;
    leakage_ = power::leakagePower(leakK_, vio_, 50.0);
}

Hertz
Ddrio::clock() const
{
    return spec_.bin(binIndex_).busClock();
}

Watt
Ddrio::digitalPower(double utilization, double activity_factor) const
{
    SYSSCALE_ASSERT(utilization >= 0.0 && utilization <= 1.0,
                    "Ddrio utilization %.3f out of [0,1]", utilization);

    // Clock trees and control logic toggle regardless of traffic;
    // the data path scales with bus utilization.
    const double activity =
        (0.30 + 0.70 * utilization) * activity_factor;
    const Watt dynamic =
        power::dynamicPower(cdyn_, vio_, clock(), activity);
    return dynamic + leakage_;
}

Watt
Ddrio::powerAt(Volt v_io, Hertz clock, double utilization,
               double activity_factor)
{
    const double activity =
        (0.30 + 0.70 * utilization) * activity_factor;
    const Watt dynamic =
        power::dynamicPower(kCdynFarad, v_io, clock, activity);
    const Watt leak = power::leakagePower(kLeakK, v_io, 50.0);
    return dynamic + leak;
}

} // namespace mem
} // namespace sysscale
