#include "compute/llc.hh"

#include <cmath>
#include <cstring>

#include "power/power_model.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace compute {

Llc::Llc(Simulator &sim, SimObject *parent, std::size_t capacity_bytes)
    : SimObject(sim, parent, "llc"), capacityBytes_(capacity_bytes),
      cpuMisses_(this, "cpu_misses", "CPU-side LLC misses"),
      gfxMisses_(this, "gfx_misses", "graphics-side LLC misses"),
      stallCycles_(this, "stall_cycles",
                   "core cycles stalled on LLC misses")
{
    if (capacity_bytes == 0)
        SYSSCALE_FATAL("Llc: zero capacity");
}

double
Llc::missScale(std::size_t reference_bytes) const
{
    SYSSCALE_ASSERT(reference_bytes > 0, "zero LLC reference size");
    return std::sqrt(static_cast<double>(reference_bytes) /
                     static_cast<double>(capacityBytes_));
}

Watt
Llc::power(Volt voltage, double utilization) const
{
    SYSSCALE_ASSERT(utilization >= 0.0 && utilization <= 1.0,
                    "LLC utilization %.3f out of [0,1]", utilization);
    const Watt dynamic = power::dynamicPower(
        kCdynFarad, voltage, kAccessClock, 0.1 + 0.9 * utilization);
    std::uint64_t bits;
    std::memcpy(&bits, &voltage, sizeof bits);
    if (bits != leakVoltBits_) {
        leakVoltBits_ = bits;
        leak_ = power::leakagePower(kLeakK, voltage, 50.0);
    }
    return dynamic + leak_;
}

void
Llc::visitState(StateIO &io)
{
    io.field("last_gfx_misses", lastGfxMisses_);
    io.field("last_stall_cycles", lastStallCycles_);
    io.field("last_occupancy", lastOccupancy_);
}

} // namespace compute
} // namespace sysscale
