/**
 * @file
 * Fundamental simulation types and unit helpers.
 *
 * The kernel counts time in integer picoseconds ("ticks", as in gem5)
 * so that event ordering is exact and platform independent. All
 * user-facing helpers convert between ticks and SI units.
 */

#ifndef SYSSCALE_SIM_TYPES_HH
#define SYSSCALE_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace sysscale {

// Snapshot machinery (sim/snapshot.hh), forward-declared here so any
// component header can declare its visitState hook without pulling
// the full codec in.
class SnapshotWriter;
class SnapshotReader;
class StateIO;

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Cycle count within some clock domain. */
using Cycles = std::uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** @name Tick scale constants. @{ */
constexpr Tick kTicksPerPs = 1;
constexpr Tick kTicksPerNs = 1000 * kTicksPerPs;
constexpr Tick kTicksPerUs = 1000 * kTicksPerNs;
constexpr Tick kTicksPerMs = 1000 * kTicksPerUs;
constexpr Tick kTicksPerSec = 1000 * kTicksPerMs;
/** @} */

/** @name Conversions from SI time to ticks. @{ */
constexpr Tick
ticksFromNs(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

constexpr Tick
ticksFromMs(double ms)
{
    return static_cast<Tick>(ms * static_cast<double>(kTicksPerMs) + 0.5);
}

constexpr Tick
ticksFromSeconds(double s)
{
    return static_cast<Tick>(s * static_cast<double>(kTicksPerSec) + 0.5);
}
/** @} */

/** @name Conversions from ticks to SI time. @{ */
constexpr double
nsFromTicks(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

constexpr double
usFromTicks(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerUs);
}

constexpr double
msFromTicks(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerMs);
}

constexpr double
secondsFromTicks(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerSec);
}
/** @} */

/** Frequency in hertz. Stored as double; mobile SoC clocks are < 2^53. */
using Hertz = double;

constexpr Hertz kKHz = 1e3;
constexpr Hertz kMHz = 1e6;
constexpr Hertz kGHz = 1e9;

/** Voltage in volts. */
using Volt = double;

/** Power in watts. */
using Watt = double;

/** Energy in joules. */
using Joule = double;

/** Temperature in degrees Celsius. */
using Celsius = double;

/** Bandwidth in bytes per second. */
using BytesPerSec = double;

constexpr BytesPerSec kGBps = 1e9;
constexpr BytesPerSec kMBps = 1e6;

} // namespace sysscale

#endif // SYSSCALE_SIM_TYPES_HH
