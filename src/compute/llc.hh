/**
 * @file
 * Last-level cache model.
 *
 * The LLC is shared by CPU cores and graphics (Sec. 2.1) and sits on
 * the core rail. Workload profiles carry their miss statistics at the
 * reference 4MB capacity; the model provides the capacity-scaling
 * rule, tracks the stall/occupancy observables behind the paper's new
 * performance counters (Sec. 4.2), and contributes cache power.
 */

#ifndef SYSSCALE_COMPUTE_LLC_HH
#define SYSSCALE_COMPUTE_LLC_HH

#include <cstdint>

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace compute {

/**
 * The shared last-level cache.
 */
class Llc : public SimObject
{
  public:
    /**
     * @param sim Simulation context.
     * @param parent Owning SimObject.
     * @param capacity_bytes Cache capacity (4MB per Table 2).
     */
    Llc(Simulator &sim, SimObject *parent, std::size_t capacity_bytes);

    /**
     * Miss-rate multiplier for a profile characterized at
     * @p reference_bytes, using the square-root capacity rule.
     */
    double missScale(std::size_t reference_bytes) const;

    /**
     * Record @p n like intervals of LLC activity (feeds the
     * counters), bit-identical to n single records.
     *
     * @param cpu_misses CPU-side misses per interval.
     * @param gfx_misses Graphics-side misses per interval.
     * @param stall_cycles Core cycles stalled on LLC misses.
     * @param pending_occupancy Average requests waiting on the MC.
     * @param n Intervals recorded.
     */
    void recordInterval(const stats::ExactSum::Term &cpu_misses,
                        const stats::ExactSum::Term &gfx_misses,
                        const stats::ExactSum::Term &stall_cycles,
                        double pending_occupancy, std::uint64_t n = 1);

    /** @name Last-interval observables (counter sources). @{ */
    double lastGfxMisses() const { return lastGfxMisses_; }
    double lastStallCycles() const { return lastStallCycles_; }
    double lastPendingOccupancy() const { return lastOccupancy_; }
    /** @} */

    /**
     * Cache power at @p voltage with @p utilization. The leakage term
     * is memoized on the bit pattern of @p voltage: the core rail only
     * moves on a P-state change, so consecutive steps reuse it.
     */
    Watt power(Volt voltage, double utilization) const;

    /** Leakage coefficient of the array at (0.8V, 50C). */
    static constexpr double kLeakK = 0.080;

    /** Effective switched capacitance of the array + tags. */
    static constexpr double kCdynFarad = 150e-12;

    /** Access clock assumed for the dynamic component. */
    static constexpr Hertz kAccessClock = 1.0 * kGHz;

    /** Snapshot support: last-interval observables. */
    void visitState(StateIO &io) override;

  private:
    std::size_t capacityBytes_;
    double lastGfxMisses_ = 0.0;
    double lastStallCycles_ = 0.0;
    double lastOccupancy_ = 0.0;

    /**
     * @name One-entry leakage memo (never snapshotted).
     * Zero-initialized it is already consistent: leakagePower() at
     * +0.0 V is exactly 0 W.
     * @{ */
    mutable std::uint64_t leakVoltBits_ = 0; //!< Bit pattern of the volt.
    mutable Watt leak_ = 0.0;
    /** @} */

    stats::Scalar cpuMisses_;
    stats::Scalar gfxMisses_;
    stats::Scalar stallCycles_;
};

inline void
Llc::recordInterval(const stats::ExactSum::Term &cpu_misses,
                    const stats::ExactSum::Term &gfx_misses,
                    const stats::ExactSum::Term &stall_cycles,
                    double pending_occupancy, std::uint64_t n)
{
    lastGfxMisses_ = gfx_misses.value();
    lastStallCycles_ = stall_cycles.value();
    lastOccupancy_ = pending_occupancy;

    cpuMisses_.add(cpu_misses, n);
    gfxMisses_.add(gfx_misses, n);
    stallCycles_.add(stall_cycles, n);
}

} // namespace compute
} // namespace sysscale

#endif // SYSSCALE_COMPUTE_LLC_HH
