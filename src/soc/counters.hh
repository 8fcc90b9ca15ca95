/**
 * @file
 * The four SysScale performance counters (paper Sec. 4.2).
 *
 *  - GFX_LLC_MISSES: LLC misses from the graphics engines
 *    (graphics bandwidth demand indicator).
 *  - LLC_Occupancy_Tracer: CPU requests waiting for the memory
 *    controller (CPU bandwidth-limit indicator).
 *  - LLC_STALLS: core cycles stalled on a busy LLC (memory-latency
 *    bound indicator).
 *  - IO_RPQ: IO read-pending-queue occupancy (IO-limited indicator).
 *
 * The PMU samples the block every millisecond and averages the
 * samples over each 30ms evaluation interval (Sec. 4.3). Counter
 * values are normalized to events per millisecond so thresholds are
 * cadence-independent.
 */

#ifndef SYSSCALE_SOC_COUNTERS_HH
#define SYSSCALE_SOC_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace soc {

/** Counter identifiers. */
enum class Counter : std::uint8_t
{
    GfxLlcMisses = 0,
    LlcOccupancyTracer = 1,
    LlcStalls = 2,
    IoRpq = 3,
};

constexpr std::size_t kNumCounters = 4;

constexpr std::array<Counter, kNumCounters> kAllCounters = {
    Counter::GfxLlcMisses, Counter::LlcOccupancyTracer,
    Counter::LlcStalls, Counter::IoRpq,
};

constexpr std::string_view
counterName(Counter c)
{
    switch (c) {
      case Counter::GfxLlcMisses: return "GFX_LLC_MISSES";
      case Counter::LlcOccupancyTracer: return "LLC_Occupancy_Tracer";
      case Counter::LlcStalls: return "LLC_STALLS";
      case Counter::IoRpq: return "IO_RPQ";
    }
    return "?";
}

constexpr std::size_t
counterIndex(Counter c)
{
    return static_cast<std::size_t>(c);
}

/** One reading of all four counters (events per millisecond). */
struct CounterSnapshot
{
    std::array<double, kNumCounters> values{};

    double
    operator[](Counter c) const
    {
        return values[counterIndex(c)];
    }

    double &
    operator[](Counter c)
    {
        return values[counterIndex(c)];
    }
};

/**
 * The counter block: model-side accumulation, PMU-side sampling.
 */
class PerfCounterBlock : public SimObject
{
  public:
    PerfCounterBlock(Simulator &sim, SimObject *parent);

    /**
     * Accumulate one model step's raw observables.
     *
     * @param gfx_misses Graphics LLC misses this step.
     * @param cpu_occupancy Average CPU requests pending at the MC.
     * @param stall_cycles Core cycles stalled on misses this step.
     * @param io_rpq Average IO reads pending in the fabric.
     * @param step Step length in ticks.
     */
    void accumulate(double gfx_misses, double cpu_occupancy,
                    double stall_cycles, double io_rpq, Tick step);

    /**
     * PMU 1ms sampling hook: fold the accumulation since the last
     * sample into the evaluation window and clear it.
     */
    void sample();

    /** Average of the samples collected in the current window. */
    CounterSnapshot windowAverage() const;

    /** Number of samples in the current window. */
    std::size_t windowSamples() const { return windowCount_; }

    /** PMU evaluation hook: clear the window. */
    void clearWindow();

    /** Snapshot support: pending + window accumulation. */
    void visitState(StateIO &io) override;

  private:
    // Occupancy-style observables are time-weighted within the
    // sample; count-style ones accumulate.
    std::array<double, kNumCounters> pending_{};
    Tick pendingTicks_ = 0;

    std::array<double, kNumCounters> windowSum_{};
    std::size_t windowCount_ = 0;

    stats::Scalar samples_;
};

inline void
PerfCounterBlock::accumulate(double gfx_misses, double cpu_occupancy,
                             double stall_cycles, double io_rpq,
                             Tick step)
{
    SYSSCALE_ASSERT(step > 0, "zero-length counter step");

    const double w = static_cast<double>(step);
    pending_[counterIndex(Counter::GfxLlcMisses)] += gfx_misses;
    pending_[counterIndex(Counter::LlcOccupancyTracer)] +=
        cpu_occupancy * w;
    pending_[counterIndex(Counter::LlcStalls)] += stall_cycles;
    pending_[counterIndex(Counter::IoRpq)] += io_rpq * w;
    pendingTicks_ += step;
}

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_COUNTERS_HH
