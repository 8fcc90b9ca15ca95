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
#include "sim/stats.hh"
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
     * One @p step ticks long step's counter terms, by counter index:
     * graphics LLC misses and stalled core cycles as they are, the CPU
     * requests pending at the MC and the IO reads pending in the
     * fabric (averages) times the step's ticks.
     */
    using StepTerms = std::array<stats::ExactSum::Term, kNumCounters>;
    static StepTerms stepTerms(double gfx_misses, double cpu_occupancy,
                               double stall_cycles, double io_rpq,
                               Tick step);

    /**
     * Accumulate @p n like model steps of @p step ticks, each adding
     * @p terms, bit-identical to n single accumulations.
     */
    void accumulate(const StepTerms &terms, Tick step,
                    std::uint64_t n = 1);

    /** accumulate() of the stepTerms() of these observables. */
    void
    accumulate(double gfx_misses, double cpu_occupancy,
               double stall_cycles, double io_rpq, Tick step,
               std::uint64_t n = 1)
    {
        const StepTerms t = stepTerms(gfx_misses, cpu_occupancy,
                                      stall_cycles, io_rpq, step);
        accumulate(t, step, n);
    }

    /**
     * PMU 1ms sampling hook: fold the accumulation since the last
     * sample into the evaluation window and clear it. With
     * @p periods > 1 the accumulation is folded as that many
     * identical sample periods: bit-identical to repeating, from
     * empty counters, the same accumulation and a sample each time.
     */
    void sample(std::uint64_t periods = 1);

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
    std::array<stats::ExactSum, kNumCounters> pending_{};
    Tick pendingTicks_ = 0;

    std::array<stats::ExactSum, kNumCounters> windowSum_{};
    std::size_t windowCount_ = 0;

    stats::Scalar samples_;
};

inline PerfCounterBlock::StepTerms
PerfCounterBlock::stepTerms(double gfx_misses, double cpu_occupancy,
                            double stall_cycles, double io_rpq, Tick step)
{
    const double w = static_cast<double>(step);
    StepTerms t;
    t[counterIndex(Counter::GfxLlcMisses)] = gfx_misses;
    t[counterIndex(Counter::LlcOccupancyTracer)] = cpu_occupancy * w;
    t[counterIndex(Counter::LlcStalls)] = stall_cycles;
    t[counterIndex(Counter::IoRpq)] = io_rpq * w;
    return t;
}

inline void
PerfCounterBlock::accumulate(const StepTerms &terms, Tick step,
                             std::uint64_t n)
{
    SYSSCALE_ASSERT(step > 0, "zero-length counter step");
    for (std::size_t i = 0; i < kNumCounters; ++i)
        pending_[i].add(terms[i], n);
    pendingTicks_ += step * n;
}

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_COUNTERS_HH
