#include "soc/counters.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace soc {

PerfCounterBlock::PerfCounterBlock(Simulator &sim, SimObject *parent)
    : SimObject(sim, parent, "counters"),
      samples_(this, "samples", "PMU counter samples taken")
{
}

void
PerfCounterBlock::sample(std::uint64_t periods)
{
    // An idle sample period contributes zeros (the SoC slept).
    std::array<double, kNumCounters> folded{};
    if (pendingTicks_ != 0) {
        const double ms = msFromTicks(pendingTicks_);
        const double w = static_cast<double>(pendingTicks_);

        // Counts normalize to events/ms; occupancies to time-weighted
        // averages over the sample period.
        folded[counterIndex(Counter::GfxLlcMisses)] =
            pending_[counterIndex(Counter::GfxLlcMisses)].value() / ms;
        folded[counterIndex(Counter::LlcOccupancyTracer)] =
            pending_[counterIndex(Counter::LlcOccupancyTracer)].value() / w;
        folded[counterIndex(Counter::LlcStalls)] =
            pending_[counterIndex(Counter::LlcStalls)].value() / ms;
        folded[counterIndex(Counter::IoRpq)] =
            pending_[counterIndex(Counter::IoRpq)].value() / w;
    }
    for (std::size_t i = 0; i < kNumCounters; ++i)
        windowSum_[i].add(folded[i], periods);

    pending_ = {};
    pendingTicks_ = 0;
    windowCount_ += periods;
    samples_ += static_cast<double>(periods);
}

CounterSnapshot
PerfCounterBlock::windowAverage() const
{
    CounterSnapshot snap;
    if (windowCount_ == 0)
        return snap;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        snap.values[i] =
            windowSum_[i].value() / static_cast<double>(windowCount_);
    }
    return snap;
}

void
PerfCounterBlock::clearWindow()
{
    windowSum_ = {};
    windowCount_ = 0;
}

void
PerfCounterBlock::visitState(StateIO &io)
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        io.field("pending" + std::to_string(i), pending_[i]);
    io.field("pending_ticks", pendingTicks_);
    for (std::size_t i = 0; i < kNumCounters; ++i)
        io.field("window_sum" + std::to_string(i), windowSum_[i]);
    io.field("window_count", windowCount_);
}

} // namespace soc
} // namespace sysscale
