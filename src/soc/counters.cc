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
PerfCounterBlock::sample()
{
    if (pendingTicks_ == 0) {
        // An idle sample period contributes zeros (the SoC slept).
        for (std::size_t i = 0; i < kNumCounters; ++i)
            windowSum_[i] += 0.0;
        ++windowCount_;
        ++samples_;
        return;
    }

    const double ms = msFromTicks(pendingTicks_);
    const double w = static_cast<double>(pendingTicks_);

    // Counts normalize to events/ms; occupancies to time-weighted
    // averages over the sample period.
    windowSum_[counterIndex(Counter::GfxLlcMisses)] +=
        pending_[counterIndex(Counter::GfxLlcMisses)] / ms;
    windowSum_[counterIndex(Counter::LlcOccupancyTracer)] +=
        pending_[counterIndex(Counter::LlcOccupancyTracer)] / w;
    windowSum_[counterIndex(Counter::LlcStalls)] +=
        pending_[counterIndex(Counter::LlcStalls)] / ms;
    windowSum_[counterIndex(Counter::IoRpq)] +=
        pending_[counterIndex(Counter::IoRpq)] / w;

    pending_.fill(0.0);
    pendingTicks_ = 0;
    ++windowCount_;
    ++samples_;
}

CounterSnapshot
PerfCounterBlock::windowAverage() const
{
    CounterSnapshot snap;
    if (windowCount_ == 0)
        return snap;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        snap.values[i] =
            windowSum_[i] / static_cast<double>(windowCount_);
    }
    return snap;
}

void
PerfCounterBlock::clearWindow()
{
    windowSum_.fill(0.0);
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
