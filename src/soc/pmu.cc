#include "soc/pmu.hh"

#include <string>

#include "core/governor.hh"
#include "core/governor_driver.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace soc {

Pmu::Pmu(Simulator &sim, Soc &soc, PerfCounterBlock &counters,
         Tick sample_interval, Tick evaluation_interval)
    : SimObject(sim, &soc, "pmu"), soc_(soc), counters_(counters),
      sampleInterval_(sample_interval),
      evalInterval_(evaluation_interval),
      evalEvent_("pmu.evaluate", [this] { onEvaluate(); },
                 Event::kPrioStatsSample),
      samplesTaken_(this, "samples", "counter samples taken"),
      evaluations_(this, "evaluations", "policy evaluations run")
{
    if (sample_interval == 0 || evaluation_interval == 0)
        SYSSCALE_FATAL("Pmu: zero cadence interval");
    if (evaluation_interval % sample_interval != 0)
        SYSSCALE_FATAL("Pmu: evaluation interval not a multiple of "
                       "the sample interval");
}

Pmu::~Pmu()
{
    if (evalEvent_.scheduled())
        eventq().deschedule(&evalEvent_);
}

void
Pmu::setGovernor(core::Governor *gov)
{
    if (gov && gov->firmwareBytes() > kFirmwareBudgetBytes) {
        SYSSCALE_FATAL(
            "governor '%s' needs %zu firmware bytes, budget is %zu",
            gov->name(), gov->firmwareBytes(), kFirmwareBudgetBytes);
    }
    governor_ = gov;
    counters_.clearWindow();
    if (!governor_) {
        driver_.reset();
        return;
    }
    // One fresh driver per install: mechanics state (latency limit,
    // flow accounting) never leaks between installs, even when the
    // governor object itself is reused.
    driver_ = std::make_unique<core::GovernorDriver>(
        soc_, governor_->flowOptions(), governor_->redistributes());
    governor_->init(*driver_, soc_);
    driver_->refreshBudget();
}

core::GovernorDriver &
Pmu::driver()
{
    SYSSCALE_ASSERT(driver_ != nullptr, "PMU has no governor installed");
    return *driver_;
}

CounterSnapshot
Pmu::runAverage() const
{
    CounterSnapshot out;
    if (evaluations_.value() == 0.0)
        return out;
    for (std::size_t i = 0; i < kNumCounters; ++i)
        out.values[i] = runSum_.values[i] / evaluations_.value();
    return out;
}

void
Pmu::startup()
{
    nextSample_ = now() + sampleInterval_;
    eventq().schedule(&evalEvent_, now() + evalInterval_);
}

void
Pmu::visitState(StateIO &io)
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        io.field("run_sum" + std::to_string(i), runSum_.values[i]);
    if (governor_) {
        io.push("driver");
        driver_->visitState(io);
        io.pop();
        io.push("gov");
        governor_->visitState(io);
        io.pop();
    }
    if (io.loading())
        nextSample_ = (now() / sampleInterval_ + 1) * sampleInterval_;
}

void
Pmu::sample(Tick t)
{
    counters_.sample();
    ++samplesTaken_;
    nextSample_ = t + sampleInterval_;
}

void
Pmu::onEvaluate()
{
    const CounterSnapshot avg = counters_.windowAverage();
    if (governor_)
        governor_->decide(*driver_, soc_, avg);
    ++evaluations_;
    for (std::size_t i = 0; i < kNumCounters; ++i)
        runSum_.values[i] += avg.values[i];
    counters_.clearWindow();
    sample(now());
    eventq().schedule(&evalEvent_, now() + evalInterval_);
}

} // namespace soc
} // namespace sysscale
