#include "soc/pmu.hh"

#include "sim/logging.hh"
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
Pmu::setPolicy(PmuPolicy *policy)
{
    policy_ = policy;
    counters_.clearWindow();
    if (policy_) {
        if (policy_->firmwareBytes() > kFirmwareBudgetBytes) {
            SYSSCALE_FATAL(
                "policy '%s' needs %zu firmware bytes, budget is %zu",
                policy_->name(), policy_->firmwareBytes(),
                kFirmwareBudgetBytes);
        }
        policy_->reset(soc_);
    }
}

void
Pmu::startup()
{
    nextSample_ = now() + sampleInterval_;
    eventq().schedule(&evalEvent_, now() + evalInterval_);
}

void
Pmu::loadState(SnapshotReader &r)
{
    (void)r;
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
    if (policy_) {
        const CounterSnapshot avg = counters_.windowAverage();
        policy_->evaluate(soc_, avg);
        ++evaluations_;
    }
    counters_.clearWindow();
    sample(now());
    eventq().schedule(&evalEvent_, now() + evalInterval_);
}

} // namespace soc
} // namespace sysscale
