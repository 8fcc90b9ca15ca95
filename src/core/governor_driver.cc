#include "core/governor_driver.hh"

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace core {

GovernorDriver::GovernorDriver(soc::Soc &soc, FlowOptions opts,
                               bool redistribute)
    : soc_(soc), opts_(opts), redistribute_(redistribute),
      flow_(soc, opts)
{
}

Tick
GovernorDriver::estimateTransitionLatency(
    const soc::OperatingPoint &target) const
{
    return flow_.estimate(target);
}

bool
GovernorDriver::requestOpPoint(const soc::OperatingPoint &target)
{
    const soc::OperatingPoint from = soc_.currentOpPoint();

    if (!(from == target) && latencyLimit_ != 0 &&
        flow_.estimate(target) > latencyLimit_) {
        ++denied_;
        TRACE_INSTANT(soc_.traceSink(), obs::kCatGovernor, "denied",
                      soc_.now(),
                      obs::kv("target", target.name) + "," +
                          obs::kv("estimate_ns",
                                  nsFromTicks(flow_.estimate(target))) +
                          "," +
                          obs::kv("limit_ns",
                                  nsFromTicks(latencyLimit_)));
        debugLog("governor: denied %s (estimate above budget)",
                 target.name.c_str());
        refreshBudget();
        return false;
    }

    const FlowReport report = flow_.execute(target);
    if (report.executed) {
        ++flowRuns_;
        lastFlowLatency_ = report.totalLatency;
        totalFlowLatency_ += report.totalLatency;
        TRACE_INSTANT(soc_.traceSink(), obs::kCatGovernor, "grant",
                      soc_.now(),
                      obs::kv("from", from.name) + "," +
                          obs::kv("to", target.name) + "," +
                          obs::kv("latency_ns",
                                  nsFromTicks(report.totalLatency)));
    }

    refreshBudget();
    return true;
}

void
GovernorDriver::refreshBudget()
{
    // Without redistribution the compute domain keeps the worst-case
    // allocation of the *high* point — saved IO/memory power is
    // simply not spent (pure MemScale/CoScale, Sec. 6).
    const soc::OperatingPoint &billing =
        redistribute_ ? soc_.currentOpPoint()
                      : soc_.opPoints().high();

    // PMU budget tables cost a trained interface; a governor running
    // unoptimized MRC (MemScale/CoScale) physically draws more than
    // it budgets, which is part of why the paper calls unoptimized
    // registers able to "negate potential benefits" (Sec. 3).
    const Watt iomem =
        soc::ioMemBudgetDemand(soc_.config(), billing, true);
    const Watt compute = soc_.pbm().computeBudget(iomem, 0.0);
    soc_.setComputeBudget(compute);
    TRACE_COUNTER(soc_.traceSink(), obs::kCatPower, "compute_budget_w",
                  soc_.now(), compute);
    TRACE_COUNTER(soc_.traceSink(), obs::kCatPower, "iomem_budget_w",
                  soc_.now(), iomem);
}

void
GovernorDriver::setCoreFreqCap(Hertz cap)
{
    soc_.setCoreFreqCap(cap);
}

void
GovernorDriver::visitState(StateIO &io)
{
    io.field("latency_limit", latencyLimit_);
    io.field("flow_runs", flowRuns_);
    io.field("last_flow_latency", lastFlowLatency_);
    io.field("total_flow_latency", totalFlowLatency_);
    io.field("denied", denied_);
}

} // namespace core
} // namespace sysscale
