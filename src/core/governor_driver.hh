/**
 * @file
 * The governor driver layer (CPUFreq-style split, mechanics half).
 *
 * The driver is the only component that applies operating-point
 * grants to the SoC. It owns the Fig. 5 TransitionFlow, recomputes
 * the compute-domain power budget after every request, enforces an
 * optional transition-latency constraint, and counts the flows it
 * ran and the requests it denied. The PMU builds one per governor
 * install (soc::Pmu::setGovernor).
 *
 * Policies (core/governor.hh implementations) must route every SoC
 * mutation through this class; the repo-invariant linter's
 * governor-soc-mutation check rejects direct Soc mutator calls from
 * policy files.
 */

#ifndef SYSSCALE_CORE_GOVERNOR_DRIVER_HH
#define SYSSCALE_CORE_GOVERNOR_DRIVER_HH

#include "core/transition_flow.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace core {

/**
 * Mechanics layer: applies policy decisions to one SoC.
 */
class GovernorDriver
{
  public:
    GovernorDriver(soc::Soc &soc, FlowOptions opts,
                   bool redistribute);

    /**
     * Apply @p target: run the transition flow (a no-op if already
     * there) and recompute the compute budget. Returns false when
     * the transition-latency constraint denied the request (budgets
     * are still refreshed so the billing cadence never skips).
     */
    bool requestOpPoint(const soc::OperatingPoint &target);

    /** Recompute the compute-domain budget without transitioning. */
    void refreshBudget();

    /** Cap the CPU core clock (0 = uncapped). Mechanics passthrough
     *  so policies never call Soc mutators directly. */
    void setCoreFreqCap(Hertz cap);

    /** @name Transition-latency constraint.
     *
     * With a non-zero limit, requestOpPoint() denies any transition
     * whose estimated flow latency exceeds it (the estimate is
     * TransitionFlow::estimate(): fixed step costs + voltage ramp +
     * MRC path, excluding traffic-dependent drain). 0 disables the
     * constraint.
     * @{ */
    void setTransitionLatencyLimit(Tick limit) { latencyLimit_ = limit; }
    Tick transitionLatencyLimit() const { return latencyLimit_; }
    Tick estimateTransitionLatency(
        const soc::OperatingPoint &target) const;
    /** @} */

    bool redistributes() const { return redistribute_; }
    const FlowOptions &flowOptions() const { return opts_; }

    /** @name Transition accounting (diagnostics). @{ */
    std::uint64_t flowRuns() const { return flowRuns_; }
    Tick lastFlowLatency() const { return lastFlowLatency_; }
    Tick totalFlowLatency() const { return totalFlowLatency_; }
    std::uint64_t deniedRequests() const { return denied_; }
    /** @} */

    /** Snapshot support: the latency constraint + accounting
     *  (the flow itself is synchronous and holds no cross-eval
     *  state). */
    void visitState(StateIO &io);

  private:
    soc::Soc &soc_;
    FlowOptions opts_;
    bool redistribute_;
    TransitionFlow flow_;

    Tick latencyLimit_ = 0;
    std::uint64_t flowRuns_ = 0;
    Tick lastFlowLatency_ = 0;
    Tick totalFlowLatency_ = 0;
    std::uint64_t denied_ = 0;
};

} // namespace core
} // namespace sysscale

#endif // SYSSCALE_CORE_GOVERNOR_DRIVER_HH
