/**
 * @file
 * Power management unit (PMU) firmware host.
 *
 * The PMU runs the power-distribution algorithm "periodically at a
 * configurable time interval called evaluation interval (30ms by
 * default)" and "samples the performance counters and CSRs multiple
 * times in an evaluation interval (e.g., every 1ms)" (Sec. 4.3).
 * The policy itself (SysScale or a baseline) is a core::Governor the
 * PMU hosts directly: the PMU provides the cadence, the counter
 * access, the firmware/SRAM budget accounting of Sec. 5, and one
 * fresh core::GovernorDriver per install for the governor to act
 * through. With no governor installed the PMU still evaluates: it
 * averages its own counters over the run (runAverage()).
 *
 * Counter sampling is a phase of the Soc's step: the Soc calls
 * afterStep() at the end of every step, slow or replayed, and a step
 * that ends on a sample tick samples there. Sampling touches only the
 * PerfCounterBlock, which nothing else at that tick reads or writes,
 * so a replay batch runs straight across sample ticks.
 *
 * Evaluation is the PMU's one event (`pmu.evaluate`, priority
 * kPrioStatsSample). It stays an event because a governor acts on the
 * Soc: a scenario action scheduled between the last step and the
 * evaluation tick must keep firing before it. At a tick that is both
 * an evaluation and a sample tick, the step leaves the sample to
 * onEvaluate(), which evaluates, clears the window and then samples.
 * So the first window holds one sample fewer than samplesPerWindow()
 * (the sample at tick 0 is never taken) and every later window holds
 * samplesPerWindow().
 */

#ifndef SYSSCALE_SOC_PMU_HH
#define SYSSCALE_SOC_PMU_HH

#include <cstdint>
#include <memory>

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "soc/counters.hh"

namespace sysscale {

namespace core {
class Governor;
class GovernorDriver;
} // namespace core

namespace soc {

class Soc;

/**
 * The PMU: sampling/evaluation cadence and governor hosting.
 */
class Pmu : public SimObject
{
  public:
    Pmu(Simulator &sim, Soc &soc, PerfCounterBlock &counters,
        Tick sample_interval, Tick evaluation_interval);
    ~Pmu() override;

    /**
     * Install @p gov (borrowed; null uninstalls). Checks its firmware
     * budget, clears the counter window, builds a fresh driver from
     * the governor's flow options, calls init() and refreshes the
     * compute budget, in that order.
     */
    void setGovernor(core::Governor *gov);

    /** The installed governor's driver, rebuilt on every install. */
    core::GovernorDriver &driver();

    /**
     * Mean of the window averages of every evaluation so far (all
     * zero before the first).
     */
    CounterSnapshot runAverage() const;

    /** Arm the first sample and schedule the first evaluation. */
    void startup() override;

    /**
     * Step phase: take the counter sample due at @p t, the tick of
     * a step (slow or replayed) that just committed. A sample tick
     * that is also an evaluation tick is left to onEvaluate(). One
     * compare on the common path: this runs for every replayed step.
     */
    void
    afterStep(Tick t)
    {
        SYSSCALE_ASSERT(t <= nextSample_, "step skipped a PMU sample");
        if (t == nextSample_ &&
            !(evalEvent_.scheduled() && evalEvent_.when() == t)) {
            sample(t);
        }
    }

    Tick sampleInterval() const { return sampleInterval_; }
    Tick evaluationInterval() const { return evalInterval_; }

    /**
     * Samples in every evaluation window but the first, which lacks
     * the sample at tick 0 and holds one fewer.
     */
    std::size_t samplesPerWindow() const
    {
        return static_cast<std::size_t>(evalInterval_ /
                                        sampleInterval_);
    }

    /** Total evaluations run. */
    std::uint64_t evaluations() const
    {
        return static_cast<std::uint64_t>(evaluations_.value());
    }

    /** Firmware SRAM budget for policy code (Sec. 5: ~0.6KB). */
    static constexpr std::size_t kFirmwareBudgetBytes = 640;

    /**
     * Snapshot support: the run sum, plus the driver and the
     * governor's own state when one is installed. The next sample
     * tick is derived from the restored now(): a snapshot is taken
     * after runUntil() fired every event at its tick, so the next
     * sample is the first multiple of the sample interval above
     * now().
     */
    void visitState(StateIO &io) override;

  private:
    /** Fold the counters into the window; arm the next sample. */
    void sample(Tick t);
    void onEvaluate();

    Soc &soc_;
    PerfCounterBlock &counters_;
    Tick sampleInterval_;
    Tick evalInterval_;
    core::Governor *governor_ = nullptr;
    std::unique_ptr<core::GovernorDriver> driver_;
    /** Sum of every evaluated window's average (runAverage()). */
    CounterSnapshot runSum_;
    Tick nextSample_ = 0;

    EventFunctionWrapper evalEvent_;

    stats::Scalar samplesTaken_;
    stats::Scalar evaluations_;
};

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_PMU_HH
