/**
 * @file
 * Power management unit (PMU) firmware host.
 *
 * The PMU runs the power-distribution algorithm "periodically at a
 * configurable time interval called evaluation interval (30ms by
 * default)" and "samples the performance counters and CSRs multiple
 * times in an evaluation interval (e.g., every 1ms)" (Sec. 4.3).
 * The policy itself (SysScale or a baseline) plugs in behind the
 * PmuPolicy interface; the PMU provides the cadence, the counter
 * access, and the firmware/SRAM budget accounting of Sec. 5.
 *
 * Counter sampling is a phase of the Soc's step: the Soc calls
 * afterStep() at the end of every step, slow or replayed, and a step
 * that ends on a sample tick samples there. Sampling touches only the
 * PerfCounterBlock, which nothing else at that tick reads or writes,
 * so a replay batch runs straight across sample ticks.
 *
 * Evaluation is the PMU's one event (`pmu.evaluate`, priority
 * kPrioStatsSample). It stays an event because a policy acts on the
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

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "soc/counters.hh"

namespace sysscale {
namespace soc {

class Soc;

/**
 * A power-management policy hosted by the PMU firmware.
 */
class PmuPolicy
{
  public:
    virtual ~PmuPolicy() = default;

    /** Policy name for reports. */
    virtual const char *name() const = 0;

    /** Called once when the policy is installed. */
    virtual void reset(Soc &soc) { (void)soc; }

    /**
     * Evaluation-interval hook: decide the operating point and the
     * compute budget from the window-averaged counters.
     */
    virtual void evaluate(Soc &soc, const CounterSnapshot &avg) = 0;

    /**
     * Firmware bytes this policy adds to the PMU image (Sec. 5
     * charges SysScale ~0.6KB).
     */
    virtual std::size_t firmwareBytes() const { return 0; }

    /** @name Snapshot support: stateless policies need nothing. @{ */
    virtual void saveState(SnapshotWriter &w) const { (void)w; }
    virtual void loadState(SnapshotReader &r) { (void)r; }
    /** @} */
};

/**
 * The PMU: sampling/evaluation cadence and policy hosting.
 */
class Pmu : public SimObject
{
  public:
    Pmu(Simulator &sim, Soc &soc, PerfCounterBlock &counters,
        Tick sample_interval, Tick evaluation_interval);
    ~Pmu() override;

    /** Install @p policy (not owned). Resets the window. */
    void setPolicy(PmuPolicy *policy);

    PmuPolicy *policy() { return policy_; }

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
     * Nothing is saved: the next sample tick is derived from the
     * restored now(). A snapshot is taken after runUntil() fired
     * every event at its tick, so the next sample is the first
     * multiple of the sample interval above now().
     */
    void loadState(SnapshotReader &r) override;

  private:
    /** Fold the counters into the window; arm the next sample. */
    void sample(Tick t);
    void onEvaluate();

    Soc &soc_;
    PerfCounterBlock &counters_;
    Tick sampleInterval_;
    Tick evalInterval_;
    PmuPolicy *policy_ = nullptr;
    Tick nextSample_ = 0;

    EventFunctionWrapper evalEvent_;

    stats::Scalar samplesTaken_;
    stats::Scalar evaluations_;
};

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_PMU_HH
