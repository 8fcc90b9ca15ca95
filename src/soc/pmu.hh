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
 */

#ifndef SYSSCALE_SOC_PMU_HH
#define SYSSCALE_SOC_PMU_HH

#include <cstdint>

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

    /** Begin the periodic sampling/evaluation events. */
    void startup() override;

    Tick sampleInterval() const { return sampleInterval_; }
    Tick evaluationInterval() const { return evalInterval_; }

    /** Samples per evaluation window. */
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

  private:
    void onSample();
    void onEvaluate();

    Soc &soc_;
    PerfCounterBlock &counters_;
    Tick sampleInterval_;
    Tick evalInterval_;
    PmuPolicy *policy_ = nullptr;

    EventFunctionWrapper sampleEvent_;
    EventFunctionWrapper evalEvent_;

    stats::Scalar samplesTaken_;
    stats::Scalar evaluations_;
};

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_PMU_HH
