/**
 * @file
 * Workload phase profiles.
 *
 * The paper evaluates real binaries (SPEC CPU2006, 3DMark, battery
 * suites) on lab hardware; this repository substitutes calibrated
 * phase profiles that encode each workload's *bottleneck structure*
 * — base CPI, miss rate, memory-level parallelism, bandwidth demand,
 * graphics frame work, and package idle residency per phase — which
 * is the property every SysScale experiment actually depends on.
 * Profiles loop: a benchmark's phase sequence repeats until the run
 * window closes, so measurement windows of any length see the same
 * phase mix.
 */

#ifndef SYSSCALE_WORKLOADS_PROFILE_HH
#define SYSSCALE_WORKLOADS_PROFILE_HH

#include <string>
#include <vector>

#include "soc/workload_agent.hh"

namespace sysscale {
namespace workloads {

/** Workload taxonomy used by Fig. 6 and the evaluation sections. */
enum class WorkloadClass
{
    CpuSingleThread,
    CpuMultiThread,
    Graphics,
    BatteryLife,
    Micro,
};

const char *workloadClassName(WorkloadClass c);

/** One phase of a workload. */
struct Phase
{
    Tick duration = 100 * kTicksPerMs;

    /** Work per active hardware thread. */
    compute::CoreWork work{};

    /** Threads running this phase (1 = single-thread). */
    std::size_t activeThreads = 1;

    compute::GfxWork gfxWork{};

    BytesPerSec ioBestEffort = 0.0;

    compute::CStateResidency residency{};

    /** OS/driver P-state requests (0 = maximum). */
    Hertz coreFreqRequest = 0.0;
    Hertz gfxFreqRequest = 0.0;

    bool
    operator==(const Phase &o) const
    {
        return duration == o.duration && work == o.work &&
               activeThreads == o.activeThreads &&
               gfxWork == o.gfxWork &&
               ioBestEffort == o.ioBestEffort &&
               residency == o.residency &&
               coreFreqRequest == o.coreFreqRequest &&
               gfxFreqRequest == o.gfxFreqRequest;
    }
};

/**
 * A named, phased workload.
 */
class WorkloadProfile
{
  public:
    WorkloadProfile() = default;

    WorkloadProfile(std::string name, WorkloadClass klass,
                    std::vector<Phase> phases,
                    double perf_scalability = 1.0);

    const std::string &name() const { return name_; }
    WorkloadClass klass() const { return klass_; }

    /**
     * Performance scalability with CPU frequency (Sec. 6): the
     * fraction of a frequency increase that converts to performance.
     */
    double perfScalability() const { return perfScalability_; }

    std::size_t numPhases() const { return phases_.size(); }
    const Phase &phase(std::size_t i) const;
    const std::vector<Phase> &phases() const { return phases_; }

    /** Length of one pass through all phases. */
    Tick period() const { return period_; }

    /** Phase active at @p offset into the (cyclic) profile. */
    const Phase &phaseAt(Tick offset) const;

    /** Peak memory bandwidth demanded across phases (diagnostics). */
    BytesPerSec peakBandwidthHint(double mem_latency_ns,
                                  Hertz core_freq) const;

    bool
    operator==(const WorkloadProfile &o) const
    {
        return name_ == o.name_ && klass_ == o.klass_ &&
               phases_ == o.phases_ &&
               perfScalability_ == o.perfScalability_;
    }

  private:
    std::string name_;
    WorkloadClass klass_ = WorkloadClass::CpuSingleThread;
    std::vector<Phase> phases_;
    double perfScalability_ = 1.0;
    Tick period_ = 0;
};

/**
 * Adapter presenting a WorkloadProfile to the SoC.
 */
class ProfileAgent : public soc::WorkloadAgent
{
  public:
    /**
     * @param profile Profile to run (copied).
     * @param repeats Passes through the profile before finishing;
     *        0 means loop forever.
     */
    explicit ProfileAgent(WorkloadProfile profile,
                          std::size_t repeats = 0);

    void demandAt(Tick now, soc::IntervalDemand &demand) override;
    bool finished(Tick now) const override;
    Tick demandHorizon(Tick now) override;

    const WorkloadProfile &profile() const { return profile_; }

  private:
    const Phase &currentPhase(Tick offset);

    WorkloadProfile profile_;
    std::size_t repeats_;

    /**
     * Cursor over the cyclic phase list. Simulation offsets advance
     * monotonically, so resuming the scan from the last phase makes
     * the per-step lookup O(1) amortized instead of a linear scan of
     * the whole list (WorkloadProfile::phaseAt); an offset that
     * moves backwards just resets the cursor.
     */
    std::size_t cursorIndex_ = 0;
    Tick cursorBegin_ = 0; //!< Offset-in-period where the phase starts.
};

} // namespace workloads
} // namespace sysscale

#endif // SYSSCALE_WORKLOADS_PROFILE_HH
