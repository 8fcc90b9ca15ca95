/**
 * @file
 * The paper's governors, re-homed on the policy layer.
 *
 * Every class here is pure policy (core/governor.hh): it reads
 * counters and SoC state and requests operating points through the
 * GovernorDriver, which owns the transition flow and the budget
 * arithmetic. What distinguishes the governors is which FlowOptions
 * knobs they unlock and how they decide:
 *
 *  - FixedGovernor: the paper's baseline — IO and memory domains
 *    pinned at the high operating point, worst-case budgets.
 *  - SysScaleGovernor: the paper's contribution — the five-condition
 *    algorithm of Sec. 4.3 over the four counters plus the static
 *    demand table, full multi-domain scaling, SRAM-cached per-bin
 *    MRC, and power-budget redistribution.
 *  - MemScaleGovernor: memory-domain-only DVFS [Deng+, ASPLOS'11]:
 *    scales the DRAM bin and MC clock but cannot touch the fabric
 *    clock, the shared V_SA, or V_IO, and runs lower bins on
 *    boot-trained (unoptimized) registers. The -Redist variant the
 *    paper compares against adds budget redistribution.
 *  - CoScaleGovernor: coordinated CPU + memory DVFS [Deng+,
 *    MICRO'12]: MemScale's memory handling plus a CPU frequency cap
 *    when the workload is memory bound. -Redist likewise.
 *
 * The real-world-shaped governors (ondemand, conservative,
 * userspace, latency-budget, adaptive) live in governor_zoo.hh; all
 * of them register by name in governor_registry.hh.
 */

#ifndef SYSSCALE_CORE_GOVERNORS_HH
#define SYSSCALE_CORE_GOVERNORS_HH

#include <string>

#include "core/demand_predictor.hh"
#include "core/governor.hh"
#include "core/static_table.hh"
#include "core/transition_flow.hh"

namespace sysscale {
namespace core {

/**
 * Shared policy plumbing: name, flow knobs, redistribution flag.
 */
class PolicyBase : public Governor
{
  public:
    PolicyBase(std::string name, FlowOptions opts, bool redistribute)
        : name_(std::move(name)), opts_(opts),
          redistribute_(redistribute)
    {
    }

    const char *name() const override { return name_.c_str(); }
    FlowOptions flowOptions() const override { return opts_; }
    bool redistributes() const override { return redistribute_; }

  protected:
    std::string name_;
    FlowOptions opts_;
    bool redistribute_;
};

/**
 * The paper's baseline: domains pinned at the high point.
 */
class FixedGovernor : public PolicyBase
{
  public:
    FixedGovernor();

    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 64; }
};

/**
 * SysScale (paper Sec. 4).
 */
class SysScaleGovernor : public PolicyBase
{
  public:
    /**
     * @param thresholds Trained counter thresholds (Sec. 4.2); the
     *        static-demand gate is derived from the low point's
     *        capacity at init when left at zero.
     * @param model Fig. 6 linear impact model (diagnostics only).
     * @param opts Feature knobs (defaults = full SysScale; ablations
     *        toggle individual features).
     * @param redistribute Re-grant saved IO/memory budget to compute
     *        (false only for the no-redistribution ablation).
     */
    explicit SysScaleGovernor(Thresholds thresholds =
                                  defaultThresholds(),
                              LinearImpactModel model = {},
                              FlowOptions opts = {},
                              bool redistribute = true);

    void init(GovernorDriver &drv, soc::Soc &soc) override;
    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    /** Sec. 5: ~0.6KB of PMU firmware. */
    std::size_t firmwareBytes() const override { return 600; }

    const DemandPredictor &predictor() const { return predictor_; }
    const StaticDemandTable &staticTable() const { return table_; }

    /** Conditions fired at the last evaluation (introspection). */
    const ConditionVector &lastConditions() const { return lastCond_; }

    /**
     * Hand-tuned fallback thresholds for running without an offline
     * training pass (events per millisecond).
     */
    static Thresholds defaultThresholds();

    /** Safety margin on the low point's capacity for the static
     *  demand gate (condition 1). */
    static constexpr double kStaticMargin = 0.85;

    /**
     * Up-transition hysteresis: counters read higher at the low
     * point (latency-scaled observables), so the thresholds that
     * pull the SoC back up are scaled by this factor — the "dedicated
     * thresholds" per adjacent-point pair of Sec. 4.3.
     */
    static constexpr double kUpHysteresis = 1.6;

  private:
    Thresholds thresholds_;
    LinearImpactModel model_;
    DemandPredictor predictor_;
    DemandPredictor upPredictor_;
    StaticDemandTable table_;
    ConditionVector lastCond_;
};

/**
 * MemScale [16] with optional budget redistribution (MemScale-R).
 */
class MemScaleGovernor : public PolicyBase
{
  public:
    explicit MemScaleGovernor(bool redistribute);

    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 256; }

    /** Memory-side stall gate (cycles/ms). */
    static constexpr double kMemStallThr = 3.5e5;

    /** Memory-side MC occupancy gate. */
    static constexpr double kMemOccThr = 4.0;

    /** Up-transition hysteresis of the epoch model. */
    static constexpr double kEpochHysteresis = 1.6;

    /** Projected low-point utilization ceiling. */
    static constexpr double kMemMaxLowRho = 0.45;

  protected:
    /** Build the memory-only low point (boot fabric/voltages/MRC). */
    soc::OperatingPoint memOnlyLowPoint(soc::Soc &soc) const;

    /**
     * Epoch decision shared by MemScale and CoScale: move low when
     * both gates pass, with exponential backoff after a low sojourn
     * that had to be reverted quickly (epoch governors thrash on
     * phased workloads otherwise).
     */
    void epochDecision(GovernorDriver &drv, soc::Soc &soc,
                       const soc::CounterSnapshot &avg,
                       double stall_thr, double occ_thr,
                       double max_low_rho);

  public:
    /** Snapshot support: the epoch/backoff machine (CoScale
     *  inherits it unchanged). */
    void visitState(StateIO &io) override;

  private:
    std::uint64_t evalCount_ = 0;
    std::uint64_t lastWentLow_ = 0;
    std::uint64_t backoffUntil_ = 0;
    std::uint64_t backoffLen_ = 2;
};

/**
 * CoScale [14] with optional budget redistribution (CoScale-R).
 */
class CoScaleGovernor : public MemScaleGovernor
{
  public:
    explicit CoScaleGovernor(bool redistribute);

    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 384; }

    /** Joint-model stall gate: looser than MemScale's because the
     *  joint model also sees the CPU side. */
    static constexpr double kJointStallThr = 5.5e5;

    /** Joint-model MC occupancy gate. */
    static constexpr double kJointOccThr = 5.0;

    /** Joint model tolerates more congestion (it sees CPU slack). */
    static constexpr double kJointMaxLowRho = 0.50;

    /** LLC_STALLS level (cycles/ms) treated as fully memory bound. */
    static constexpr double kStallRef = 1.5e6;

    /** Core-clock share kept when fully memory bound. */
    static constexpr double kBoundCapShare = 0.85;
};

} // namespace core
} // namespace sysscale

#endif // SYSSCALE_CORE_GOVERNORS_HH
