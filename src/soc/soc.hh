/**
 * @file
 * The assembled mobile SoC (paper Fig. 1).
 *
 * Soc wires the three domains together — compute (CPU cluster,
 * graphics, LLC), IO (fabric, display, ISP, DMA), and memory (MC,
 * DDRIO, DRAM) — plus the PMU, the voltage regulators, and the
 * energy meter. The model advances in fixed interval steps: each
 * step the workload agent presents demand, the memory subsystem
 * computes achieved bandwidth and loaded latency, the compute models
 * convert service into progress, and per-rail power is integrated.
 *
 * Governors (src/core) are hosted by the PMU (soc/pmu.hh) and
 * manipulate the exposed components through the transition flow.
 */

#ifndef SYSSCALE_SOC_SOC_HH
#define SYSSCALE_SOC_SOC_HH

#include <algorithm>
#include <array>
#include <memory>

#include "compute/cpu.hh"
#include "compute/cstates.hh"
#include "compute/gfx.hh"
#include "compute/llc.hh"
#include "dram/device.hh"
#include "interconnect/fabric.hh"
#include "io/csr.hh"
#include "io/display.hh"
#include "io/dma.hh"
#include "io/isp.hh"
#include "mem/controller.hh"
#include "mem/mrc.hh"
#include "power/energy_meter.hh"
#include "power/pbm.hh"
#include "power/regulator.hh"
#include "sim/sim_object.hh"
#include "soc/config.hh"
#include "soc/counters.hh"
#include "soc/op_point.hh"
#include "soc/pmu.hh"
#include "soc/workload_agent.hh"

namespace sysscale {
namespace soc {

/** Aggregate metrics over one measured run window. */
struct RunMetrics
{
    double seconds = 0.0;

    /** @name Performance. @{ */
    double instructions = 0.0;
    double ips = 0.0;          //!< Instructions per second.
    double frames = 0.0;
    double fps = 0.0;          //!< Average frame rate.
    /** @} */

    /** @name Power and energy. @{ */
    Watt avgPower = 0.0;
    Joule energy = 0.0;
    double edp = 0.0;          //!< Energy x delay over the window.
    std::array<Joule, power::kNumRails> railEnergy{};
    /** @} */

    /** @name Memory subsystem. @{ */
    double avgMemLatencyNs = 0.0;
    BytesPerSec avgMemBandwidth = 0.0;
    /** @} */

    /** @name Power management. @{ */
    Hertz avgCoreFreq = 0.0;
    std::uint64_t qosViolations = 0;
    std::uint64_t transitions = 0;
    Tick stallTicks = 0;
    double lowPointResidency = 0.0; //!< Time share below the top point.
    /** @} */
};

/**
 * A Skylake-class mobile SoC instance.
 */
class Soc : public SimObject
{
  public:
    Soc(Simulator &sim, SocConfig cfg);
    ~Soc() override;

    const SocConfig &config() const { return cfg_; }
    const OpPointTable &opPoints() const { return opPoints_; }

    /** @name Component access (flow and governor plumbing). @{ */
    dram::DramDevice &dram() { return *dram_; }
    mem::MemoryController &mc() { return *mc_; }
    const mem::MrcStore &mrc() const { return mrc_; }
    interconnect::IoFabric &fabric() { return *fabric_; }
    io::CsrSpace &csr() { return csr_; }
    io::DisplayEngine &display() { return *display_; }
    io::IspEngine &isp() { return *isp_; }
    io::DmaDevice &dma() { return *dma_; }
    compute::CpuCluster &cpu() { return *cpu_; }
    compute::GfxEngine &gfx() { return *gfx_; }
    compute::Llc &llc() { return *llc_; }
    PerfCounterBlock &counters() { return *counters_; }
    Pmu &pmu() { return *pmu_; }
    power::EnergyMeter &meter() { return meter_; }
    power::PowerBudgetManager &pbm() { return pbm_; }
    power::Regulator &vsaRegulator() { return vsaReg_; }
    power::Regulator &vioRegulator() { return vioReg_; }
    /** @} */

    /** @name Operating point bookkeeping. @{ */

    /** The IO/memory-domain point currently applied. */
    const OperatingPoint &currentOpPoint() const { return currentOp_; }

    /**
     * Record a completed transition: the flow has already programmed
     * the hardware; the Soc charges the stall and re-budgets.
     *
     * @param target Point now in effect.
     * @param flow_latency Wall time memory traffic was blocked.
     */
    void noteTransition(const OperatingPoint &target,
                        Tick flow_latency);

    /** Worst-case IO+memory power of @p op (budget arithmetic). */
    Watt ioMemBudget(const OperatingPoint &op) const;

    /** Compute-domain budget currently granted by the policy. */
    Watt computeBudget() const { return computeBudget_; }

    /** Grant the compute domain @p budget (policy hook). */
    void setComputeBudget(Watt budget);

    /**
     * Change the thermal envelope mid-run (scenario thermal
     * stepping): rebases the PBM, hardware duty cycling, and the
     * current compute grant on the new TDP.
     */
    void setTdp(Watt tdp);

    /** Cap CPU frequency (CoScale-style coordination; 0 = none). */
    void setCoreFreqCap(Hertz cap) { coreFreqCap_ = cap; }

    Hertz coreFreqCap() const { return coreFreqCap_; }
    /** @} */

    /** @name Workload and execution. @{ */

    /**
     * Bind the running workload (not owned; may be null = idle). A
     * new binding empties the replay ring, so every plan in it was
     * captured from the bound workload.
     */
    void
    setWorkload(WorkloadAgent *agent)
    {
        if (agent != workload_)
            clearPlans();
        workload_ = agent;
    }

    /** Static isochronous demand from the IO engines (CSR-derived). */
    BytesPerSec isoBandwidthDemand() const;

    /**
     * Run the SoC for @p duration and return metrics over exactly
     * that window. Successive calls continue the same simulation
     * (use an initial run as warm-up).
     */
    RunMetrics run(Tick duration);

    /** @name Window accounting (snapshot/slicing support).
     *
     * A RunAccumulators sample copies every monotonic accumulator
     * a RunMetrics window is differenced from. run() itself is
     * implemented as sampleAccumulators() / metricsBetween(), so a
     * sliced run that carries a baseline sample across checkpoints
     * computes the final window from the same exact differences —
     * byte-identical metrics.
     * @{ */
    struct RunAccumulators
    {
        stats::ExactSum instructions;
        stats::ExactSum frames;
        std::array<stats::ExactSum, power::kNumRails> rail{};
        stats::ExactSum latInt;
        stats::ExactSum latSecs;
        stats::ExactSum bwInt;
        stats::ExactSum freqInt;
        stats::ExactSum lowSecs;
        stats::ExactSum elapsedSeconds;
        stats::ExactSum qos;
        stats::ExactSum trans;
        stats::ExactSum stall;
    };

    /** Sample every run-window accumulator at the current instant. */
    RunAccumulators sampleAccumulators() const;

    /** Metrics over a window bounded by two samples. */
    static RunMetrics metricsBetween(const RunAccumulators &before,
                                     const RunAccumulators &after,
                                     double seconds);
    /** @} */

    /** Snapshot support (see sim/snapshot.hh). */
    void visitState(StateIO &io) override;

    /**
     * Exponentially-weighted recent memory bandwidth (time constant
     * of a few milliseconds) — the utilization signal epoch-based
     * governors like MemScale/CoScale key on.
     */
    BytesPerSec recentBandwidth() const { return bwEwma_; }

    std::uint64_t transitionCount() const
    {
        return static_cast<std::uint64_t>(transitions_.value());
    }
    /** @} */

    void startup() override;

    /** Read/write split assumed for CPU memory traffic. */
    static constexpr double kCpuReadShare = 0.70;

    /**
     * Reactive power-cap throttle floor. The PBM "is designed to
     * keep the average power consumption of the compute domain
     * within the allocated power budget" (Sec. 4.3); when measured
     * SoC power runs over TDP (budget models are estimates), the
     * compute grant is walked down to this floor.
     */
    static constexpr double kThrottleFloor = 0.30;

    /** Current reactive throttle multiplier (diagnostics). */
    double throttle() const { return throttle_; }

    /**
     * Largest share of one step interval that transition-flow stall
     * may consume; the remainder of a longer flow carries over into
     * the following steps (never dropped), so the stall charged over
     * a run equals the flow latency recorded by noteTransition().
     */
    static constexpr double kMaxStallFraction = 0.9;

    /**
     * Switching activity assumed when no hardware thread is active.
     * Both the P-state grants (grantsAt()) and the rail power
     * (railPower()) take it from threadActivity(), so budget
     * arithmetic and the energy meter can never disagree about what
     * an idle interval costs.
     */
    static constexpr double kIdleActivity = 0.7;

    /**
     * Loaded-latency fixpoint in step(): demand and loaded memory
     * latency feed back on each other, so the step iterates until
     * the latency estimate moves by no more than this tolerance
     * between passes (then the demand it just computed is consistent
     * with the latency it was computed from).
     */
    static constexpr double kMemLatencyTolNs = 0.01;

    /**
     * Upper bound on fixpoint passes per step. The latency curve is
     * contractive in practice (convergence is geometric), so this
     * only guards pathological configurations; the tolerance is what
     * normally terminates the loop.
     */
    static constexpr int kMemLatencyMaxPasses = 8;

    /** Transition-flow stall not yet charged to a step (carry-over). */
    Tick pendingStallTicks() const { return pendingStall_; }

    /** @name Idle skip-ahead. @{ */

    /**
     * Enable/disable the constant-step replay fast path for this
     * instance. When enabled (the default), every slow step captures
     * a plan into a ring of the kPlanRingSize most recently used
     * (the limit cycle of a power-capped throttle), and a step whose
     * inputs are fingerprint-identical to one of them is replayed from
     * it — and runs of such steps inside one run() window are batched
     * into a single event, advancing simulated time analytically.
     * Either way a step commits through one path: the slow step
     * records its commit half and applies it once, a replay applies
     * the same record again (recordCommit(), applyCommit()). The
     * fingerprint lists the P-states the reactive throttle grants, not
     * the throttle's bits (it reaches a step only through grantsAt()),
     * and a replay sets them as the slow step would. A plan whose
     * capture moved the memory latency replays one step, moving it
     * alike. A batch ends before the next pending event (a PMU
     * evaluation, a scenario action, a transition-flow step), at the
     * workload's demand horizon, at the run limit, or when a throttle
     * move changes the grants; the PMU's counter samples run inside it
     * (Pmu::afterSteps()). A batch of n steps costs O(accumulators),
     * not O(n): every accumulator is a fixed-point stats::ExactSum,
     * so the n identical additions of its addend are one integer
     * multiply-add, equal by algebra to n single additions. Only the
     * EWMA and throttle recurrence walks step by step, with one grant
     * evaluation per throttle move, until both EWMAs reach a fixed
     * point. So all reported metrics are byte-identical either way
     * (pinned by the skip-ahead-off mode of tests/test_contracts.cc;
     * its committed digest pins what both modes report). Either call
     * empties the ring.
     */
    void
    setSkipAhead(bool on)
    {
        skipAhead_ = on;
        clearPlans();
    }

    /** Plans the replay ring holds (chosen by measurement). */
    static constexpr std::size_t kPlanRingSize = 32;

    /**
     * Process-wide default for new Soc instances: on, unless a tool
     * turns it off (sweep_grid --no-skip-ahead).
     */
    static bool skipAheadDefault();
    static void setSkipAheadDefault(bool on);

    /** Steps served by the replay fast path (diagnostics). */
    std::uint64_t
    replayedStepCount() const
    {
        return static_cast<std::uint64_t>(replayedSteps_.value());
    }
    /** @} */

    /**
     * Close the pending interval of the time-weighted residency
     * stats (dram_bin/fabric_mhz/vsa_v/vio_v) at @p t. Call once
     * before dumping the stats hierarchy; safe to call repeatedly.
     */
    void finalizeStats(Tick t);

  private:
    /** Busy hardware threads of one step's demand. */
    struct ThreadActivity
    {
        std::size_t threads = 0;
        double mean = kIdleActivity; //!< Their mean activity.
    };

    /** The table states the PBM grants the CPU and the GFX. */
    struct PStateGrants
    {
        const power::PState *cpu = nullptr;
        const power::PState *gfx = nullptr;
    };

    /**
     * Cached outcome of one slow-path step: the fingerprint of every
     * input it depended on plus the intermediate results the commit
     * half consumes. While the fingerprint matches, step() replays
     * the commit half from this plan instead of recomputing demand,
     * P-state grants, the latency fixpoint, and rail power.
     */
    struct StepPlan
    {
        bool valid = false;

        /** @name Input fingerprint. @{ */
        Tick demandValidUntil = 0;  //!< Workload horizon at capture.
        stats::ExactSum transitionsSeen;
        double throttle = 1.0; //!< Fast-path key; grants decide.
        Watt computeBudget = 0.0;
        Hertz coreFreqCap = 0.0;
        double dutyFactor = 0.0;
        Watt tdp = 0.0;
        double latencyInNs = 0.0;     //!< lastMemLatencyNs_ at capture.
        PStateGrants grants;        //!< The P-states the step set.
        Watt ioEnginePower = 0.0;   //!< Display + ISP (CSR-driven).
        /** @} */

        /** @name Derived from the demand, for grantsAt(). @{ */
        ThreadActivity act;
        bool gfxActive = false;
        /** @} */

        /** @name Cached compute-half results. @{ */
        double dramFrac = 0.0;
        double execFrac = 0.0;
        mem::MemDemand md{}; //!< md.ioIso fingerprints iso demand.
        double gfxDemandC0 = 0.0;
        double latencyOutNs = 0.0; //!< lastMemLatencyNs_ after the snap.
        /** @} */
    };

    /**
     * The bookkeeping the commit half does on the Soc itself: the QoS
     * count, the LLC and counter observables, the EWMA terms and the
     * run-accumulator addends of one step. Each addend is a term the
     * slow step rounds once: every accumulator it feeds is a
     * stats::ExactSum, so applying it n times is one multiply-add
     * per accumulator, with no rounding.
     */
    struct StepAccounting
    {
        bool qosViolation = false;

        /** @name Llc::recordInterval(). @{ */
        stats::ExactSum::Term cpuMisses;
        stats::ExactSum::Term gfxMisses;
        stats::ExactSum::Term stallCycles;
        double cpuOccupancy = 0.0;
        /** @} */
        PerfCounterBlock::StepTerms counters;

        /** @name EWMA terms. @{ */
        double powerEwmaTermW = 0.0; //!< 0.02 * (stepPower - floor).
        double bwEwmaTerm = 0.0;     //!< 0.02 * achievedTotal * dramFrac.
        /** @} */

        /** @name Run-accumulator addends. @{ */
        stats::ExactSum::Term secs;
        stats::ExactSum::Term memLatIntegral; //!< latency * secs * dramFrac.
        stats::ExactSum::Term memActiveSeconds; //!< secs * dramFrac.
        stats::ExactSum::Term bwIntegral; //!< achievedTotal * dramFrac * secs.
        stats::ExactSum::Term coreFreqIntegral; //!< frequency * secs.
        bool lowPoint = false;                  //!< Below the top point.
        /** @} */
    };

    /**
     * Every side effect of a plan's step. The slow step commits by
     * applying it once, and a replayed step applies it again instead
     * of re-running the fabric, memory, retire, render and rail-power
     * evaluations on inputs the fingerprint already proved identical:
     * one commit path, so a side effect missing here is missing in
     * every mode. Derived state, never snapshotted: a restore marks
     * every record stale (Soc restores before its children), and a
     * plan's first replay after it re-derives the record from the
     * restored plan and component state.
     */
    struct CommitRecord
    {
        bool stale = true; //!< Re-derive before the next replay.

        /** @name Memory-active steps only (dramFrac > 1e-9). @{ */
        bool memActive = false;
        interconnect::FabricResult fabric;
        mem::MemServiceCommit mc; //!< Over the MC's own active ticks.
        /** @} */

        stats::ExactSum::Term instructions; //!< Over all threads.
        stats::ExactSum::Term stallCycles;  //!< Over all threads.
        bool rendered = false;
        compute::GfxResult gfx;

        /** @name Rail power, as railPower() computed it. @{ */
        std::array<Watt, power::kNumRails> railWatts{};
        Watt stepPower = 0.0; //!< Every rail plus the platform floor.
        /** @} */

        /** addEnergy() operands: the watts times the step (V_SA's
         *  with the platform floor's). */
        std::array<stats::ExactSum::Term, power::kNumRails> railJoules{};

        StepAccounting accounting;
    };

    /** One slot of the replay ring. */
    struct PlanEntry
    {
        StepPlan plan;
        CommitRecord record;
    };

    /** The current plan: the one the last step captured or replayed. */
    StepPlan &plan() { return ring_[mru_[0]].plan; }
    CommitRecord &record() { return ring_[mru_[0]].record; }

    /** Make the plan at recency position @p pos the current one. */
    void
    promote(std::size_t pos)
    {
        std::rotate(mru_.begin(), mru_.begin() + pos, mru_.begin() + pos + 1);
    }

    /**
     * Whether @p p can still replay a step at @p t: captured, inside
     * its demand horizon, and no transition since (their count only
     * grows).
     */
    bool
    live(const StepPlan &p, Tick t) const
    {
        return p.valid && t < p.demandValidUntil &&
               p.transitionsSeen == transitions_.sum();
    }

    /** Invalidate every plan in the ring. */
    void
    clearPlans()
    {
        for (PlanEntry &e : ring_)
            e.plan.valid = false;
    }

    void step();

    /** Residency-stat and trace-counter bookkeeping for @p op. */
    void noteOpPoint(const OperatingPoint &op, Tick t);

    /**
     * Find a plan that can replay the step beginning at @p t, most
     * recently used first. On a hit, set the P-states the step would
     * grant, make the plan current and return true.
     */
    bool findPlan(Tick t);

    static ThreadActivity threadActivity(const IntervalDemand &demand);

    /**
     * The P-states a step with @p demand and @p act grants under
     * @p throttle, with the current compute budget, frequency cap and
     * gfxActive_. The only way the throttle reaches a step.
     */
    PStateGrants grantsAt(double throttle, const IntervalDemand &demand,
                          const ThreadActivity &act) const;

    /**
     * Evaluate the commit half of a step into record(), driven from
     * plan() and demandScratch_: fabric and memory service, retire and
     * render, rail power (@p act is the step's thread activity), the
     * counter observables, EWMA terms and run-accumulator addends.
     * Applies the latency snap and commits nothing else. A slow step
     * calls it, and so does the first replay after a restore.
     */
    void recordCommit(Tick interval, const ThreadActivity &act);

    /**
     * The commit half of @p n steps, the first at @p t: apply
     * record()'s side effects n times, so every accumulator sees the
     * identical sequence of additions. A slow step passes 1. The
     * EWMAs are not touched: the slow step advances them once, and
     * replaySteps() walks them itself to find n.
     */
    void applyCommit(Tick t, Tick interval, std::uint64_t n);

    /**
     * One step of the power and bandwidth EWMAs (@p power, @p bw) and
     * the reactive @p throttle, with the EWMA terms of @p a, under
     * @p tdp.
     */
    [[gnu::always_inline]] static void
    advanceEwmas(const StepAccounting &a, Watt tdp, Watt &power,
                 BytesPerSec &bw, double &throttle);

    /**
     * Apply @p a for @p n steps, the first at @p t, to the Soc's own
     * stats and run accumulators, the LLC, and the counters with the
     * PMU samples due at the steps' ticks. Not the EWMAs.
     */
    [[gnu::always_inline]] void
    applyAccounting(const StepAccounting &a, Tick t, Tick interval,
                    std::uint64_t n);

    /**
     * record()'s rail-power trace counters at @p t (change-filtered),
     * reported for @p n steps.
     */
    [[gnu::always_inline]] void traceRailPower(Tick t, std::uint64_t n);

    /** Fast path: replay one batch of grid steps, then reschedule. */
    void replaySteps(Tick interval);

    /**
     * The step's watts on each rail, into record().railWatts and
     * record().stepPower; charges no meter (applyCommit() does). @p act
     * is the step's thread activity, as step() computed it.
     */
    void railPower(const IntervalDemand &demand, const ThreadActivity &act,
                   double mc_util, double fabric_util, Watt vddq_power);

    SocConfig cfg_;
    mem::MrcStore mrc_;
    OpPointTable opPoints_;
    io::CsrSpace csr_;

    std::unique_ptr<dram::DramDevice> dram_;
    std::unique_ptr<mem::MemoryController> mc_;
    std::unique_ptr<interconnect::IoFabric> fabric_;
    std::unique_ptr<io::DisplayEngine> display_;
    std::unique_ptr<io::IspEngine> isp_;
    std::unique_ptr<io::DmaDevice> dma_;
    std::unique_ptr<compute::CpuCluster> cpu_;
    std::unique_ptr<compute::GfxEngine> gfx_;
    std::unique_ptr<compute::Llc> llc_;
    std::unique_ptr<PerfCounterBlock> counters_;
    std::unique_ptr<Pmu> pmu_;

    power::EnergyMeter meter_;
    power::PowerBudgetManager pbm_;
    power::Regulator vsaReg_;
    power::Regulator vioReg_;
    compute::HardwareDutyCycle hdc_;

    WorkloadAgent *workload_ = nullptr;
    IntervalDemand demandScratch_; //!< Reused every step (no alloc).
    OperatingPoint currentOp_;
    Watt computeBudget_ = 0.0;
    Hertz coreFreqCap_ = 0.0;
    bool gfxActive_ = false;
    bool skipAhead_ = true; //!< Rebound to skipAheadDefault() in ctor.

    /** LLC miss multiplier for the profiles' 4MB reference capacity. */
    double missScale_ = 1.0;

    std::array<PlanEntry, kPlanRingSize> ring_;
    /** Ring slots, most recently used first: mru_[0] is current. */
    std::array<std::uint8_t, kPlanRingSize> mru_{};
    double lastMemLatencyNs_ = 60.0;
    BytesPerSec bwEwma_ = 0.0;
    Watt powerEwma_ = 0.0;
    double throttle_ = 1.0;
    Tick pendingStall_ = 0;

    EventFunctionWrapper stepEvent_;

    // Run-window accumulators (sampled by run()).
    stats::ExactSum memLatIntegral_;
    stats::ExactSum memActiveSeconds_;
    stats::ExactSum bwIntegral_;
    stats::ExactSum coreFreqIntegral_;
    stats::ExactSum lowPointSeconds_;
    stats::ExactSum elapsedSeconds_;

    stats::Scalar transitions_;
    stats::Scalar qosViolations_;
    stats::Scalar stallTicks_;
    stats::Scalar steps_;
    stats::Scalar replayedSteps_;

    /** @name Per-domain residency (time-weighted op-point knobs). @{ */
    stats::TimeAverage dramBinRes_;
    stats::TimeAverage fabricMhzRes_;
    stats::TimeAverage vSaRes_;
    stats::TimeAverage vIoRes_;
    /** @} */
};

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_SOC_HH
