/**
 * @file
 * Memory controller service model.
 *
 * The controller is the junction where all three SoC domains meet the
 * DRAM: CPU cores and graphics arrive through the LLC, IO engines
 * arrive through the IO interconnect with isochronous (QoS) or
 * best-effort class, and the controller schedules everything onto the
 * device interface.
 *
 * Rather than replaying individual transactions, the model services
 * aggregate per-interval demand: isochronous traffic is guaranteed
 * first (display underruns are never acceptable, Sec. 1), and the
 * remaining interface capacity is shared by the other classes in
 * proportion to demand. Loaded latency rises with utilization through
 * an M/D/1-style queueing term, which is what latency-bound workloads
 * (e.g. cactusADM in Fig. 2) respond to when the bin drops.
 */

#ifndef SYSSCALE_MEM_CONTROLLER_HH
#define SYSSCALE_MEM_CONTROLLER_HH

#include "dram/device.hh"
#include "mem/ddrio.hh"
#include "mem/mrc.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace mem {

/** Aggregate bandwidth demand presented for one interval. */
struct MemDemand
{
    BytesPerSec cpuRead = 0.0;  //!< LLC misses from CPU cores.
    BytesPerSec cpuWrite = 0.0; //!< Dirty evictions / streaming writes.
    BytesPerSec gfx = 0.0;      //!< Graphics engine traffic.
    BytesPerSec ioIso = 0.0;    //!< Isochronous IO (display, camera).
    BytesPerSec ioBestEffort = 0.0; //!< Best-effort IO (DMA, storage).

    BytesPerSec
    total() const
    {
        return cpuRead + cpuWrite + gfx + ioIso + ioBestEffort;
    }
};

/** What the controller delivered for one interval. */
struct MemServiceResult
{
    BytesPerSec achievedCpuRead = 0.0;
    BytesPerSec achievedCpuWrite = 0.0;
    BytesPerSec achievedGfx = 0.0;
    BytesPerSec achievedIso = 0.0;
    BytesPerSec achievedBestEffort = 0.0;

    /** Interface utilization in [0, 1]. */
    double utilization = 0.0;

    /** Average load-to-use latency for CPU-class reads. */
    double loadedLatencyNs = 0.0;

    /**
     * Average number of CPU requests waiting at the controller
     * (Little's law) — the observable behind LLC_Occupancy_Tracer.
     */
    double readPendingOccupancy = 0.0;

    /** True when isochronous demand exceeded capacity (QoS violated). */
    bool qosViolation = false;

    BytesPerSec
    achievedTotal() const
    {
        return achievedCpuRead + achievedCpuWrite + achievedGfx +
               achievedIso + achievedBestEffort;
    }
};

/**
 * Everything one service() interval commits: the result, the DRAM
 * traffic and its average power, over the interval it was served.
 */
struct MemServiceCommit
{
    MemServiceResult result;
    double readBytes = 0.0;  //!< DRAM bytes read.
    double writeBytes = 0.0; //!< DRAM bytes written.
    Watt dramPower = 0.0;    //!< DRAM + DDRIO-analog average power.
    Tick interval = 0;
};

/**
 * The SoC memory controller.
 */
class MemoryController : public SimObject
{
  public:
    /**
     * @param sim Simulation context.
     * @param parent Owning SimObject.
     * @param device DRAM ranks this controller drives.
     * @param mrc Reset-trained register store.
     * @param v_sa Boot voltage of the shared system-agent rail.
     */
    MemoryController(Simulator &sim, SimObject *parent,
                     dram::DramDevice &device, const MrcStore &mrc,
                     Volt v_sa);

    /** @name Operating state (manipulated by the DVFS flows). @{ */

    /** Currently programmed register image. */
    const MrcRegisterSet &registers() const { return regs_; }

    /**
     * Program a register image (flow step 5). Only legal while the
     * controller is blocked and DRAM is in self-refresh.
     */
    void programRegisters(const MrcRegisterSet &regs);

    /** Current frequency bin (follows the programmed registers). */
    std::size_t binIndex() const { return regs_.appliedBin; }

    /** Controller clock: half the DDR data rate (Sec. 3). */
    Hertz clock() const { return clockHz_; }

    Volt vsa() const { return vsa_; }
    void setVsa(Volt v);
    /** @} */

    /** @name Block and drain (flow steps 3 and 9). @{ */

    /**
     * Stop accepting new requests and report the time to complete all
     * outstanding ones (bounded below 1us, Sec. 5).
     */
    Tick blockAndDrain();

    /** Resume accepting requests. */
    void release();

    bool blocked() const { return blocked_; }
    /** @} */

    /**
     * Service one interval of aggregate demand:
     * commit(evaluate(demand, interval)).
     *
     * Panics if called while blocked: the flow must release first.
     *
     * @param demand Per-class bandwidth demand.
     * @param interval Interval length in ticks.
     */
    MemServiceResult service(const MemDemand &demand, Tick interval);

    /**
     * What servicing @p demand over @p interval would commit. Pure:
     * nothing is accounted until commit().
     */
    MemServiceCommit evaluate(const MemDemand &demand,
                              Tick interval) const;

    /**
     * Account one serviced interval: QoS, DRAM traffic and energy,
     * serviced bytes, utilization and latency. Committing one
     * evaluation N times equals N service() calls on its demand.
     */
    void commit(const MemServiceCommit &c);

    /**
     * Idle-interval bookkeeping: DRAM sits in self-refresh (deep SoC
     * idle states park memory, Sec. 7.3). Returns the average power of
     * the parked devices.
     */
    Watt idleSelfRefresh(Tick interval);

    /** Sustainable interface bandwidth at the current registers. */
    BytesPerSec capacity() const { return capacity_; }

    /** Unloaded CPU-read latency at the current registers. */
    double baseLatencyNs() const { return baseLatencyNs_; }

    /**
     * Loaded latency at a hypothetical utilization (exposed so the
     * governor comparison and tests can query the latency curve).
     */
    double loadedLatencyAt(double utilization) const;

    /**
     * Average controller power over an interval at @p utilization:
     * powerAt() at the live rail and clock, with the leakage cached
     * where V_SA is written.
     */
    Watt controllerPower(double utilization) const;

    /**
     * Controller power at an arbitrary (voltage, clock, utilization)
     * triple — used by budget arithmetic to cost operating points
     * without touching a live controller.
     */
    static Watt powerAt(Volt v_sa, Hertz clock, double utilization);

    /** DDRIO-digital rail power at @p utilization. */
    Watt ddrioDigitalPower(double utilization) const;

    /** DRAM + DDRIO-analog (VDDQ rail) power of the last interval. */
    Watt lastDramPower() const { return lastDramPower_; }

    Ddrio &ddrio() { return ddrio_; }
    const Ddrio &ddrio() const { return ddrio_; }

    dram::DramDevice &device() { return device_; }

    /** Snapshot support: registers, rail, block state. */
    void visitState(StateIO &io) override;

    /** @name Model calibration constants. @{ */

    /** Controller pipeline depth in MC cycles (queue-empty). */
    static constexpr double kPipelineCycles = 10.0;

    /** Scale of the congestion (queueing) latency term. */
    static constexpr double kQueueScale = 10.0;

    /** Interconnect/LLC-side fixed latency outside the controller. */
    static constexpr double kFixedPathNs = 22.0;

    /** Utilization ceiling for the queueing term. */
    static constexpr double kMaxRho = 0.96;

    /** Effective switched capacitance of the controller. */
    static constexpr double kCdynFarad = 300e-12;

    /** Controller leakage coefficient at (0.8V, 50C). */
    static constexpr double kLeakK = 0.42;

    /** Drain bound: max outstanding bytes the queues can hold. */
    static constexpr double kMaxOutstandingBytes = 16 * 1024.0;
    /** @} */

  private:
    /** Switching term of powerAt(). */
    static Watt dynamicAt(Volt v_sa, Hertz clock, double utilization);

    /** Leakage term of powerAt(). */
    static Watt leakageAt(Volt v_sa);

    /**
     * Re-derive the register-dependent constants below from regs_.
     * Every writer of regs_ (constructor, programRegisters(),
     * a restoring visitState()) must call it; the cache is never
     * snapshotted.
     */
    void refreshDerived();

    dram::DramDevice &device_;
    Ddrio ddrio_;
    MrcRegisterSet regs_;
    Volt vsa_;
    /**
     * leakageAt(vsa_). Every writer of vsa_ (constructor, setVsa(),
     * a restoring visitState()) refreshes it; never snapshotted.
     */
    Watt leakage_ = 0.0;

    /** @name Derived from regs_ by refreshDerived(). @{ */
    Hertz clockHz_ = 0.0;
    BytesPerSec peakBandwidth_ = 0.0; //!< Of the applied bin.
    BytesPerSec capacity_ = 0.0;
    double baseLatencyNs_ = 0.0;
    double lineServiceNs_ = 0.0; //!< One 64B line at capacity_.
    /** @} */

    bool blocked_ = false;
    double lastUtilization_ = 0.0;
    Watt lastDramPower_ = 0.0;

    stats::Scalar servicedBytes_;
    stats::Scalar qosViolations_;
    stats::Scalar drains_;
    stats::Average utilizationAvg_;
    stats::Average latencyAvg_;
};

inline void
MemoryController::commit(const MemServiceCommit &c)
{
    const MemServiceResult &res = c.result;
    if (res.qosViolation)
        ++qosViolations_;
    device_.commitTraffic(c.readBytes, c.writeBytes, c.dramPower,
                          c.interval);
    lastDramPower_ = c.dramPower;

    lastUtilization_ = res.utilization;
    servicedBytes_ += res.achievedTotal() * secondsFromTicks(c.interval);
    utilizationAvg_.sample(res.utilization);
    latencyAvg_.sample(res.loadedLatencyNs);
}

} // namespace mem
} // namespace sysscale

#endif // SYSSCALE_MEM_CONTROLLER_HH
