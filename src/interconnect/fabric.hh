/**
 * @file
 * IO interconnect fabric.
 *
 * The fabric connects the IO engines/controllers to the memory
 * subsystem. It shares the V_SA rail with the memory controller
 * (Fig. 1, circled 1), which is why memory DVFS that wants a voltage
 * cut must also scale the fabric clock (Sec. 3, experimental setup).
 *
 * Traffic classes follow the paper's QoS discussion: isochronous
 * clients (display, camera) have deadlines and are served first;
 * best-effort clients take what remains. The fabric supports the
 * block-and-drain protocol the transition flow relies on (Fig. 5,
 * steps 3 and 9).
 */

#ifndef SYSSCALE_INTERCONNECT_FABRIC_HH
#define SYSSCALE_INTERCONNECT_FABRIC_HH

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace interconnect {

/** Fabric traffic classes. */
enum class TrafficClass { Isochronous, BestEffort };

/** Per-interval fabric demand. */
struct FabricDemand
{
    BytesPerSec isochronous = 0.0;
    BytesPerSec bestEffort = 0.0;

    BytesPerSec total() const { return isochronous + bestEffort; }
};

/** Per-interval fabric service outcome. */
struct FabricResult
{
    BytesPerSec achievedIso = 0.0;
    BytesPerSec achievedBestEffort = 0.0;

    /** Link utilization in [0, 1]. */
    double utilization = 0.0;

    /** Average fabric transit latency for best-effort requests. */
    double latencyNs = 0.0;

    /**
     * Average number of IO reads pending in the fabric — the
     * observable behind the IO_RPQ performance counter (Sec. 4.2).
     */
    double readPendingOccupancy = 0.0;

    /** Isochronous demand exceeded the link (QoS violation). */
    bool qosViolation = false;
};

/**
 * The shared IO interconnect.
 */
class IoFabric : public SimObject
{
  public:
    /**
     * @param sim Simulation context.
     * @param parent Owning SimObject.
     * @param freq Link clock at boot (0.8GHz on Skylake, Table 1).
     * @param v_sa Shared rail voltage at boot.
     * @param link_bytes Data-path width in bytes per clock.
     */
    IoFabric(Simulator &sim, SimObject *parent, Hertz freq, Volt v_sa,
             std::size_t link_bytes = 32);

    /** @name Operating point (manipulated by the DVFS flows). @{ */
    Hertz frequency() const { return freq_; }

    /** Retarget the link clock. Only legal while blocked. */
    void setFrequency(Hertz f);

    Volt vsa() const { return vsa_; }
    void setVsa(Volt v);
    /** @} */

    /** Peak link bandwidth at the current clock. */
    BytesPerSec capacity() const;

    /** @name Block and drain (flow steps 3 and 9). @{ */

    /**
     * Stop accepting requests; returns the drain latency (completing
     * outstanding requests, bounded below ~1us per Sec. 5).
     */
    Tick blockAndDrain();

    /** Resume accepting requests. */
    void release();

    bool blocked() const { return blocked_; }
    /** @} */

    /**
     * Serve one interval of demand: commit(evaluate(demand)). Panics
     * while blocked.
     */
    FabricResult service(const FabricDemand &demand, Tick interval);

    /**
     * The outcome of serving @p demand at the current clock. Pure:
     * nothing is accounted until commit(). Panics while blocked.
     */
    FabricResult evaluate(const FabricDemand &demand) const;

    /**
     * Account @p n intervals of @p interval each served with @p res:
     * utilization, transferred bytes and the QoS violation count.
     * Committing one evaluation over N intervals equals N service()
     * calls on its demand.
     */
    void commit(const FabricResult &res, Tick interval,
                std::uint64_t n = 1);

    /** Unloaded transit latency at the current clock. */
    double baseLatencyNs() const;

    /**
     * Average fabric power at @p utilization: powerAt() at the live
     * rail and clock, with the leakage cached where V_SA is written.
     */
    Watt power(double utilization) const;

    /**
     * Fabric power at an arbitrary (voltage, clock, utilization)
     * triple — used by budget arithmetic to cost operating points.
     */
    static Watt powerAt(Volt v_sa, Hertz freq, double utilization);

    /** @name Model calibration constants. @{ */

    /** Router/arbiter pipeline depth in link cycles. */
    static constexpr double kPipelineCycles = 12.0;

    /** Utilization ceiling for the queueing term. */
    static constexpr double kMaxRho = 0.95;

    /** Effective switched capacitance of the fabric. */
    static constexpr double kCdynFarad = 340e-12;

    /** Fabric leakage coefficient at (0.8V, 50C). */
    static constexpr double kLeakK = 0.40;

    /** Upper bound on in-flight bytes (drain bound). */
    static constexpr double kMaxOutstandingBytes = 8 * 1024.0;
    /** @} */

    /** Snapshot support. */
    void visitState(StateIO &io) override;

  private:
    /** Switching term of powerAt(). */
    static Watt dynamicAt(Volt v_sa, Hertz freq, double utilization);

    /** Leakage term of powerAt(). */
    static Watt leakageAt(Volt v_sa);

    Hertz freq_;
    Volt vsa_;
    /**
     * leakageAt(vsa_). Every writer of vsa_ (constructor, setVsa(),
     * a restoring visitState()) refreshes it; never snapshotted.
     */
    Watt leakage_ = 0.0;
    std::size_t linkBytes_;
    bool blocked_ = false;
    double lastUtilization_ = 0.0;

    stats::Scalar transferredBytes_;
    stats::Scalar qosViolations_;
    stats::Scalar drains_;
    stats::Average utilizationAvg_;
};

inline void
IoFabric::commit(const FabricResult &res, Tick interval, std::uint64_t n)
{
    SYSSCALE_ASSERT(interval > 0, "zero-length fabric interval");
    if (res.qosViolation)
        qosViolations_ += static_cast<double>(n);
    lastUtilization_ = res.utilization;
    transferredBytes_.add((res.achievedIso + res.achievedBestEffort) *
                              secondsFromTicks(interval),
                          n);
    utilizationAvg_.sample(res.utilization, 1.0, n);
}

} // namespace interconnect
} // namespace sysscale

#endif // SYSSCALE_INTERCONNECT_FABRIC_HH
