/**
 * @file
 * DRAM interface (DDRIO) model, split per the paper's Fig. 1:
 *
 *  - DDRIO-digital (4): command/data serialization logic on the V_IO
 *    rail; dynamic power follows Cdyn * V_IO^2 * f plus leakage.
 *  - DDRIO-analog (3): drivers, receivers, and DLLs on the VDDQ rail;
 *    the per-bit energy is accounted with DRAM IO power in
 *    dram::DramPowerModel, so here only the DLL/PLL blocks and their
 *    relock latency are modeled.
 *
 * SysScale is the first mechanism to scale the DDRIO-digital voltage
 * during memory DVFS (Sec. 1 and 3 of the paper); baseline governors
 * leave V_IO at its boot value.
 */

#ifndef SYSSCALE_MEM_DDRIO_HH
#define SYSSCALE_MEM_DDRIO_HH

#include "dram/spec.hh"
#include "sim/types.hh"

namespace sysscale {
namespace mem {

/**
 * The physical DRAM interface between memory controller and devices.
 */
class Ddrio
{
  public:
    /**
     * @param spec DRAM configuration (clock relationships).
     * @param v_io Boot voltage of the digital rail.
     * @param cdyn_farad Effective digital switching capacitance.
     * @param leak_k Digital leakage coefficient (see leakagePower()).
     */
    Ddrio(const dram::DramSpec &spec, Volt v_io,
          double cdyn_farad = kCdynFarad, double leak_k = kLeakK);

    /** @name Operating state. @{ */
    std::size_t binIndex() const { return binIndex_; }
    void setBin(std::size_t bin_index);

    Volt vio() const { return vio_; }
    void setVio(Volt v);

    /** Digital interface clock (half the DDR data rate). */
    Hertz clock() const;
    /** @} */

    /**
     * Average digital-rail power over an interval.
     *
     * @param utilization Interface data-bus utilization in [0, 1].
     * @param activity_factor MRC-dependent multiplier (>= 1 when the
     *        registers are unoptimized; see MrcRegisterSet).
     */
    Watt digitalPower(double utilization,
                      double activity_factor = 1.0) const;

    /**
     * DLL/PLL relock latency after a frequency change. The SysScale
     * flow overlaps this with the fabric PLL relock (Fig. 5, step 6).
     */
    Tick relockLatency() const { return kRelockLatency; }

    /**
     * Digital-rail power at an arbitrary (voltage, clock,
     * utilization) triple — used by budget arithmetic. Costs the
     * default kCdynFarad/kLeakK characterization.
     */
    static Watt powerAt(Volt v_io, Hertz clock, double utilization,
                        double activity_factor = 1.0);

    /** DLL relock time; sized well inside the flow's 10us budget. */
    static constexpr Tick kRelockLatency = 800 * kTicksPerNs;

    /** Default effective switched capacitance of the digital rail. */
    static constexpr double kCdynFarad = 200e-12;

    /** Default digital leakage coefficient at (0.8V, 50C). */
    static constexpr double kLeakK = 0.245;

  private:
    dram::DramSpec spec_;
    Volt vio_;
    double cdyn_;
    double leakK_;
    /**
     * Leakage at vio_, refreshed by setVio(), which the constructor
     * and a restoring MemoryController::visitState() also go through.
     */
    Watt leakage_ = 0.0;
    std::size_t binIndex_ = dram::DramSpec::kDefaultBin;
};

} // namespace mem
} // namespace sysscale

#endif // SYSSCALE_MEM_DDRIO_HH
