/**
 * @file
 * Multi-domain DVFS operating points.
 *
 * An OperatingPoint pins every IO/memory-domain knob SysScale's flow
 * manipulates: DRAM frequency bin, fabric clock, the two scalable
 * rail voltages (V_SA, V_IO), and which MRC register image to
 * program. The OpPointTable derives the paper's points from a
 * SocConfig and the rail V/F curves: "high" (Table 1 baseline),
 * "low" (the MD-DVFS setup), and — for the Sec. 7.4 sensitivity
 * study — the not-worth-it "low-800" point.
 */

#ifndef SYSSCALE_SOC_OP_POINT_HH
#define SYSSCALE_SOC_OP_POINT_HH

#include <string>
#include <vector>

#include "soc/config.hh"

namespace sysscale {
namespace soc {

/**
 * One IO/memory-domain operating point.
 */
struct OperatingPoint
{
    std::string name;

    /** DRAM frequency bin index. */
    std::size_t dramBin = 0;

    /** IO interconnect clock. */
    Hertz fabricFreq = 0.0;

    /** Shared system-agent rail voltage. */
    Volt vSa = 0.0;

    /** DDRIO-digital / IO PHY rail voltage. */
    Volt vIo = 0.0;

    /**
     * Bin whose MRC registers are programmed. Equal to dramBin for
     * an optimized point; a governor without per-bin MRC support
     * keeps the boot bin here (Fig. 4 penalties).
     */
    std::size_t mrcTrainedBin = 0;

    bool
    operator==(const OperatingPoint &o) const
    {
        return dramBin == o.dramBin && fabricFreq == o.fabricFreq &&
               vSa == o.vSa && vIo == o.vIo &&
               mrcTrainedBin == o.mrcTrainedBin;
    }
};

/**
 * The ordered set of operating points one SoC supports, highest
 * performance first (mirroring DramSpec bin order).
 */
class OpPointTable
{
  public:
    /**
     * Derive the table from @p cfg: one point per DRAM bin, with
     * fabric clock and rail voltages read off the Skylake V/F curves
     * (Sec. 3's alignment rule: the fabric clock is scaled so the
     * shared V_SA can drop to the bin's minimum functional voltage).
     */
    explicit OpPointTable(const SocConfig &cfg);

    std::size_t size() const { return points_.size(); }

    const OperatingPoint &point(std::size_t i) const;

    /** The boot/default point (highest DRAM bin). */
    const OperatingPoint &high() const { return point(0); }

    /**
     * The paper's low point: one bin below the default (1066MT/s on
     * LPDDR3). Falls back to high() for single-bin specs.
     */
    const OperatingPoint &low() const;

    const std::vector<OperatingPoint> &points() const
    {
        return points_;
    }

  private:
    std::vector<OperatingPoint> points_;
};

/**
 * Worst-case (budget) power of the IO + memory domains at @p op:
 * what the PBM must set aside before granting the rest to compute.
 * Evaluated at @p cfg.budgetUtilization.
 *
 * @param optimized_mrc When false, the Fig. 4 termination/activity
 *        penalties of unoptimized registers are charged (a governor
 *        without per-bin MRC must budget for the hotter interface).
 */
Watt ioMemBudgetDemand(const SocConfig &cfg, const OperatingPoint &op,
                       bool optimized_mrc = true);

/** Reference DRAM traffic used when budgeting operation energy. */
constexpr BytesPerSec kBudgetTrafficBytesPerSec = 8.0e9;

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_OP_POINT_HH
