/**
 * @file
 * Micron-style DRAM power model (paper Sec. 2.3).
 *
 * Decomposes DRAM power into background, refresh, array operation,
 * IO, register, and termination components. The frequency/voltage
 * sensitivities follow Sec. 2.4 of the paper:
 *  - background power scales ~linearly with bus clock,
 *  - per-bit IO/termination *energy* rises as frequency drops
 *    (the burst occupies the interface longer),
 *  - termination power tracks interface utilization, not frequency.
 */

#ifndef SYSSCALE_DRAM_POWER_HH
#define SYSSCALE_DRAM_POWER_HH

#include <array>

#include "dram/spec.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace sysscale {
namespace dram {

/** Per-component average power over an accounting interval. */
struct DramPowerBreakdown
{
    Watt background = 0.0;  //!< Standby peripheral circuitry.
    Watt refresh = 0.0;     //!< Periodic refresh bursts.
    Watt array = 0.0;       //!< Bank/row/column operation power.
    Watt io = 0.0;          //!< Device-side drivers/receivers/DLL.
    Watt registers = 0.0;   //!< Clock/command-address registers.
    Watt termination = 0.0; //!< ODT power, utilization-driven.

    Watt total() const
    {
        return background + refresh + array + io + registers +
               termination;
    }
};

/**
 * Power characterization of a DRAM configuration.
 *
 * All coefficients are per-device and referenced to the device's
 * nominal VDDQ; system totals multiply by DramSpec::totalDevices().
 * Every traffic-independent term is computed per bin at construction;
 * activePower() evaluates only the array, IO and termination terms.
 */
class DramPowerModel
{
  public:
    /** Bins a model can hold (the MRC SRAM budget caps a SoC at 3). */
    static constexpr std::size_t kMaxBins = 8;

    explicit DramPowerModel(const DramSpec &spec, Volt vddq = 1.2);

    /**
     * Average power while the devices are in self-refresh.
     */
    Watt selfRefreshPower() const;

    /**
     * Average power over an active interval.
     *
     * @param bin_index Current frequency bin.
     * @param read_bytes Bytes read during the interval.
     * @param write_bytes Bytes written during the interval.
     * @param interval_s Interval length in seconds.
     * @param termination_factor Multiplier on termination/IO power for
     *        unoptimized ODT/drive MRC settings (1.0 = trained).
     */
    DramPowerBreakdown activePower(std::size_t bin_index,
                                   double read_bytes,
                                   double write_bytes,
                                   double interval_s,
                                   double termination_factor = 1.0)
        const;

    Volt vddq() const { return vddq_; }

  private:
    /** Traffic-independent terms of one frequency bin. */
    struct BinTerms
    {
        Watt backgroundW = 0.0;
        Watt refreshW = 0.0;
        Watt registersW = 0.0;
        double ioPjPerBit = 0.0;       //!< IO energy/bit at this clock.
        BytesPerSec peakBandwidth = 0.0;
    };

    std::size_t numBins_;
    Volt vddq_;
    double vscale_ = 0.0;      //!< (VDDQ / 1.2 V)^2.
    Watt selfRefreshW_ = 0.0;  //!< All devices in self-refresh.
    Watt termFullUtilW_ = 0.0; //!< All devices' ODT at 100% utilization.
    std::array<BinTerms, kMaxBins> bins_{};

    // Per-device coefficients (referenced to LPDDR3 x32 @ 1.2V).
    double bgStandbyMwAtRef_;   //!< Background at the reference clock.
    double bgFloorMw_;          //!< Clock-independent background floor.
    double selfRefreshMw_;      //!< Per-device self-refresh power.
    double arrayPjPerBitRead_;
    double arrayPjPerBitWrite_;
    double ioPjPerBitAtRef_;    //!< IO energy/bit at the reference clock.
    double termMwPerDevice_;    //!< ODT at 100% utilization.
    double registerMwAtRef_;
    double refClockMhz_;        //!< Bus clock the coefficients reference.
};

} // namespace dram
} // namespace sysscale

#endif // SYSSCALE_DRAM_POWER_HH
