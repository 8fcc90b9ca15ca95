#include "dram/power.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sysscale {
namespace dram {

DramPowerModel::DramPowerModel(const DramSpec &spec, Volt vddq)
    : numBins_(spec.numBins()), vddq_(vddq)
{
    if (vddq <= 0.0)
        SYSSCALE_FATAL("DramPowerModel: non-positive VDDQ");

    switch (spec.type()) {
      case DramType::LPDDR3:
        refClockMhz_ = 800.0;        // 1600 MT/s bus clock
        bgStandbyMwAtRef_ = 100.0;
        bgFloorMw_ = 20.0;
        selfRefreshMw_ = 1.6;
        arrayPjPerBitRead_ = 4.0;
        arrayPjPerBitWrite_ = 4.6;
        ioPjPerBitAtRef_ = 1.8;
        termMwPerDevice_ = 0.0;      // LPDDR3 is unterminated
        registerMwAtRef_ = 8.0;
        break;
      case DramType::DDR4:
        refClockMhz_ = 933.0;        // 1866 MT/s bus clock
        bgStandbyMwAtRef_ = 30.0;
        bgFloorMw_ = 10.0;
        selfRefreshMw_ = 2.2;
        arrayPjPerBitRead_ = 3.2;
        arrayPjPerBitWrite_ = 3.8;
        ioPjPerBitAtRef_ = 2.4;
        termMwPerDevice_ = 16.0;     // ODT burns real power on DDR4
        registerMwAtRef_ = 4.0;
        break;
    }

    if (numBins_ > kMaxBins)
        SYSSCALE_FATAL("DramPowerModel: %zu bins exceed the %zu held",
                       numBins_, kMaxBins);

    const double devices = static_cast<double>(spec.totalDevices());
    vscale_ = (vddq_ / 1.2) * (vddq_ / 1.2);
    selfRefreshW_ = selfRefreshMw_ * 1e-3 * devices;
    termFullUtilW_ = devices * 1e-3 * termMwPerDevice_;

    for (std::size_t i = 0; i < numBins_; ++i) {
        const double clock_ratio =
            (spec.bin(i).busClock() / kMHz) / refClockMhz_;
        BinTerms &b = bins_[i];

        // Background: clock-tree + peripheral standby scales with the
        // bus clock; a floor remains for always-on circuits.
        b.backgroundW = devices * 1e-3 *
            (bgFloorMw_ + bgStandbyMwAtRef_ * clock_ratio) * vscale_;

        // Refresh: modeled as its duty-cycle share of an active-burst
        // power level (tRFC every tREFI).
        const double refresh_burst_mw = 60.0; // per device during tRFC
        b.refreshW = devices * 1e-3 * refresh_burst_mw *
                     optimizedTimings(spec, i).refreshOverhead() *
                     vscale_;

        // Registers/clock buffers on the command-address interface.
        b.registersW = devices * 1e-3 * registerMwAtRef_ *
                       clock_ratio * vscale_;

        // IO energy: per-bit cost grows as the clock drops because
        // each burst occupies the drivers longer (Sec. 2.4, point 3).
        b.ioPjPerBit = ioPjPerBitAtRef_ / std::max(clock_ratio, 1e-6);

        b.peakBandwidth = spec.peakBandwidth(i);
    }
}

Watt
DramPowerModel::selfRefreshPower() const
{
    return selfRefreshW_;
}

DramPowerBreakdown
DramPowerModel::activePower(std::size_t bin_index, double read_bytes,
                            double write_bytes, double interval_s,
                            double termination_factor) const
{
    SYSSCALE_ASSERT(bin_index < numBins_,
                    "bin index %zu out of range", bin_index);
    SYSSCALE_ASSERT(interval_s > 0.0, "non-positive interval");
    SYSSCALE_ASSERT(read_bytes >= 0.0 && write_bytes >= 0.0,
                    "negative traffic");
    SYSSCALE_ASSERT(termination_factor >= 1.0,
                    "termination factor below trained value");

    const BinTerms &b = bins_[bin_index];
    DramPowerBreakdown out;
    out.background = b.backgroundW;
    out.refresh = b.refreshW;
    out.registers = b.registersW;

    // Array operation energy: charge per accessed bit.
    const double read_bits = read_bytes * 8.0;
    const double write_bits = write_bytes * 8.0;
    out.array = (read_bits * arrayPjPerBitRead_ +
                 write_bits * arrayPjPerBitWrite_) * 1e-12 *
                vscale_ / interval_s;

    out.io = (read_bits + write_bits) * b.ioPjPerBit * 1e-12 *
             vscale_ * termination_factor / interval_s;

    // Termination: proportional to interface utilization, not
    // directly to frequency (Sec. 2.3).
    const double peak_bytes = b.peakBandwidth * interval_s;
    const double util = std::min(
        1.0, (read_bytes + write_bytes) / std::max(peak_bytes, 1.0));
    out.termination = termFullUtilW_ * util * termination_factor;

    return out;
}

} // namespace dram
} // namespace sysscale
