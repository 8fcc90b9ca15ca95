/**
 * @file
 * DRAM device-array model: frequency-bin state, self-refresh entry and
 * exit, refresh bookkeeping, and traffic/energy statistics.
 *
 * The cycle-level bank state machine is abstracted into the timing
 * parameters consumed by the memory controller's service model; what
 * this class owns is the *mode* of the devices (which bin, whether in
 * self-refresh) and the latency contract of mode changes — exactly
 * the pieces SysScale's transition flow manipulates (Fig. 5, steps
 * 4 and 8).
 */

#ifndef SYSSCALE_DRAM_DEVICE_HH
#define SYSSCALE_DRAM_DEVICE_HH

#include "dram/power.hh"
#include "dram/spec.hh"
#include "dram/timing.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace dram {

/** Device-array operating mode. */
enum class DramMode { Active, SelfRefresh };

/**
 * The DRAM rank population of one SoC.
 */
class DramDevice : public SimObject
{
  public:
    DramDevice(Simulator &sim, SimObject *parent, DramSpec spec,
               Volt vddq = 1.2);

    const DramSpec &spec() const { return spec_; }

    /** @name Frequency bin. @{ */
    std::size_t binIndex() const { return binIndex_; }
    const FreqBin &bin() const { return spec_.bin(binIndex_); }
    const TimingSet &timings() const { return timings_; }

    /**
     * Switch the device clock to another bin. Only legal while in
     * self-refresh (the JEDEC-required sequence the paper's flow
     * follows); panics otherwise.
     */
    void setBin(std::size_t bin_index);
    /** @} */

    /** @name Self-refresh. @{ */
    DramMode mode() const { return mode_; }

    /** Enter self-refresh (requires Active mode). */
    void enterSelfRefresh();

    /**
     * Leave self-refresh.
     * @param fast_relock True when DDRIO retraining is replaced by a
     *        SRAM-restored state (SysScale); bounds exit below 5us.
     * @return Exit latency in ticks (tXSR plus interface training).
     */
    Tick exitSelfRefresh(bool fast_relock);
    /** @} */

    /**
     * Average power of an interval of serviced traffic. Pure: the
     * traffic is accounted by commitTraffic(). Panics in self-refresh.
     *
     * @param read_bytes Bytes read in the interval.
     * @param write_bytes Bytes written.
     * @param interval Interval length in ticks.
     * @param termination_factor MRC-dependent ODT/drive multiplier.
     */
    DramPowerBreakdown activePower(double read_bytes,
                                   double write_bytes, Tick interval,
                                   double termination_factor) const;

    /**
     * Account @p n like intervals of serviced traffic: the bytes, and
     * the energy of activePower().total() over each interval.
     */
    void commitTraffic(const stats::ExactSum::Term &read_bytes,
                       const stats::ExactSum::Term &write_bytes,
                       const stats::ExactSum::Term &energy,
                       std::uint64_t n);

    /** Average power while parked in self-refresh. */
    Watt selfRefreshPower() const
    {
        return powerModel_.selfRefreshPower();
    }

    /** Peak bandwidth at the current bin. */
    BytesPerSec peakBandwidth() const
    {
        return spec_.peakBandwidth(binIndex_);
    }

    /** Snapshot support: bin + mode (timings re-derived). */
    void visitState(StateIO &io) override;

  private:
    DramSpec spec_;
    DramPowerModel powerModel_;
    std::size_t binIndex_ = DramSpec::kDefaultBin;
    TimingSet timings_;
    DramMode mode_ = DramMode::Active;

    stats::Scalar readBytes_;
    stats::Scalar writeBytes_;
    stats::Scalar energyJ_;
    stats::Scalar srEntries_;
    stats::Scalar binSwitches_;
};

inline DramPowerBreakdown
DramDevice::activePower(double read_bytes, double write_bytes,
                        Tick interval, double termination_factor) const
{
    SYSSCALE_ASSERT(mode_ == DramMode::Active,
                    "traffic while in self-refresh");
    return powerModel_.activePower(binIndex_, read_bytes, write_bytes,
                                   secondsFromTicks(interval),
                                   termination_factor);
}

inline void
DramDevice::commitTraffic(const stats::ExactSum::Term &read_bytes,
                          const stats::ExactSum::Term &write_bytes,
                          const stats::ExactSum::Term &energy,
                          std::uint64_t n)
{
    SYSSCALE_ASSERT(mode_ == DramMode::Active,
                    "traffic while in self-refresh");
    readBytes_.add(read_bytes, n);
    writeBytes_.add(write_bytes, n);
    energyJ_.add(energy, n);
}

} // namespace dram
} // namespace sysscale

#endif // SYSSCALE_DRAM_DEVICE_HH
