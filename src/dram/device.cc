#include "dram/device.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace dram {

DramDevice::DramDevice(Simulator &sim, SimObject *parent, DramSpec spec,
                       Volt vddq)
    : SimObject(sim, parent, "dram"),
      spec_(std::move(spec)),
      powerModel_(spec_, vddq),
      timings_(optimizedTimings(spec_, binIndex_)),
      readBytes_(this, "read_bytes", "bytes read from DRAM"),
      writeBytes_(this, "write_bytes", "bytes written to DRAM"),
      energyJ_(this, "energy_j", "DRAM energy consumed"),
      srEntries_(this, "self_refresh_entries",
                 "self-refresh entry count"),
      binSwitches_(this, "bin_switches", "frequency bin switches")
{
}

void
DramDevice::setBin(std::size_t bin_index)
{
    SYSSCALE_ASSERT(mode_ == DramMode::SelfRefresh,
                    "DRAM bin switched outside self-refresh");
    SYSSCALE_ASSERT(bin_index < spec_.numBins(),
                    "bin index %zu out of range", bin_index);
    if (bin_index == binIndex_)
        return;
    binIndex_ = bin_index;
    timings_ = optimizedTimings(spec_, binIndex_);
    ++binSwitches_;
}

void
DramDevice::enterSelfRefresh()
{
    SYSSCALE_ASSERT(mode_ == DramMode::Active,
                    "self-refresh entered twice");
    mode_ = DramMode::SelfRefresh;
    ++srEntries_;
}

Tick
DramDevice::exitSelfRefresh(bool fast_relock)
{
    SYSSCALE_ASSERT(mode_ == DramMode::SelfRefresh,
                    "self-refresh exited while active");
    mode_ = DramMode::Active;

    // tXSR covers the array side; the interface needs retraining or,
    // with SysScale's SRAM-restored state, only a fast relock. The
    // paper bounds the fast path below 5us (Sec. 5, item 3) while a
    // full retrain is on the order of tens of microseconds.
    const double training_ns = fast_relock ? 3000.0 : 40000.0;
    return ticksFromNs(timings_.tXSRNs + training_ns);
}

void
DramDevice::visitState(StateIO &io)
{
    // Not setBin(): that asserts SelfRefresh mode and counts a
    // switch; a restore reproduces state, it is not a transition.
    io.field("bin", binIndex_);
    if (io.loading()) {
        if (binIndex_ >= spec_.numBins())
            throw SnapshotError("dram: bin index out of range");
        timings_ = optimizedTimings(spec_, binIndex_);
    }
    bool self_refresh = mode_ == DramMode::SelfRefresh;
    io.field("self_refresh", self_refresh);
    if (io.loading())
        mode_ = self_refresh ? DramMode::SelfRefresh : DramMode::Active;
}

} // namespace dram
} // namespace sysscale
