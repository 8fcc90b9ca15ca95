#include "io/dma.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace io {

DmaDevice::DmaDevice(Simulator &sim, SimObject *parent,
                     std::string name, BytesPerSec offered_rate)
    : SimObject(sim, parent, std::move(name)),
      offeredRate_(offered_rate),
      transferred_(this, "transferred_bytes", "bytes transferred"),
      stalledBytes_(this, "stalled_bytes",
                    "bytes delayed by fabric backpressure")
{
    if (offered_rate < 0.0)
        SYSSCALE_FATAL("DMA offered rate %.1f negative", offered_rate);
}

void
DmaDevice::setOfferedRate(BytesPerSec rate)
{
    if (rate < 0.0)
        SYSSCALE_FATAL("DMA offered rate %.1f negative", rate);
    offeredRate_ = rate;
}

void
DmaDevice::recordService(BytesPerSec granted, Tick interval)
{
    SYSSCALE_ASSERT(interval > 0, "zero-length DMA interval");
    const double secs = secondsFromTicks(interval);
    const double offered = offeredRate_ * secs + backlog_;
    const double moved = std::min(offered, granted * secs);

    transferred_ += moved;
    backlog_ = offered - moved;
    stalledBytes_ += backlog_;
}

Watt
DmaDevice::power(BytesPerSec achieved) const
{
    return kIdlePower + achieved * kJoulePerByte;
}

void
DmaDevice::visitState(StateIO &io)
{
    io.field("offered_rate", offeredRate_);
    io.field("backlog", backlog_);
}

} // namespace io
} // namespace sysscale
