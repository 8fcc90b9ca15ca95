/**
 * @file
 * Generic best-effort DMA client (storage, network, USB).
 *
 * Unlike display/camera traffic, DMA traffic tolerates latency; it
 * rides the fabric's best-effort class and shows up in the IO_RPQ
 * performance counter when the fabric is too slow for it (Sec. 4.2,
 * condition 5 of the power-management algorithm).
 */

#ifndef SYSSCALE_IO_DMA_HH
#define SYSSCALE_IO_DMA_HH

#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace io {

/**
 * A bulk-transfer IO client with a configurable offered rate.
 */
class DmaDevice : public SimObject
{
  public:
    DmaDevice(Simulator &sim, SimObject *parent, std::string name,
              BytesPerSec offered_rate = 0.0);

    /** Current offered transfer rate. */
    BytesPerSec offeredRate() const { return offeredRate_; }

    /** Retarget the offered rate (e.g. a file copy starting). */
    void setOfferedRate(BytesPerSec rate);

    /**
     * Record the bandwidth the fabric actually granted during an
     * interval; the shortfall accumulates as backlog.
     */
    void recordService(BytesPerSec granted, Tick interval);

    /** Unserviced bytes queued behind the device. */
    double backlogBytes() const { return backlog_; }

    /** Device power at a given achieved rate. */
    Watt power(BytesPerSec achieved) const;

    /** Energy cost per transferred byte (controller + PHY). */
    static constexpr double kJoulePerByte = 20e-12;

    /** Idle controller power while the device is enabled. */
    static constexpr Watt kIdlePower = 0.01;

    /** Snapshot support. */
    void visitState(StateIO &io) override;

  private:
    BytesPerSec offeredRate_;
    double backlog_ = 0.0;

    stats::Scalar transferred_;
    stats::Scalar stalledBytes_;
};

} // namespace io
} // namespace sysscale

#endif // SYSSCALE_IO_DMA_HH
