/**
 * @file
 * Image signal processor (camera) model.
 *
 * The ISP streams sensor frames through memory while a camera is
 * active (video conferencing in the paper's battery-life suite).
 * Like the display engine its demand is static — a function of the
 * sensor configuration published in CSRs (Fig. 3b shows the ISP bars
 * per configuration) — and its traffic is isochronous: a dropped
 * sensor frame is a glitch.
 */

#ifndef SYSSCALE_IO_ISP_HH
#define SYSSCALE_IO_ISP_HH

#include <cstdint>
#include <optional>

#include "io/csr.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace io {

/** One active camera stream. */
struct CameraConfig
{
    std::size_t width = 1280;
    std::size_t height = 720;
    double fps = 30.0;
    std::size_t bytesPerPixel = 2; //!< Raw sensor data (YUV422).
};

/**
 * The camera/ISP engine.
 */
class IspEngine : public SimObject
{
  public:
    IspEngine(Simulator &sim, SimObject *parent, CsrSpace &csr);

    /** Start streaming from a camera. */
    void startCamera(const CameraConfig &cfg);

    /** Stop the camera stream. */
    void stopCamera();

    bool active() const { return camera_.has_value(); }

    std::optional<CameraConfig> camera() const { return camera_; }

    /**
     * Isochronous bandwidth demand: sensor write + ISP read +
     * processed write (each frame crosses memory kPassCount times).
     */
    BytesPerSec bandwidthDemand() const;

    /** Engine power while streaming. */
    Watt power() const;

    /** Memory passes per frame (capture, process, encode source). */
    static constexpr double kPassCount = 3.0;

    /** ISP compute power while streaming. */
    static constexpr Watt kStreamPower = 0.12;

    /** @name CSR names published by the engine. @{ */
    static constexpr const char *kCsrActive = "isp.active";
    static constexpr const char *kCsrPixelRate = "isp.pixel_rate";
    /** @} */

    /** Snapshot support. */
    void visitState(StateIO &io) override;

  private:
    void publishCsrs();

    CsrSpace &csr_;
    std::optional<CameraConfig> camera_;

    stats::Scalar sessions_;
};

} // namespace io
} // namespace sysscale

#endif // SYSSCALE_IO_ISP_HH
