#include "io/isp.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace io {

IspEngine::IspEngine(Simulator &sim, SimObject *parent, CsrSpace &csr)
    : SimObject(sim, parent, "isp"), csr_(csr),
      sessions_(this, "sessions", "camera start events")
{
    csr_.define(kCsrActive, 0);
    csr_.define(kCsrPixelRate, 0);
}

void
IspEngine::startCamera(const CameraConfig &cfg)
{
    if (cfg.width == 0 || cfg.height == 0)
        SYSSCALE_FATAL("camera with zero geometry");
    if (cfg.fps <= 0.0)
        SYSSCALE_FATAL("camera fps %.1f not positive", cfg.fps);
    if (cfg.bytesPerPixel == 0)
        SYSSCALE_FATAL("camera with zero bytes per pixel");

    camera_ = cfg;
    ++sessions_;
    publishCsrs();
}

void
IspEngine::stopCamera()
{
    camera_.reset();
    publishCsrs();
}

BytesPerSec
IspEngine::bandwidthDemand() const
{
    if (!camera_)
        return 0.0;
    const double pixel_rate = static_cast<double>(camera_->width) *
                              static_cast<double>(camera_->height) *
                              camera_->fps;
    return pixel_rate *
           static_cast<double>(camera_->bytesPerPixel) * kPassCount;
}

Watt
IspEngine::power() const
{
    return camera_ ? kStreamPower : 0.0;
}

void
IspEngine::publishCsrs()
{
    csr_.write(kCsrActive, camera_ ? 1 : 0);
    const double pixel_rate =
        camera_ ? static_cast<double>(camera_->width) *
                      static_cast<double>(camera_->height) *
                      camera_->fps
                : 0.0;
    csr_.write(kCsrPixelRate, static_cast<std::uint64_t>(pixel_rate));
}

void
IspEngine::visitState(StateIO &io)
{
    // No publishCsrs(): CSR values restore with the Soc; and no
    // startCamera(), which would count a session.
    bool active = camera_.has_value();
    io.field("active", active);
    if (io.loading()) {
        if (active)
            camera_.emplace();
        else
            camera_.reset();
    }
    if (active) {
        io.field("width", camera_->width);
        io.field("height", camera_->height);
        io.field("fps", camera_->fps);
        io.field("bytes_per_pixel", camera_->bytesPerPixel);
    }
}

} // namespace io
} // namespace sysscale
