#include "io/display.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace io {

std::size_t
panelWidth(PanelResolution r)
{
    switch (r) {
      case PanelResolution::HD: return 1366;
      case PanelResolution::FHD: return 1920;
      case PanelResolution::QHD: return 2560;
      case PanelResolution::UHD4K: return 3840;
    }
    SYSSCALE_PANIC("bad PanelResolution %d", static_cast<int>(r));
}

std::size_t
panelHeight(PanelResolution r)
{
    switch (r) {
      case PanelResolution::HD: return 768;
      case PanelResolution::FHD: return 1080;
      case PanelResolution::QHD: return 1440;
      case PanelResolution::UHD4K: return 2160;
    }
    SYSSCALE_PANIC("bad PanelResolution %d", static_cast<int>(r));
}

const char *
panelResolutionName(PanelResolution r)
{
    switch (r) {
      case PanelResolution::HD: return "HD";
      case PanelResolution::FHD: return "FHD";
      case PanelResolution::QHD: return "QHD";
      case PanelResolution::UHD4K: return "4K";
    }
    SYSSCALE_PANIC("bad PanelResolution %d", static_cast<int>(r));
}

std::string
DisplayEngine::csrResolution(std::size_t index)
{
    return "display.panel" + std::to_string(index) + ".res";
}

std::string
DisplayEngine::csrRefresh(std::size_t index)
{
    return "display.panel" + std::to_string(index) + ".refresh";
}

DisplayEngine::DisplayEngine(Simulator &sim, SimObject *parent,
                             CsrSpace &csr)
    : SimObject(sim, parent, "display"), csr_(csr),
      hotplugs_(this, "hotplugs", "panel attach/detach events")
{
    csr_.define(kCsrActivePanels, 0);
    for (std::size_t i = 0; i < kMaxPanels; ++i) {
        csr_.define(csrResolution(i), 0);
        csr_.define(csrRefresh(i), 0);
    }
}

void
DisplayEngine::attachPanel(std::size_t index, const PanelConfig &cfg)
{
    if (index >= kMaxPanels)
        SYSSCALE_FATAL("panel slot %zu out of range (max %zu)", index,
                       kMaxPanels);
    if (cfg.refreshHz <= 0.0)
        SYSSCALE_FATAL("panel refresh %.1f Hz not positive",
                       cfg.refreshHz);
    if (cfg.bytesPerPixel == 0)
        SYSSCALE_FATAL("panel with zero bytes per pixel");

    panels_[index] = cfg;
    ++hotplugs_;
    publishCsrs();
}

void
DisplayEngine::detachPanel(std::size_t index)
{
    if (index >= kMaxPanels)
        SYSSCALE_FATAL("panel slot %zu out of range (max %zu)", index,
                       kMaxPanels);
    panels_[index].reset();
    ++hotplugs_;
    publishCsrs();
}

std::size_t
DisplayEngine::activePanels() const
{
    std::size_t n = 0;
    for (const auto &p : panels_)
        n += p.has_value() ? 1 : 0;
    return n;
}

std::optional<PanelConfig>
DisplayEngine::panel(std::size_t index) const
{
    SYSSCALE_ASSERT(index < kMaxPanels, "panel slot %zu out of range",
                    index);
    return panels_[index];
}

BytesPerSec
DisplayEngine::panelBandwidth(const PanelConfig &cfg)
{
    const double pixels =
        static_cast<double>(panelWidth(cfg.resolution)) *
        static_cast<double>(panelHeight(cfg.resolution));
    const double surface_rate = pixels * cfg.refreshHz *
                                static_cast<double>(cfg.bytesPerPixel);
    return kBaseBandwidth + surface_rate * kCompositionFactor;
}

BytesPerSec
DisplayEngine::bandwidthDemand() const
{
    BytesPerSec total = 0.0;
    for (const auto &p : panels_) {
        if (p)
            total += panelBandwidth(*p);
    }
    return total;
}

Watt
DisplayEngine::power() const
{
    return kPipePower * static_cast<double>(activePanels());
}

void
DisplayEngine::publishCsrs()
{
    csr_.write(kCsrActivePanels, activePanels());
    for (std::size_t i = 0; i < kMaxPanels; ++i) {
        if (panels_[i]) {
            csr_.write(csrResolution(i),
                       static_cast<std::uint64_t>(
                           panels_[i]->resolution) + 1);
            csr_.write(csrRefresh(i),
                       static_cast<std::uint64_t>(
                           panels_[i]->refreshHz));
        } else {
            csr_.write(csrResolution(i), 0);
            csr_.write(csrRefresh(i), 0);
        }
    }
}

void
DisplayEngine::visitState(StateIO &io)
{
    // No publishCsrs(): the Soc restores the CSR space wholesale, and
    // attachPanel() would count hotplug events that never happened.
    for (std::size_t i = 0; i < kMaxPanels; ++i) {
        io.push("panel" + std::to_string(i));
        std::optional<PanelConfig> &p = panels_[i];
        bool attached = p.has_value();
        io.field("attached", attached);
        if (io.loading()) {
            if (attached)
                p.emplace();
            else
                p.reset();
        }
        if (attached) {
            auto res = static_cast<std::uint64_t>(p->resolution);
            io.field("resolution", res);
            if (io.loading()) {
                if (res > static_cast<std::uint64_t>(
                              PanelResolution::UHD4K))
                    throw SnapshotError("display: bad panel resolution");
                p->resolution = static_cast<PanelResolution>(res);
            }
            io.field("refresh_hz", p->refreshHz);
            io.field("bytes_per_pixel", p->bytesPerPixel);
        }
        io.pop();
    }
}

} // namespace io
} // namespace sysscale
