/**
 * @file
 * Display engine model.
 *
 * The display controller continuously scans out every active panel's
 * frame buffer — isochronous traffic that must never be starved
 * (Sec. 1). Its bandwidth demand is *static*: fully determined by the
 * panel configuration published in CSRs (Sec. 4.2), which is exactly
 * what SysScale's static demand table keys on.
 *
 * Fig. 3(b) anchors the model: one HD panel consumes ~17% of the
 * 25.6GB/s dual-channel LPDDR3-1600 peak and a single 4K panel ~70%.
 * Scan-out traffic exceeds the raw front-buffer rate because the
 * pipeline fetches overlay planes, composes, and writes intermediate
 * surfaces; we model that with a fixed per-pixel composition factor
 * plus a resolution-independent base (cursor and control plane
 * fetches), fitted to the two anchors.
 */

#ifndef SYSSCALE_IO_DISPLAY_HH
#define SYSSCALE_IO_DISPLAY_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "io/csr.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace io {

/** Supported panel resolutions (modern laptops, Sec. 4.2). */
enum class PanelResolution : std::uint8_t { HD, FHD, QHD, UHD4K };

/** Horizontal pixel count of @p r. */
std::size_t panelWidth(PanelResolution r);

/** Vertical pixel count of @p r. */
std::size_t panelHeight(PanelResolution r);

/** One attached display panel. */
struct PanelConfig
{
    PanelResolution resolution = PanelResolution::HD;
    double refreshHz = 60.0;
    std::size_t bytesPerPixel = 4;
};

/**
 * The laptop HD panel every paper experiment runs with (Sec. 6).
 * Shared by the experiment layer (ExperimentSpec::hdPanel) and the
 * scenario DisplayOn action, so a display-blank scenario always
 * reattaches exactly the panel the cell started with.
 */
inline constexpr PanelConfig kDefaultHdPanel{PanelResolution::HD,
                                             60.0, 4};

/**
 * The SoC display controller (up to three panels, Sec. 4.2).
 */
class DisplayEngine : public SimObject
{
  public:
    /** Maximum simultaneously active panels. */
    static constexpr std::size_t kMaxPanels = 3;

    DisplayEngine(Simulator &sim, SimObject *parent, CsrSpace &csr);

    /**
     * Attach a panel to slot @p index (hot-plug). Updates the CSRs
     * the PMU's static table reads.
     */
    void attachPanel(std::size_t index, const PanelConfig &cfg);

    /** Detach the panel in slot @p index. */
    void detachPanel(std::size_t index);

    /** Number of active panels. */
    std::size_t activePanels() const;

    /** Panel in slot @p index, if attached. */
    std::optional<PanelConfig> panel(std::size_t index) const;

    /** Isochronous scan-out bandwidth of one panel. */
    static BytesPerSec panelBandwidth(const PanelConfig &cfg);

    /** Total isochronous bandwidth demand of all active panels. */
    BytesPerSec bandwidthDemand() const;

    /** Engine power while scanning (per active panel pipe). */
    Watt power() const;

    /** @name Fig. 3(b) calibration. @{ */

    /**
     * Composition/scan factor: effective memory traffic per displayed
     * byte. Fitted with kBaseBandwidth so HD = ~17% and 4K = ~70% of
     * the 25.6GB/s LPDDR3-1600 peak.
     */
    static constexpr double kCompositionFactor = 7.8;

    /** Resolution-independent pipe overhead per active panel. */
    static constexpr BytesPerSec kBaseBandwidth = 2.39 * kGBps;

    /** Power of one active display pipe. */
    static constexpr Watt kPipePower = 0.055;
    /** @} */

    /** @name CSR names published by the engine. @{ */

    /** Count of attached panels. */
    static constexpr const char *kCsrActivePanels =
        "display.active_panels";

    /** Per-slot resolution register name ("display.panelN.res"). */
    static std::string csrResolution(std::size_t index);

    /** Per-slot refresh-rate register name. */
    static std::string csrRefresh(std::size_t index);
    /** @} */

    /** Snapshot support: panel slots (CSR values round-trip
     *  through the Soc's own CSR-space section). */
    void visitState(StateIO &io) override;

  private:
    void publishCsrs();

    CsrSpace &csr_;
    std::array<std::optional<PanelConfig>, kMaxPanels> panels_;

    stats::Scalar hotplugs_;
};

} // namespace io
} // namespace sysscale

#endif // SYSSCALE_IO_DISPLAY_HH
