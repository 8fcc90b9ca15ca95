#include "compute/gfx.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace compute {

GfxEngine::GfxEngine(Simulator &sim, SimObject *parent,
                     power::PStateTable pstates)
    : SimObject(sim, parent, "gfx"), pstates_(std::move(pstates)),
      freq_(pstates_.min().freq), voltage_(pstates_.min().voltage),
      frames_(this, "frames", "frames rendered"),
      pstateChanges_(this, "pstate_changes", "P-state transitions"),
      fpsAvg_(this, "fps", "achieved frame rate")
{
    refreshLeakage();
}

void
GfxEngine::setPState(const power::PState &state)
{
    if (state.freq != freq_ || state.voltage != voltage_)
        ++pstateChanges_;
    freq_ = state.freq;
    if (state.voltage != voltage_) {
        voltage_ = state.voltage;
        refreshLeakage();
    }
}

void
GfxEngine::refreshLeakage()
{
    leakage_ = power::leakagePower(pstates_.leakK(), voltage_,
                                   pstates_.temperature());
}

double
GfxEngine::shaderLimitedFps(const GfxWork &work) const
{
    if (work.idle())
        return 0.0;
    double fps = freq_ / work.cyclesPerFrame;
    if (work.targetFps > 0.0)
        fps = std::min(fps, work.targetFps);
    return fps;
}

BytesPerSec
GfxEngine::bandwidthDemand(const GfxWork &work) const
{
    return shaderLimitedFps(work) * work.bytesPerFrame;
}

GfxResult
GfxEngine::render(const GfxWork &work, BytesPerSec granted_bw,
                  Tick interval)
{
    const GfxResult res = evaluateRender(work, granted_bw, interval);
    if (!work.idle())
        commitRender(res);
    return res;
}

GfxResult
GfxEngine::evaluateRender(const GfxWork &work, BytesPerSec granted_bw,
                          Tick interval) const
{
    SYSSCALE_ASSERT(interval > 0, "zero-length render interval");

    GfxResult res;
    if (work.idle())
        return res;

    const double fps_shader = shaderLimitedFps(work);
    double fps = fps_shader;
    if (work.bytesPerFrame > 0.0) {
        const double fps_bw = granted_bw / work.bytesPerFrame;
        if (fps_bw < fps) {
            fps = fps_bw;
            res.bandwidthLimited = true;
        }
    }

    res.fps = fps;
    res.frames = fps * secondsFromTicks(interval);
    return res;
}

Watt
GfxEngine::power(const GfxWork &work) const
{
    if (work.idle())
        return leakage_;
    return power::dynamicPower(pstates_.cdyn(), voltage_, freq_,
                               work.activity) +
           leakage_;
}

void
GfxEngine::visitState(StateIO &io)
{
    io.field("freq", freq_);
    io.field("voltage", voltage_);
    if (io.loading())
        refreshLeakage();
}

} // namespace compute
} // namespace sysscale
