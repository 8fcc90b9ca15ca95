/**
 * @file
 * Graphics engine model.
 *
 * Frame throughput is the minimum of the shader-limited rate (engine
 * frequency over cycles of work per frame) and the bandwidth-limited
 * rate (granted memory bandwidth over bytes touched per frame).
 * Graphics performance is "highly scalable with the graphics engine
 * frequency" (Sec. 7.2), which is what makes the budget SysScale
 * frees valuable for 3DMark.
 */

#ifndef SYSSCALE_COMPUTE_GFX_HH
#define SYSSCALE_COMPUTE_GFX_HH

#include "power/power_model.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace compute {

/** What the graphics engine is asked to render. */
struct GfxWork
{
    /** Engine cycles to render one frame. */
    double cyclesPerFrame = 0.0;

    /** Memory bytes touched per frame (textures, targets). */
    double bytesPerFrame = 0.0;

    /** Frame-rate cap (vsync); 0 means uncapped. */
    double targetFps = 0.0;

    /** Switching activity while rendering. */
    double activity = 0.8;

    bool idle() const { return cyclesPerFrame <= 0.0; }

    bool
    operator==(const GfxWork &o) const
    {
        return cyclesPerFrame == o.cyclesPerFrame &&
               bytesPerFrame == o.bytesPerFrame &&
               targetFps == o.targetFps && activity == o.activity;
    }
};

/** Outcome of one interval of rendering. */
struct GfxResult
{
    double fps = 0.0;            //!< Achieved frame rate.
    double frames = 0.0;         //!< Frames completed this interval.
    bool bandwidthLimited = false;
};

/**
 * The SoC graphics engine (own rail, Sec. 2.1).
 */
class GfxEngine : public SimObject
{
  public:
    GfxEngine(Simulator &sim, SimObject *parent,
              power::PStateTable pstates);

    /** @name Operating point. @{ */
    Hertz frequency() const { return freq_; }
    Volt voltage() const { return voltage_; }

    /** Apply a P-state (PBM grant). */
    void setPState(const power::PState &state);

    const power::PStateTable &pstates() const { return pstates_; }
    /** @} */

    /** Frame rate sustainable at the current clock, ignoring memory. */
    double shaderLimitedFps(const GfxWork &work) const;

    /** Unconstrained memory bandwidth demand of @p work. */
    BytesPerSec bandwidthDemand(const GfxWork &work) const;

    /**
     * Render one interval: commitRender(evaluateRender(...)), except
     * that idle work renders and counts nothing.
     *
     * @param work Frame characteristics.
     * @param granted_bw Memory bandwidth granted to the engine.
     * @param interval Interval length in ticks.
     */
    GfxResult render(const GfxWork &work, BytesPerSec granted_bw,
                     Tick interval);

    /** What render() would render; pure (nothing is counted). */
    GfxResult evaluateRender(const GfxWork &work,
                             BytesPerSec granted_bw,
                             Tick interval) const;

    /**
     * Count @p res (of non-idle work): frames and the frame-rate
     * average. Committing one evaluation N times equals N render()
     * calls on its inputs.
     */
    void commitRender(const GfxResult &res);

    /** Engine power while rendering @p work (leakage when idle). */
    Watt power(const GfxWork &work) const;

    /** Leakage at the current voltage (power() of idle work). */
    Watt leakage() const { return leakage_; }

    /** Frames rendered since construction. */
    double totalFrames() const { return frames_.value(); }

    /** Snapshot support: the applied P-state. */
    void visitState(StateIO &io) override;

  private:
    /**
     * Re-derive leakage_ from voltage_. Every writer of voltage_
     * (constructor, setPState(), a restoring visitState()) must call
     * it; the cache is never snapshotted.
     */
    void refreshLeakage();

    power::PStateTable pstates_;
    Hertz freq_;
    Volt voltage_;
    Watt leakage_ = 0.0; //!< Derived from voltage_ by refreshLeakage().

    stats::Scalar frames_;
    stats::Scalar pstateChanges_;
    stats::Average fpsAvg_;
};

inline void
GfxEngine::commitRender(const GfxResult &res)
{
    frames_ += res.frames;
    fpsAvg_.sample(res.fps);
}

} // namespace compute
} // namespace sysscale

#endif // SYSSCALE_COMPUTE_GFX_HH
