#include "workloads/profile.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sysscale {
namespace workloads {

const char *
workloadClassName(WorkloadClass c)
{
    switch (c) {
      case WorkloadClass::CpuSingleThread: return "cpu-st";
      case WorkloadClass::CpuMultiThread: return "cpu-mt";
      case WorkloadClass::Graphics: return "graphics";
      case WorkloadClass::BatteryLife: return "battery";
      case WorkloadClass::Micro: return "micro";
    }
    return "?";
}

WorkloadProfile::WorkloadProfile(std::string name, WorkloadClass klass,
                                 std::vector<Phase> phases,
                                 double perf_scalability)
    : name_(std::move(name)), klass_(klass),
      phases_(std::move(phases)), perfScalability_(perf_scalability)
{
    if (phases_.empty())
        SYSSCALE_FATAL("profile '%s' has no phases", name_.c_str());
    if (perf_scalability < 0.0 || perf_scalability > 1.0)
        SYSSCALE_FATAL("profile '%s': scalability %.2f out of [0,1]",
                       name_.c_str(), perf_scalability);

    period_ = 0;
    for (const Phase &p : phases_) {
        if (p.duration == 0)
            SYSSCALE_FATAL("profile '%s' has a zero-length phase",
                           name_.c_str());
        period_ += p.duration;
    }
}

const Phase &
WorkloadProfile::phase(std::size_t i) const
{
    SYSSCALE_ASSERT(i < phases_.size(), "phase %zu out of range", i);
    return phases_[i];
}

const Phase &
WorkloadProfile::phaseAt(Tick offset) const
{
    SYSSCALE_ASSERT(period_ > 0, "profile '%s' has zero period",
                    name_.c_str());
    Tick t = offset % period_;
    for (const Phase &p : phases_) {
        if (t < p.duration)
            return p;
        t -= p.duration;
    }
    return phases_.back(); // unreachable
}

BytesPerSec
WorkloadProfile::peakBandwidthHint(double mem_latency_ns,
                                   Hertz core_freq) const
{
    BytesPerSec peak = 0.0;
    for (const Phase &p : phases_) {
        if (p.work.cpiBase <= 0.0)
            continue;
        const double lat_cycles = mem_latency_ns * 1e-9 * core_freq;
        const double cpi =
            p.work.cpiBase + p.work.mpki / 1000.0 *
                                 p.work.blockingFactor * lat_cycles;
        const double rate = core_freq / cpi;
        peak = std::max(peak,
                        rate * p.work.bytesPerInstr *
                            static_cast<double>(p.activeThreads));
    }
    return peak;
}

ProfileAgent::ProfileAgent(WorkloadProfile profile, std::size_t repeats)
    : profile_(std::move(profile)), repeats_(repeats)
{
}

const Phase &
ProfileAgent::currentPhase(Tick offset)
{
    const Tick period = profile_.period();
    SYSSCALE_ASSERT(period > 0, "profile '%s' has zero period",
                    profile_.name().c_str());
    const Tick t = offset % period;
    if (t < cursorBegin_) {
        cursorIndex_ = 0;
        cursorBegin_ = 0;
    }
    // t < period, so the scan always lands inside the phase list.
    while (t >= cursorBegin_ + profile_.phase(cursorIndex_).duration) {
        cursorBegin_ += profile_.phase(cursorIndex_).duration;
        ++cursorIndex_;
    }
    return profile_.phase(cursorIndex_);
}

void
ProfileAgent::demandAt(Tick now, soc::IntervalDemand &demand)
{
    const Phase &p = currentPhase(now);

    demand.threadWork.assign(p.activeThreads, p.work);
    demand.gfxWork = p.gfxWork;
    demand.ioBestEffort = p.ioBestEffort;
    demand.residency = p.residency;
    demand.coreFreqRequest = p.coreFreqRequest;
    demand.gfxFreqRequest = p.gfxFreqRequest;
}

bool
ProfileAgent::finished(Tick now) const
{
    if (repeats_ == 0)
        return false;
    return now >= profile_.period() * repeats_;
}

Tick
ProfileAgent::demandHorizon(Tick now)
{
    const Tick period = profile_.period();

    // A finished profile never produces demand again, and finished()
    // is monotone — the horizon is unbounded.
    Tick finish = kMaxTick;
    if (repeats_ != 0) {
        finish = period * repeats_;
        if (now >= finish)
            return kMaxTick;
    }

    // A single-phase profile presents the same demand every tick of
    // every repetition; only the finish edge remains.
    if (profile_.numPhases() == 1)
        return finish;

    // The demand next changes at the current phase's end boundary.
    const Tick t = now % period;
    (void)currentPhase(now); // position the cursor
    const Tick boundary =
        now - t + cursorBegin_ + profile_.phase(cursorIndex_).duration;
    return std::min(boundary, finish);
}

} // namespace workloads
} // namespace sysscale
