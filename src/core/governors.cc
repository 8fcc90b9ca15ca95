#include "core/governors.hh"

#include <algorithm>

#include "core/governor_driver.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace core {

FixedGovernor::FixedGovernor()
    : PolicyBase("fixed", FlowOptions{}, /*redistribute=*/false)
{
}

void
FixedGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                      const soc::CounterSnapshot &avg)
{
    (void)avg;
    // Pinned at the high point; budgets never move.
    drv.requestOpPoint(soc.opPoints().high());
}

Thresholds
SysScaleGovernor::defaultThresholds()
{
    using soc::Counter;
    Thresholds thr;
    thr.counter[soc::counterIndex(Counter::GfxLlcMisses)] = 1.7e5;
    thr.counter[soc::counterIndex(Counter::LlcOccupancyTracer)] = 5.0;
    thr.counter[soc::counterIndex(Counter::LlcStalls)] = 4.5e5;
    thr.counter[soc::counterIndex(Counter::IoRpq)] = 6.0;
    thr.staticBw = 0.0; // derived from the low point at init
    return thr;
}

SysScaleGovernor::SysScaleGovernor(Thresholds thresholds,
                                   LinearImpactModel model,
                                   FlowOptions opts, bool redistribute)
    : PolicyBase("sysscale", opts, redistribute),
      thresholds_(thresholds), model_(model)
{
}

void
SysScaleGovernor::init(GovernorDriver &drv, soc::Soc &soc)
{
    (void)drv;
    if (thresholds_.staticBw <= 0.0) {
        // Condition 1 gate: static demand the low point can carry
        // while honoring isochronous QoS.
        const soc::OperatingPoint &low = soc.opPoints().low();
        const BytesPerSec low_capacity =
            soc.config().dramSpec.peakBandwidth(low.dramBin) *
            soc.mrc().optimizedSet(low.dramBin).interfaceEfficiency;
        thresholds_.staticBw = low_capacity * kStaticMargin;
    }
    predictor_ = DemandPredictor(thresholds_, model_);

    Thresholds up = thresholds_;
    for (double &t : up.counter)
        t *= kUpHysteresis;
    upPredictor_ = DemandPredictor(up, model_);
}

void
SysScaleGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                         const soc::CounterSnapshot &avg)
{
    const BytesPerSec static_demand =
        table_.staticDemand(soc.csr());

    // Counters read higher while running at the low point, so the
    // pair of adjacent points uses dedicated thresholds (Sec. 4.3).
    const bool at_high =
        soc.currentOpPoint() == soc.opPoints().high();
    const DemandPredictor &pred =
        at_high ? predictor_ : upPredictor_;
    lastCond_ = pred.conditions(avg, static_demand);

    // Sec. 4.3: any condition -> high point; none -> low point.
    const soc::OperatingPoint &target =
        lastCond_.any() ? soc.opPoints().high()
                        : soc.opPoints().low();
    drv.requestOpPoint(target);
}

MemScaleGovernor::MemScaleGovernor(bool redistribute)
    : PolicyBase(redistribute ? "memscale-r" : "memscale",
                 FlowOptions{/*scaleFabric=*/false,
                             /*scaleVsa=*/false,
                             /*scaleVio=*/false,
                             /*useOptimizedMrc=*/false,
                             /*sramMrc=*/false},
                 redistribute)
{
}

soc::OperatingPoint
MemScaleGovernor::memOnlyLowPoint(soc::Soc &soc) const
{
    // Memory-domain-only scaling: the DRAM bin and MC clock drop,
    // everything else keeps its boot value and the registers stay
    // trained for the boot bin (Fig. 4 penalties apply).
    soc::OperatingPoint op = soc.opPoints().low();
    const soc::OperatingPoint &high = soc.opPoints().high();
    op.name = "mem-only-low";
    op.fabricFreq = high.fabricFreq;
    op.vSa = high.vSa;
    op.vIo = high.vIo;
    op.mrcTrainedBin = high.dramBin;
    return op;
}

void
MemScaleGovernor::epochDecision(GovernorDriver &drv, soc::Soc &soc,
                                const soc::CounterSnapshot &avg,
                                double stall_thr, double occ_thr,
                                double max_low_rho)
{
    ++evalCount_;

    const bool at_high =
        soc.currentOpPoint().dramBin == soc.opPoints().high().dramBin;
    const double h = at_high ? 1.0 : kEpochHysteresis;

    // Epoch governors model queueing slack before committing to a
    // lower frequency: the projected utilization of the low point
    // must leave headroom, or loaded latency explodes.
    const double low_capacity =
        soc.config().dramSpec.peakBandwidth(
            soc.opPoints().low().dramBin) *
        0.90 * 0.89; // boot-trained registers at the low bin
    const double low_rho = soc.recentBandwidth() / low_capacity;

    const bool bound =
        avg[soc::Counter::LlcStalls] > stall_thr * h ||
        avg[soc::Counter::LlcOccupancyTracer] > occ_thr * h ||
        low_rho > max_low_rho * (at_high ? 1.0 : 1.15);

    if (bound) {
        if (!at_high) {
            // A low sojourn that reverts quickly means the epoch
            // model mispredicted; back off exponentially before
            // trying again (epoch governors thrash on phased
            // workloads otherwise).
            if (evalCount_ - lastWentLow_ <= 3) {
                backoffLen_ = std::min<std::uint64_t>(
                    64, backoffLen_ * 2);
                backoffUntil_ = evalCount_ + backoffLen_;
            } else {
                backoffLen_ = 2;
            }
        }
        drv.requestOpPoint(soc.opPoints().high());
        return;
    }

    if (at_high && evalCount_ < backoffUntil_) {
        drv.refreshBudget();
        return;
    }

    if (at_high)
        lastWentLow_ = evalCount_;
    drv.requestOpPoint(memOnlyLowPoint(soc));
}

void
MemScaleGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                         const soc::CounterSnapshot &avg)
{
    // Memory-side epoch model: conservative gates because MemScale
    // only observes the memory subsystem [Deng+, ASPLOS'11].
    epochDecision(drv, soc, avg, kMemStallThr, kMemOccThr,
                  kMemMaxLowRho);
}

CoScaleGovernor::CoScaleGovernor(bool redistribute)
    : MemScaleGovernor(redistribute)
{
    name_ = redistribute ? "coscale-r" : "coscale";
}

void
CoScaleGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                        const soc::CounterSnapshot &avg)
{
    // Joint CPU+memory epoch model: looser gates than MemScale
    // because the joint model also sees CPU slack — but still no IO
    // or graphics visibility and no static demand table.
    epochDecision(drv, soc, avg, kJointStallThr, kJointOccThr,
                  kJointMaxLowRho);

    // Joint CPU coordination: a heavily memory-bound workload gains
    // almost nothing from the top core clocks, so CoScale shaves
    // them within its performance bound and banks the energy. The
    // cap is deliberately gentle — CoScale guarantees bounded
    // slowdown [Deng+, MICRO'12].
    const double stalls = avg[soc::Counter::LlcStalls];
    const double boundness = std::min(1.0, stalls / kStallRef);
    if (boundness > 0.9) {
        const Hertz fmax = soc.cpu().pstates().max().freq;
        drv.setCoreFreqCap(fmax * kBoundCapShare);
    } else {
        drv.setCoreFreqCap(0.0);
    }
}

void
MemScaleGovernor::visitState(StateIO &io)
{
    io.field("eval_count", evalCount_);
    io.field("last_went_low", lastWentLow_);
    io.field("backoff_until", backoffUntil_);
    io.field("backoff_len", backoffLen_);
}

} // namespace core
} // namespace sysscale
