#include "soc/op_point.hh"

#include <algorithm>

#include "dram/power.hh"
#include "interconnect/fabric.hh"
#include "mem/controller.hh"
#include "mem/ddrio.hh"
#include "sim/logging.hh"

namespace sysscale {
namespace soc {

OpPointTable::OpPointTable(const SocConfig &cfg)
{
    const power::VfCurve sa_curve = power::skylakeSaCurve();
    const power::VfCurve io_curve = power::skylakeIoCurve();
    const dram::DramSpec &spec = cfg.dramSpec;

    points_.reserve(spec.numBins());
    for (std::size_t bin = 0; bin < spec.numBins(); ++bin) {
        OperatingPoint op;
        op.dramBin = bin;
        op.mrcTrainedBin = bin;

        // The fabric clock scales with the bin so the shared V_SA
        // rail can drop to the slower domain's Vmin (Sec. 3). The
        // highest bin keeps the boot fabric clock; lower bins scale
        // it proportionally to the DRAM clock, floored at the
        // config's low fabric clock.
        const double clock_ratio =
            spec.bin(bin).busClock() / spec.bin(0).busClock();
        op.fabricFreq = std::max(cfg.fabricFreqLow,
                                 cfg.fabricFreqHigh * clock_ratio);

        // V_SA must satisfy both the fabric and the MC (which runs
        // at the bin's MC clock on the same rail).
        const Volt v_fabric = sa_curve.voltageAt(op.fabricFreq);
        const Volt v_mc = sa_curve.voltageAt(spec.bin(bin).mcClock());
        op.vSa = std::max(v_fabric, v_mc);

        op.vIo = io_curve.voltageAt(spec.bin(bin).busClock());

        op.name = bin == 0 ? "high"
                           : "low-" + std::to_string(static_cast<int>(
                                 spec.bin(bin).dataRateMTs));
        points_.push_back(op);
    }

    // The boot point uses the configured boot voltages (guard-banded
    // above the curve minimum).
    points_[0].vSa = std::max(points_[0].vSa, cfg.vSaBoot);
    points_[0].vIo = std::max(points_[0].vIo, cfg.vIoBoot);
}

const OperatingPoint &
OpPointTable::point(std::size_t i) const
{
    SYSSCALE_ASSERT(i < points_.size(),
                    "operating point %zu out of range", i);
    return points_[i];
}

const OperatingPoint &
OpPointTable::low() const
{
    return points_.size() > 1 ? points_[1] : points_[0];
}

Watt
ioMemBudgetDemand(const SocConfig &cfg, const OperatingPoint &op,
                  bool optimized_mrc)
{
    const dram::DramSpec &spec = cfg.dramSpec;
    const double util = cfg.budgetUtilization;
    const bool cross = !optimized_mrc && op.mrcTrainedBin != op.dramBin;
    const double term_factor =
        cross ? mem::MrcStore::kUnoptTerminationFactor : 1.0;
    const double act_factor =
        cross ? mem::MrcStore::kUnoptDdrioActivity : 1.0;

    const Watt mc = mem::MemoryController::powerAt(
        op.vSa, spec.bin(op.dramBin).mcClock(), util);
    const Watt fabric =
        interconnect::IoFabric::powerAt(op.vSa, op.fabricFreq, util);
    const Watt ddrio = mem::Ddrio::powerAt(
        op.vIo, spec.bin(op.dramBin).busClock(), util, act_factor);

    // DRAM operation energy is budgeted at a reference traffic
    // level: the same workload moves the same bytes per second at
    // either frequency (only capacity-clamped workloads differ), so
    // the budget delta between operating points must come from the
    // voltage/frequency-dependent components, not from phantom
    // traffic scaling.
    const dram::DramPowerModel dram_model(spec, cfg.vddq);
    const double interval_s = 1e-3;
    const double bytes =
        std::min(kBudgetTrafficBytesPerSec,
                 spec.peakBandwidth(op.dramBin) * util) * interval_s;
    const dram::DramPowerBreakdown dram_power =
        dram_model.activePower(op.dramBin, bytes * 0.7, bytes * 0.3,
                               interval_s, term_factor);

    return mc + fabric + ddrio + dram_power.total();
}

} // namespace soc
} // namespace sysscale
