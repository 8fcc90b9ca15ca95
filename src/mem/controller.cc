#include "mem/controller.hh"

#include <algorithm>
#include <cmath>

#include "power/power_model.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace mem {

MemoryController::MemoryController(Simulator &sim, SimObject *parent,
                                   dram::DramDevice &device,
                                   const MrcStore &mrc, Volt v_sa)
    : SimObject(sim, parent, "mc"), device_(device),
      ddrio_(device.spec(), /*v_io=*/1.0), vsa_(v_sa),
      servicedBytes_(this, "serviced_bytes", "total bytes serviced"),
      qosViolations_(this, "qos_violations",
                     "intervals with isochronous demand unmet"),
      drains_(this, "drains", "block-and-drain operations"),
      utilizationAvg_(this, "utilization",
                      "interface utilization per interval"),
      latencyAvg_(this, "loaded_latency_ns",
                  "average loaded CPU read latency")
{
    regs_ = mrc.optimizedSet(dram::DramSpec::kDefaultBin);
    refreshDerived();
    if (v_sa <= 0.0)
        SYSSCALE_FATAL("MemoryController: non-positive V_SA %.3f",
                       v_sa);
    leakage_ = leakageAt(vsa_);
}

void
MemoryController::programRegisters(const MrcRegisterSet &regs)
{
    SYSSCALE_ASSERT(blocked_,
                    "programming MC registers while traffic flows");
    SYSSCALE_ASSERT(device_.mode() == dram::DramMode::SelfRefresh,
                    "programming DRAM registers outside self-refresh");
    regs_ = regs;
    refreshDerived();
    ddrio_.setBin(regs.appliedBin);
}

void
MemoryController::refreshDerived()
{
    const dram::DramSpec &spec = device_.spec();
    clockHz_ = spec.bin(regs_.appliedBin).mcClock();
    peakBandwidth_ = spec.peakBandwidth(regs_.appliedBin);
    capacity_ = peakBandwidth_ * regs_.interfaceEfficiency;
    const double mc_ns = kPipelineCycles / clockHz_ * 1e9;
    baseLatencyNs_ = kFixedPathNs + mc_ns +
                     regs_.timings.randomAccessNs() +
                     regs_.latencyAdderNs;
    lineServiceNs_ = 64.0 / capacity_ * 1e9;
}

void
MemoryController::setVsa(Volt v)
{
    SYSSCALE_ASSERT(v > 0.0, "non-positive V_SA %.3f", v);
    vsa_ = v;
    leakage_ = leakageAt(vsa_);
}

Tick
MemoryController::blockAndDrain()
{
    SYSSCALE_ASSERT(!blocked_, "nested block-and-drain");
    blocked_ = true;
    ++drains_;

    // Outstanding bytes are bounded by the queue capacity; draining
    // them takes at most queue-bytes / capacity. With 16KB of queue
    // and >= 8.5GB/s of low-bin capacity this stays under 2us and is
    // typically a few hundred ns (the paper bounds it below 1us).
    const double outstanding =
        kMaxOutstandingBytes * std::min(1.0, lastUtilization_ + 0.05);
    const double seconds = outstanding / capacity();
    return ticksFromSeconds(seconds);
}

void
MemoryController::release()
{
    SYSSCALE_ASSERT(blocked_, "release without block");
    blocked_ = false;
}

double
MemoryController::loadedLatencyAt(double utilization) const
{
    const double rho = std::clamp(utilization, 0.0, kMaxRho);

    // Congestion delay with an M/D/1-flavoured knee: negligible at
    // low utilization (prefetchers and bank parallelism hide it),
    // exploding toward the capacity ceiling. S is the service time
    // of one cache line at the trained interface rate.
    const double wait_ns =
        rho * rho * rho / (1.0 - rho) * lineServiceNs_ * kQueueScale;
    return baseLatencyNs_ + wait_ns;
}

// Flattened so the standalone call keeps one body: evaluate() is
// too large for the inliner to copy on its own.
[[gnu::flatten]] MemServiceResult
MemoryController::service(const MemDemand &demand, Tick interval)
{
    const MemServiceCommit c = evaluate(demand, interval);
    commit(c);
    return c.result;
}

MemServiceCommit
MemoryController::evaluate(const MemDemand &demand, Tick interval) const
{
    SYSSCALE_ASSERT(!blocked_, "servicing a blocked controller");
    SYSSCALE_ASSERT(interval > 0, "zero-length service interval");
    SYSSCALE_ASSERT(device_.mode() == dram::DramMode::Active,
                    "servicing DRAM in self-refresh");

    const BytesPerSec cap = capacity_;
    MemServiceCommit c;
    MemServiceResult &res = c.result;

    // Isochronous traffic is guaranteed first: the display engine
    // cannot be stalled (Sec. 1, QoS). A violation means the static
    // demand table put the SoC in too low an operating point.
    res.achievedIso = std::min(demand.ioIso, cap);
    res.qosViolation = demand.ioIso > cap + 1e-3;

    // Remaining capacity is shared in proportion to demand.
    const BytesPerSec remaining = cap - res.achievedIso;
    const BytesPerSec rest_demand = demand.cpuRead + demand.cpuWrite +
                                    demand.gfx + demand.ioBestEffort;
    const double grant =
        rest_demand <= remaining || rest_demand <= 0.0
            ? 1.0
            : remaining / rest_demand;

    res.achievedCpuRead = demand.cpuRead * grant;
    res.achievedCpuWrite = demand.cpuWrite * grant;
    res.achievedGfx = demand.gfx * grant;
    res.achievedBestEffort = demand.ioBestEffort * grant;

    res.utilization =
        std::min(1.0, res.achievedTotal() / peakBandwidth_);

    const double queue_rho =
        std::min(kMaxRho, (res.achievedIso + rest_demand) / cap);
    res.loadedLatencyNs = loadedLatencyAt(queue_rho);

    // Little's law on the CPU read stream.
    res.readPendingOccupancy = demand.cpuRead / 64.0 *
                               (res.loadedLatencyNs * 1e-9);

    // DRAM traffic and power for the interval.
    const double secs = secondsFromTicks(interval);
    c.readBytes =
        (res.achievedCpuRead + res.achievedGfx * 0.7 +
         res.achievedIso * 0.8 + res.achievedBestEffort * 0.5) * secs;
    c.writeBytes =
        (res.achievedCpuWrite + res.achievedGfx * 0.3 +
         res.achievedIso * 0.2 + res.achievedBestEffort * 0.5) * secs;
    c.dramPower = device_
                      .activePower(c.readBytes, c.writeBytes, interval,
                                   regs_.terminationFactor)
                      .total();
    c.interval = interval;
    return c;
}

Watt
MemoryController::idleSelfRefresh(Tick interval)
{
    SYSSCALE_ASSERT(interval > 0, "zero-length idle interval");
    lastUtilization_ = 0.0;
    lastDramPower_ = device_.selfRefreshPower();
    return lastDramPower_;
}

Watt
MemoryController::controllerPower(double utilization) const
{
    return dynamicAt(vsa_, clock(), utilization) + leakage_;
}

Watt
MemoryController::powerAt(Volt v_sa, Hertz clock, double utilization)
{
    return dynamicAt(v_sa, clock, utilization) + leakageAt(v_sa);
}

Watt
MemoryController::dynamicAt(Volt v_sa, Hertz clock, double utilization)
{
    SYSSCALE_ASSERT(utilization >= 0.0 && utilization <= 1.0,
                    "MC utilization %.3f out of [0,1]", utilization);
    const double activity = 0.25 + 0.75 * utilization;
    return power::dynamicPower(kCdynFarad, v_sa, clock, activity);
}

Watt
MemoryController::leakageAt(Volt v_sa)
{
    return power::leakagePower(kLeakK, v_sa, 50.0);
}

Watt
MemoryController::ddrioDigitalPower(double utilization) const
{
    return ddrio_.digitalPower(utilization, regs_.ddrioActivityFactor);
}

void
MemoryController::visitState(StateIO &io)
{
    // Not programRegisters(): that asserts a blocked controller and
    // self-refreshed DRAM; a restore reproduces state directly.
    io.push("regs");
    io.field("trained_bin", regs_.trainedBin);
    io.field("applied_bin", regs_.appliedBin);
    io.field("t_ck_ns", regs_.timings.tCKNs);
    io.field("t_cl_ns", regs_.timings.tCLNs);
    io.field("t_rcd_ns", regs_.timings.tRCDNs);
    io.field("t_rp_ns", regs_.timings.tRPNs);
    io.field("t_ras_ns", regs_.timings.tRASNs);
    io.field("t_wr_ns", regs_.timings.tWRNs);
    io.field("t_rfc_ns", regs_.timings.tRFCNs);
    io.field("t_refi_ns", regs_.timings.tREFINs);
    io.field("t_xsr_ns", regs_.timings.tXSRNs);
    io.field("t_faw_ns", regs_.timings.tFAWNs);
    io.field("interface_efficiency", regs_.interfaceEfficiency);
    io.field("latency_adder_ns", regs_.latencyAdderNs);
    io.field("termination_factor", regs_.terminationFactor);
    io.field("ddrio_activity_factor", regs_.ddrioActivityFactor);
    io.pop();
    if (io.loading()) {
        if (regs_.appliedBin >= device_.spec().numBins())
            throw SnapshotError("mc: applied bin out of range");
        refreshDerived();
    }
    io.field("v_sa", vsa_);
    if (io.loading())
        leakage_ = leakageAt(vsa_);
    io.field("blocked", blocked_);
    io.field("last_utilization", lastUtilization_);
    io.field("last_dram_power", lastDramPower_);
    std::size_t ddrio_bin = ddrio_.binIndex();
    io.field("ddrio_bin", ddrio_bin);
    Volt ddrio_vio = ddrio_.vio();
    io.field("ddrio_vio", ddrio_vio);
    if (io.loading()) {
        ddrio_.setBin(ddrio_bin);
        ddrio_.setVio(ddrio_vio);
    }
}

} // namespace mem
} // namespace sysscale
