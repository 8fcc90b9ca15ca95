#include "interconnect/fabric.hh"

#include <algorithm>
#include <cmath>

#include "power/power_model.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace interconnect {

IoFabric::IoFabric(Simulator &sim, SimObject *parent, Hertz freq,
                   Volt v_sa, std::size_t link_bytes)
    : SimObject(sim, parent, "fabric"), freq_(freq), vsa_(v_sa),
      linkBytes_(link_bytes),
      transferredBytes_(this, "transferred_bytes",
                        "total bytes across the fabric"),
      qosViolations_(this, "qos_violations",
                     "intervals with isochronous demand unmet"),
      drains_(this, "drains", "block-and-drain operations"),
      utilizationAvg_(this, "utilization",
                      "link utilization per interval")
{
    if (freq <= 0.0)
        SYSSCALE_FATAL("IoFabric: non-positive frequency %.0f", freq);
    if (v_sa <= 0.0)
        SYSSCALE_FATAL("IoFabric: non-positive V_SA %.3f", v_sa);
    if (link_bytes == 0)
        SYSSCALE_FATAL("IoFabric: zero link width");
    leakage_ = leakageAt(vsa_);
}

void
IoFabric::setFrequency(Hertz f)
{
    SYSSCALE_ASSERT(blocked_,
                    "retargeting fabric clock while traffic flows");
    SYSSCALE_ASSERT(f > 0.0, "non-positive fabric frequency %.0f", f);
    freq_ = f;
}

void
IoFabric::setVsa(Volt v)
{
    SYSSCALE_ASSERT(v > 0.0, "non-positive V_SA %.3f", v);
    vsa_ = v;
    leakage_ = leakageAt(vsa_);
}

BytesPerSec
IoFabric::capacity() const
{
    return static_cast<BytesPerSec>(linkBytes_) * freq_;
}

Tick
IoFabric::blockAndDrain()
{
    SYSSCALE_ASSERT(!blocked_, "nested fabric block-and-drain");
    blocked_ = true;
    ++drains_;

    const double outstanding =
        kMaxOutstandingBytes * std::min(1.0, lastUtilization_ + 0.05);
    return ticksFromSeconds(outstanding / capacity());
}

void
IoFabric::release()
{
    SYSSCALE_ASSERT(blocked_, "fabric release without block");
    blocked_ = false;
}

double
IoFabric::baseLatencyNs() const
{
    return kPipelineCycles / freq_ * 1e9;
}

FabricResult
IoFabric::service(const FabricDemand &demand, Tick interval)
{
    const FabricResult res = evaluate(demand);
    commit(res, interval);
    return res;
}

FabricResult
IoFabric::evaluate(const FabricDemand &demand) const
{
    SYSSCALE_ASSERT(!blocked_, "servicing a blocked fabric");

    const BytesPerSec cap = capacity();
    FabricResult res;

    res.achievedIso = std::min(demand.isochronous, cap);
    res.qosViolation = demand.isochronous > cap + 1e-3;

    const BytesPerSec remaining = cap - res.achievedIso;
    res.achievedBestEffort = std::min(demand.bestEffort, remaining);

    res.utilization =
        std::min(1.0, (res.achievedIso + res.achievedBestEffort) / cap);

    const double rho = std::min(kMaxRho, demand.total() / cap);
    const double service_ns =
        static_cast<double>(linkBytes_) / cap * 1e9;
    res.latencyNs = baseLatencyNs() +
                    rho / (2.0 * (1.0 - rho)) * service_ns *
                        kPipelineCycles;

    res.readPendingOccupancy =
        demand.bestEffort / 64.0 * (res.latencyNs * 1e-9);
    return res;
}

Watt
IoFabric::power(double utilization) const
{
    return dynamicAt(vsa_, freq_, utilization) + leakage_;
}

Watt
IoFabric::powerAt(Volt v_sa, Hertz freq, double utilization)
{
    return dynamicAt(v_sa, freq, utilization) + leakageAt(v_sa);
}

Watt
IoFabric::dynamicAt(Volt v_sa, Hertz freq, double utilization)
{
    SYSSCALE_ASSERT(utilization >= 0.0 && utilization <= 1.0,
                    "fabric utilization %.3f out of [0,1]",
                    utilization);
    const double activity = 0.20 + 0.80 * utilization;
    return power::dynamicPower(kCdynFarad, v_sa, freq, activity);
}

Watt
IoFabric::leakageAt(Volt v_sa)
{
    return power::leakagePower(kLeakK, v_sa, 50.0);
}

void
IoFabric::visitState(StateIO &io)
{
    // Direct restore: setFrequency() asserts a blocked fabric.
    io.field("freq", freq_);
    io.field("v_sa", vsa_);
    if (io.loading())
        leakage_ = leakageAt(vsa_);
    io.field("blocked", blocked_);
    io.field("last_utilization", lastUtilization_);
}

} // namespace interconnect
} // namespace sysscale
