#include "compute/cpu.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace compute {

CpuCluster::CpuCluster(Simulator &sim, SimObject *parent,
                       std::size_t cores, std::size_t threads_per_core,
                       power::PStateTable pstates)
    : SimObject(sim, parent, "cpu"), cores_(cores),
      threadsPerCore_(threads_per_core), pstates_(std::move(pstates)),
      freq_(pstates_.min().freq), voltage_(pstates_.min().voltage),
      instructions_(this, "instructions", "instructions retired"),
      stallCycles_(this, "stall_cycles", "cycles stalled on misses"),
      pstateChanges_(this, "pstate_changes", "P-state transitions")
{
    if (cores == 0 || threads_per_core == 0)
        SYSSCALE_FATAL("CpuCluster: zero cores or threads");
    refreshLeakage();
}

void
CpuCluster::setPState(const power::PState &state)
{
    if (state.freq != freq_ || state.voltage != voltage_)
        ++pstateChanges_;
    freq_ = state.freq;
    if (state.voltage != voltage_) {
        voltage_ = state.voltage;
        refreshLeakage();
    }
}

double
CpuCluster::ipcAt(const CoreWork &work, double mem_latency_ns) const
{
    SYSSCALE_ASSERT(work.cpiBase > 0.0, "non-positive base CPI");
    SYSSCALE_ASSERT(mem_latency_ns >= 0.0, "negative memory latency");

    const double lat_cycles = mem_latency_ns * 1e-9 * freq_;
    const double mem_cpi =
        work.mpki / 1000.0 * work.blockingFactor * lat_cycles;
    return 1.0 / (work.cpiBase + mem_cpi);
}

BytesPerSec
CpuCluster::bandwidthDemand(const CoreWork &work,
                            double mem_latency_ns) const
{
    const double instr_rate = ipcAt(work, mem_latency_ns) * freq_;
    return instr_rate * work.bytesPerInstr;
}

CoreResult
CpuCluster::retire(const CoreWork &work, double mem_latency_ns,
                   double bw_grant_ratio, Tick interval)
{
    const CoreResult res =
        evaluateRetire(work, mem_latency_ns, bw_grant_ratio, interval);
    commitRetire(res);
    return res;
}

CoreResult
CpuCluster::evaluateRetire(const CoreWork &work, double mem_latency_ns,
                           double bw_grant_ratio, Tick interval) const
{
    SYSSCALE_ASSERT(interval > 0, "zero-length retire interval");
    SYSSCALE_ASSERT(bw_grant_ratio > 0.0 && bw_grant_ratio <= 1.0,
                    "bandwidth grant ratio %.3f out of (0,1]",
                    bw_grant_ratio);

    CoreResult res;
    const double secs = secondsFromTicks(interval);
    const double cycles = freq_ * secs;

    const double ipc_lat = ipcAt(work, mem_latency_ns);

    // Streaming codes retire no faster than their traffic is served:
    // the effective IPC is clamped by the bandwidth grant.
    double ipc = ipc_lat;
    if (work.bytesPerInstr > 0.0 && bw_grant_ratio < 1.0) {
        const double ipc_bw = ipc_lat * bw_grant_ratio;
        if (ipc_bw < ipc) {
            ipc = ipc_bw;
            res.bandwidthLimited = true;
        }
    }

    res.ipc = ipc;
    res.instructions = ipc * cycles;

    const double lat_cycles = mem_latency_ns * 1e-9 * freq_;
    res.stallCycles = res.instructions * work.mpki / 1000.0 *
                      work.blockingFactor * lat_cycles;
    return res;
}

Watt
CpuCluster::power(std::size_t active_threads, double activity) const
{
    SYSSCALE_ASSERT(active_threads <= numThreads(),
                    "%zu active threads exceed %zu", active_threads,
                    numThreads());

    // Active cores run the P-state's dynamic power scaled by thread
    // occupancy; an SMT sibling adds kSmtYield - 1 worth of activity.
    const std::size_t full_cores =
        std::min(cores_, active_threads);
    const double smt_extra =
        active_threads > cores_
            ? static_cast<double>(active_threads - cores_) *
                  (kSmtYield - 1.0)
            : 0.0;
    const double core_equivalents =
        static_cast<double>(full_cores) + smt_extra;

    const Watt per_core_dyn =
        power::dynamicPower(pstates_.cdyn(), voltage_, freq_,
                            activity);
    return per_core_dyn * core_equivalents + leakage();
}

void
CpuCluster::refreshLeakage()
{
    leakage_ = power::leakagePower(pstates_.leakK(), voltage_,
                                   pstates_.temperature()) *
               static_cast<double>(cores_);
}

void
CpuCluster::visitState(StateIO &io)
{
    // Direct restore, not setPState(): a restore must not count a
    // P-state transition that never happened.
    io.field("freq", freq_);
    io.field("voltage", voltage_);
    if (io.loading())
        refreshLeakage();
}

} // namespace compute
} // namespace sysscale
