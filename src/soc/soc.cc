#include "soc/soc.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace soc {

namespace {

/** LLC capacity the workload profiles were characterized at. */
constexpr std::size_t kProfileLlcBytes = 4ull * 1024 * 1024;

/** Skip-ahead default override: -1 = follow the environment. */
std::atomic<int> g_skip_ahead_override{-1};

} // namespace

bool
Soc::skipAheadDefault()
{
    const int o = g_skip_ahead_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    // lint:allow nondeterminism -- opt-out knob only; the replay path
    // it gates is byte-identical to the slow path by construction
    static const bool env_on =
        std::getenv("SYSSCALE_NO_SKIP_AHEAD") == nullptr;
    return env_on;
}

void
Soc::setSkipAheadDefault(bool on)
{
    g_skip_ahead_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

Soc::Soc(Simulator &sim, SocConfig cfg)
    : SimObject(sim, nullptr, "soc"), cfg_(std::move(cfg)),
      mrc_(cfg_.dramSpec), opPoints_(cfg_),
      meter_(), pbm_(cfg_.tdp, cfg_.pbmReserve),
      vsaReg_(power::Rail::VSA, cfg_.vSaBoot, cfg_.vrSlewRate),
      vioReg_(power::Rail::VIO, cfg_.vIoBoot, cfg_.vrSlewRate),
      hdc_(cfg_.tdp),
      stepEvent_("soc.step", [this] { step(); }),
      transitions_(this, "transitions", "operating-point transitions"),
      qosViolations_(this, "qos_violations",
                     "steps with isochronous demand unmet"),
      stallTicks_(this, "stall_ticks",
                  "memory-blocked time charged by DVFS flows"),
      steps_(this, "steps", "model steps executed"),
      replayedSteps_(this, "replayed_steps",
                     "steps served by the skip-ahead replay path"),
      dramBinRes_(this, "dram_bin",
                  "time-weighted DRAM frequency bin index"),
      fabricMhzRes_(this, "fabric_mhz",
                    "time-weighted IO fabric clock (MHz)"),
      vSaRes_(this, "vsa_v", "time-weighted V_SA rail voltage"),
      vIoRes_(this, "vio_v", "time-weighted V_IO rail voltage")
{
    cfg_.validate();
    skipAhead_ = skipAheadDefault();

    dram_ = std::make_unique<dram::DramDevice>(sim, this,
                                               cfg_.dramSpec,
                                               cfg_.vddq);
    mc_ = std::make_unique<mem::MemoryController>(sim, this, *dram_,
                                                  mrc_, cfg_.vSaBoot);
    mc_->ddrio().setVio(cfg_.vIoBoot);
    fabric_ = std::make_unique<interconnect::IoFabric>(
        sim, this, cfg_.fabricFreqHigh, cfg_.vSaBoot);
    display_ = std::make_unique<io::DisplayEngine>(sim, this, csr_);
    isp_ = std::make_unique<io::IspEngine>(sim, this, csr_);
    dma_ = std::make_unique<io::DmaDevice>(sim, this, "dma");

    power::PStateTable core_table(power::skylakeCoreCurve(),
                                  cfg_.coreCdyn, cfg_.coreLeakK,
                                  cfg_.temperature, cfg_.pstateSteps);
    cpu_ = std::make_unique<compute::CpuCluster>(
        sim, this, cfg_.cores, cfg_.threadsPerCore,
        std::move(core_table));
    record_.threads.resize(cpu_->numThreads());

    power::PStateTable gfx_table(power::skylakeGfxCurve(),
                                 cfg_.gfxCdyn, cfg_.gfxLeakK,
                                 cfg_.temperature, cfg_.pstateSteps);
    gfx_ = std::make_unique<compute::GfxEngine>(sim, this,
                                                std::move(gfx_table));

    llc_ = std::make_unique<compute::Llc>(sim, this, cfg_.llcBytes);
    missScale_ = llc_->missScale(kProfileLlcBytes);
    counters_ = std::make_unique<PerfCounterBlock>(sim, this);
    pmu_ = std::make_unique<Pmu>(sim, *this, *counters_,
                                 cfg_.sampleInterval,
                                 cfg_.evaluationInterval);

    currentOp_ = opPoints_.high();
    computeBudget_ = pbm_.computeBudget(ioMemBudget(currentOp_), 0.0);
    meter_.reset(0);

    noteOpPoint(currentOp_, now());
}

void
Soc::noteOpPoint(const OperatingPoint &op, Tick t)
{
    dramBinRes_.set(static_cast<double>(op.dramBin), t);
    fabricMhzRes_.set(op.fabricFreq / kMHz, t);
    vSaRes_.set(op.vSa, t);
    vIoRes_.set(op.vIo, t);

    obs::TraceSink *sink = traceSink();
    if (TRACE_ACTIVE(sink)) {
        sink->counter(obs::kCatOpPoint, "dram_bin", t,
                      static_cast<double>(op.dramBin));
        sink->counter(obs::kCatOpPoint, "fabric_mhz", t,
                      op.fabricFreq / kMHz);
        sink->counter(obs::kCatOpPoint, "vsa_v", t, op.vSa);
        sink->counter(obs::kCatOpPoint, "vio_v", t, op.vIo);
    }
}

void
Soc::finalizeStats(Tick t)
{
    dramBinRes_.finish(t);
    fabricMhzRes_.finish(t);
    vSaRes_.finish(t);
    vIoRes_.finish(t);
}

Soc::~Soc()
{
    if (stepEvent_.scheduled())
        eventq().deschedule(&stepEvent_);
}

void
Soc::startup()
{
    eventq().schedule(&stepEvent_, now() + cfg_.stepInterval);
}

BytesPerSec
Soc::isoBandwidthDemand() const
{
    return display_->bandwidthDemand() + isp_->bandwidthDemand();
}

Watt
Soc::ioMemBudget(const OperatingPoint &op) const
{
    return ioMemBudgetDemand(cfg_, op);
}

void
Soc::setComputeBudget(Watt budget)
{
    SYSSCALE_ASSERT(budget >= 0.0, "negative compute budget");
    computeBudget_ = budget;
}

void
Soc::setTdp(Watt tdp)
{
    SYSSCALE_ASSERT(tdp > 0.0, "non-positive TDP");
    cfg_.tdp = tdp;
    pbm_.setTdp(tdp);
    hdc_ = compute::HardwareDutyCycle(tdp);
    // Re-derive the compute grant from the new envelope so the step
    // loop honors it immediately; a governor will refine it at its
    // next evaluation.
    computeBudget_ = pbm_.computeBudget(ioMemBudget(currentOp_), 0.0);

    TRACE_INSTANT(traceSink(), obs::kCatPower, "tdp_rebalance", now(),
                  obs::kv("tdp_w", tdp) + "," +
                      obs::kv("compute_budget_w", computeBudget_));
    TRACE_COUNTER(traceSink(), obs::kCatPower, "tdp_w", now(), tdp);
    debugLog("soc: tdp -> %.2f W (compute budget %.2f W)", tdp,
             computeBudget_);
}

void
Soc::noteTransition(const OperatingPoint &target, Tick flow_latency)
{
    currentOp_ = target;
    ++transitions_;
    pendingStall_ += flow_latency;
    stallTicks_ += static_cast<double>(flow_latency);
    noteOpPoint(target, now());
}

void
Soc::applyComputePStates(const IntervalDemand &demand,
                         std::size_t active_threads,
                         double avg_activity)
{
    const power::ComputeSplit split =
        pbm_.split(computeBudget_, gfxActive_);

    // Idle unit floors are charged from the budget before granting.
    const std::size_t active_cores = std::max<std::size_t>(
        1, (active_threads + cfg_.threadsPerCore - 1) /
               cfg_.threadsPerCore);

    Hertz core_req = demand.coreFreqRequest > 0.0
                         ? demand.coreFreqRequest
                         : cpu_->pstates().max().freq;
    if (coreFreqCap_ > 0.0)
        core_req = std::min(core_req, coreFreqCap_);

    const Watt core_budget = throttle_ *
        (gfxActive_ ? split.coreBudget : computeBudget_) /
        static_cast<double>(active_cores);
    cpu_->setPState(pbm_.grant(cpu_->pstates(), core_req, core_budget,
                               avg_activity));

    if (gfxActive_) {
        const Hertz gfx_req = demand.gfxFreqRequest > 0.0
                                  ? demand.gfxFreqRequest
                                  : gfx_->pstates().max().freq;
        gfx_->setPState(pbm_.grant(gfx_->pstates(), gfx_req,
                                   split.gfxBudget * throttle_,
                                   demand.gfxWork.activity));
    } else {
        gfx_->setPState(gfx_->pstates().min());
    }
}

bool
Soc::planValidAt(Tick t) const
{
    const StepPlan &p = plan_;
    if (!p.valid || t >= p.demandValidUntil)
        return false;
    if (pendingStall_ != 0 || workload_ != p.workload)
        return false;
    // Exact (bitwise) comparisons throughout: the replay path only
    // engages when its inputs are *identical*, never merely close.
    if (transitions_.value() != p.transitionsSeen ||
        throttle_ != p.throttle ||
        computeBudget_ != p.computeBudget ||
        coreFreqCap_ != p.coreFreqCap ||
        hdc_.dutyFactor() != p.dutyFactor ||
        cfg_.tdp != p.tdp ||
        lastMemLatencyNs_ != p.latencyInNs ||
        cpu_->frequency() != p.cpuFreq ||
        gfx_->frequency() != p.gfxFreq) {
        return false;
    }
    return isoBandwidthDemand() == p.iso &&
           display_->power() + isp_->power() == p.ioEnginePower;
}

void
Soc::replaySteps(Tick interval)
{
    const Tick batch_start = now();
    std::uint64_t batch_steps = 1;

    // Serve the step event that just fired from the cached plan. A
    // restore leaves the commit record stale; the first replay after
    // it re-derives the record from the restored plan.
    if (record_.stale)
        commitStep<CommitMode::Derive>(interval, 0, 0.0);
    applyCommit(batch_start, interval);
    pmu_->afterStep(batch_start);

    // Idle skip-ahead: batch further grid steps while nothing can
    // observe the difference — no event pending at or before the
    // next virtual step, the workload's demand horizon not reached,
    // the enclosing runUntil() window not overrun, and the replayed
    // tail itself not drifting (the reactive throttle walk). A
    // replay never moves the memory latency: the capture that did
    // would have failed the fingerprint. Each virtual step applies
    // the identical mutation sequence at the identical tick, counter
    // sample included; the kernel just never round-trips an event
    // per step. Nothing in the commit half or the sample reads now()
    // or schedules events, so the clock moves once, to the batch's
    // last step, and the pending horizon is stable across the batch.
    Tick t = batch_start;
    const Tick horizon = eventq().nextPendingTick();
    const Tick limit = eventq().runLimit();
    while (true) {
        const Tick next = t + interval;
        if (next >= horizon || next > limit ||
            next >= plan_.demandValidUntil ||
            throttle_ != plan_.throttle) {
            break;
        }
        t = next;
        ++batch_steps;
        applyCommit(t, interval);
        pmu_->afterStep(t);
    }
    eventq().advanceNow(t);
    // Integer-valued doubles far below 2^53: one add of the batch
    // length is exact.
    const double n = static_cast<double>(batch_steps);
    steps_ += n;
    replayedSteps_ += n;
    eventq().schedule(&stepEvent_, t + interval);

    // One span per batch: the only trace category that differs
    // between skip-ahead on and off (filter "replay" lines to compare
    // the two byte-for-byte; see docs/OBSERVABILITY.md).
    TRACE_SPAN(traceSink(), obs::kCatReplay, "replay_batch",
               batch_start, t, obs::kv("steps", batch_steps));
}

void
Soc::step()
{
    const Tick interval = cfg_.stepInterval;

    if (skipAhead_) {
        if (planValidAt(now())) {
            planMissStreak_ = 0;
            planSkipCountdown_ = 0;
            planJustCaptured_ = false;
            replaySteps(interval);
            return;
        }
        // A capture that produced no replay before the next slow step
        // means the step dynamics are live (a latency limit cycle, a
        // stall-consuming memory phase, a governor retuning every
        // sample): back off capturing exponentially so non-replaying
        // workloads stop paying the fingerprint-and-horizon cost on
        // every step. Keyed on the capture itself, not on plan_.valid
        // — a capture voided by consumed stall must back off too. Any
        // successful replay resets the backoff.
        if (planJustCaptured_) {
            planJustCaptured_ = false;
            plan_.valid = false;
            if (planMissStreak_ < kPlanBackoffMax)
                ++planMissStreak_;
            planSkipCountdown_ = (1u << planMissStreak_) - 1;
        }
    }

    ++steps_;

    // The demand scratch persists across steps so the per-thread
    // work vector keeps its capacity: step() is the hot path under
    // every grid and must not allocate.
    IntervalDemand &demand = demandScratch_;
    demand.clear();
    if (workload_ && !workload_->finished(now()))
        workload_->demandAt(now(), demand);

    // How long the demand just presented is guaranteed to hold —
    // the replay plan captured below is dead beyond this tick. Both
    // the horizon query and the capture are skipped entirely while
    // the backoff is draining.
    const bool capture_plan = skipAhead_ && planSkipCountdown_ == 0;
    if (planSkipCountdown_ > 0)
        --planSkipCountdown_;
    Tick demand_horizon = kMaxTick;
    if (capture_plan && workload_)
        demand_horizon = workload_->demandHorizon(now());

    const compute::CStateResidency &res = demand.residency;
    const double dram_frac = res.dramActiveFraction();

    // Transition stall: memory-blocked wall time inside this step,
    // capped at kMaxStallFraction of it. The unconsumed remainder of
    // a flow longer than the cap carries into subsequent steps, so
    // the total stall charged always equals the total flow latency.
    const Tick stall_cap = static_cast<Tick>(
        kMaxStallFraction * static_cast<double>(interval));
    const Tick stall_consumed = std::min(pendingStall_, stall_cap);
    const double stall_frac = static_cast<double>(stall_consumed) /
                              static_cast<double>(interval);
    pendingStall_ -= stall_consumed;

    const double exec_frac =
        res.activeFraction() * hdc_.dutyFactor() * (1.0 - stall_frac);

    std::size_t active_threads = 0;
    double act_sum = 0.0;
    for (const auto &w : demand.threadWork) {
        if (w.cpiBase > 0.0) {
            ++active_threads;
            act_sum += w.activity;
        }
    }
    const double avg_activity =
        active_threads ? act_sum / static_cast<double>(active_threads)
                       : kIdleActivity;

    gfxActive_ = !demand.gfxWork.idle() && exec_frac > 0.0;
    applyComputePStates(demand, active_threads, avg_activity);

    const BytesPerSec iso = isoBandwidthDemand();

    // Rates below are normalized to the DRAM-active window; CPU and
    // graphics only execute during the C0 share of it.
    const double cpu_share =
        dram_frac > 1e-9 ? exec_frac / dram_frac : 0.0;

    mem::MemDemand md;
    double latency = lastMemLatencyNs_;
    double gfx_demand_c0 = 0.0;

    // Demand and loaded latency feed back on each other (longer
    // latency caps per-thread bandwidth, which lowers queue
    // utilization, which shortens latency), so iterate to a
    // fixpoint: each pass recomputes demand from the current
    // latency estimate and stops as soon as the estimate moves by
    // no more than kMemLatencyTolNs. Steps whose latency is already
    // stable (idle intervals, steady phases — the common case) exit
    // after one pass; kMemLatencyMaxPasses bounds the rest.
    for (int pass = 0; pass < kMemLatencyMaxPasses; ++pass) {
        double cpu_bw = 0.0;
        for (const auto &w : demand.threadWork) {
            if (w.cpiBase <= 0.0)
                continue;
            compute::CoreWork scaled = w;
            scaled.mpki *= missScale_;
            cpu_bw += cpu_->bandwidthDemand(scaled, latency);
        }
        gfx_demand_c0 = gfx_->bandwidthDemand(demand.gfxWork);

        md.cpuRead = cpu_bw * cpu_share * kCpuReadShare;
        md.cpuWrite = cpu_bw * cpu_share * (1.0 - kCpuReadShare);
        md.gfx = gfx_demand_c0 * cpu_share;
        md.ioIso = iso;
        md.ioBestEffort = demand.ioBestEffort * cpu_share;

        const double rho =
            std::min(0.96, md.total() / mc_->capacity());
        const double prev = latency;
        latency = mc_->loadedLatencyAt(rho);
        if (std::abs(latency - prev) <= kMemLatencyTolNs)
            break;
    }

    // The commit half always reads this step's compute-phase outputs
    // through the plan, replayed or not.
    plan_.dramFrac = dram_frac;
    plan_.execFrac = exec_frac;
    plan_.md = md;
    plan_.gfxDemandC0 = gfx_demand_c0;
    plan_.missScale = missScale_;

    // Capture the replay fingerprint before the commit half mutates
    // any of the fingerprinted state. A step that consumed transition
    // stall baked stall_frac into exec_frac and must not be replayed;
    // the fingerprint's pendingStall check handles consistency, the
    // valid flag handles this capture.
    if (capture_plan) {
        planJustCaptured_ = true;
        plan_.valid = stall_consumed == 0;
        plan_.demandValidUntil = demand_horizon;
        plan_.workload = workload_;
        plan_.transitionsSeen = transitions_.value();
        plan_.throttle = throttle_;
        plan_.computeBudget = computeBudget_;
        plan_.coreFreqCap = coreFreqCap_;
        plan_.dutyFactor = hdc_.dutyFactor();
        plan_.tdp = cfg_.tdp;
        plan_.latencyInNs = lastMemLatencyNs_;
        plan_.cpuFreq = cpu_->frequency();
        plan_.gfxFreq = gfx_->frequency();
        plan_.iso = iso;
        plan_.ioEnginePower = display_->power() + isp_->power();
    }

    // Record the commit half only when a replay can use it: this
    // step captured a valid plan.
    if (capture_plan && plan_.valid)
        commitStep<CommitMode::Capture>(interval, active_threads,
                                        avg_activity);
    else
        commitStep<CommitMode::Apply>(interval, active_threads,
                                      avg_activity);
    pmu_->afterStep(now());
    eventq().schedule(&stepEvent_, now() + interval);
}

inline void
Soc::traceRailPower(Tick t, Watt step_power)
{
    // Change-filtered in the sink, so a steady phase emits one sample
    // per level shift — and replayed steps (identical watts by
    // construction) emit nothing, keeping traces byte-identical
    // across skip-ahead on/off.
    obs::TraceSink *sink = traceSink();
    if (!TRACE_ACTIVE(sink))
        return;
    const StepPlan &p = plan_;
    sink->counter(obs::kCatPower, "vcore_w", t,
                  p.railWatts[power::railIndex(power::Rail::VCore)]);
    sink->counter(obs::kCatPower, "vgfx_w", t,
                  p.railWatts[power::railIndex(power::Rail::VGfx)]);
    sink->counter(obs::kCatPower, "vsa_w", t,
                  p.railWatts[power::railIndex(power::Rail::VSA)]);
    sink->counter(obs::kCatPower, "vio_w", t,
                  p.railWatts[power::railIndex(power::Rail::VIO)]);
    sink->counter(obs::kCatPower, "vddq_w", t,
                  p.railWatts[power::railIndex(power::Rail::VDDQ)]);
    sink->counter(obs::kCatPower, "soc_w", t, step_power);
}

template <Soc::CommitMode kMode>
inline void
Soc::commitStep(Tick interval, std::size_t active_threads,
                double avg_activity)
{
    constexpr bool kApply = kMode != CommitMode::Derive;
    constexpr bool kRecord = kMode != CommitMode::Apply;

    const StepPlan &p = plan_;
    const IntervalDemand &demand = demandScratch_;
    CommitRecord &rec = record_;
    const double dram_frac = p.dramFrac;
    const bool mem_active = dram_frac > 1e-9;

    // IO traffic crosses the fabric; CPU/GFX reach the MC via LLC.
    // The MC serves only the DRAM-active share of the step.
    interconnect::FabricResult fr;
    mem::MemServiceCommit mc;
    const mem::MemServiceResult &ms = mc.result;
    Watt vddq_power = dram_->selfRefreshPower();
    if (mem_active) {
        fr = fabric_->evaluate(
            interconnect::FabricDemand{p.md.ioIso, p.md.ioBestEffort});
        const Tick active_ticks = static_cast<Tick>(
            static_cast<double>(interval) * dram_frac);
        mc = mc_->evaluate(p.md, std::max<Tick>(1, active_ticks));
        vddq_power = mc.dramPower * dram_frac +
                     dram_->selfRefreshPower() * (1.0 - dram_frac);
        if constexpr (kApply) {
            fabric_->commit(fr, interval);
            mc_->commit(mc);
            // Bitwise latency stabilization: hold the previous
            // estimate while the fresh one sits inside the fixpoint
            // tolerance. The step's fixpoint already treats such a
            // move as converged; snapping here keeps steady phases at
            // one exact value instead of limit-cycling in the last
            // float bits, which is what lets the replay fingerprint
            // (and therefore skip-ahead) engage on active-but-steady
            // workloads.
            if (std::abs(ms.loadedLatencyNs - lastMemLatencyNs_) >
                kMemLatencyTolNs) {
                lastMemLatencyNs_ = ms.loadedLatencyNs;
            }
        }
    }

    // Retire compute progress.
    double stall_cycles = 0.0;
    std::size_t retired = 0;
    bool rendered = false;
    const Tick exec_ticks = static_cast<Tick>(
        static_cast<double>(interval) * p.execFrac);
    if (exec_ticks > 0) {
        const double cpu_grant =
            p.md.cpuRead > 1e-9
                ? std::clamp(ms.achievedCpuRead / p.md.cpuRead, 1e-3,
                             1.0)
                : 1.0;
        for (const auto &w : demand.threadWork) {
            if (w.cpiBase <= 0.0)
                continue;
            compute::CoreWork scaled = w;
            scaled.mpki *= p.missScale;
            const compute::CoreResult r = cpu_->evaluateRetire(
                scaled, lastMemLatencyNs_, cpu_grant, exec_ticks);
            if constexpr (kApply)
                cpu_->commitRetire(r);
            if constexpr (kRecord) {
                SYSSCALE_ASSERT(retired < rec.threads.size(),
                                "more active threads than the cluster");
                rec.threads[retired] = r;
            }
            ++retired;
            stall_cycles += r.stallCycles;
        }

        // step() sets gfxActive_ only for non-idle work.
        if (gfxActive_) {
            const double gfx_grant =
                p.md.gfx > 1e-9
                    ? std::clamp(ms.achievedGfx / p.md.gfx, 1e-3, 1.0)
                    : 1.0;
            const compute::GfxResult g = gfx_->evaluateRender(
                demand.gfxWork, p.gfxDemandC0 * gfx_grant, exec_ticks);
            if constexpr (kApply)
                gfx_->commitRender(g);
            if constexpr (kRecord)
                rec.gfx = g;
            rendered = true;
        }
    }

    // The Soc's own bookkeeping: counter observables (raw per-step
    // quantities), EWMA terms, and run-accumulator addends.
    StepAccounting local;
    StepAccounting &a = kRecord ? rec.accounting : local;
    const double secs = secondsFromTicks(interval);
    a.qosViolation = ms.qosViolation || fr.qosViolation;
    a.cpuMisses = ms.achievedCpuRead * dram_frac * secs / 64.0;
    a.gfxMisses = ms.achievedGfx * dram_frac * secs / 64.0;
    a.stallCycles = stall_cycles;
    a.cpuOccupancy = ms.readPendingOccupancy * dram_frac;
    a.ioRpq = fr.readPendingOccupancy * dram_frac;
    a.bwEwmaTerm = 0.02 * ms.achievedTotal() * dram_frac;
    a.secs = secs;
    a.memLatIntegral = lastMemLatencyNs_ * secs * dram_frac;
    a.memActiveSeconds = secs * dram_frac;
    a.bwIntegral = ms.achievedTotal() * dram_frac * secs;
    a.coreFreqIntegral = cpu_->frequency() * secs;
    a.lowPoint = !(currentOp_ == opPoints_.high());

    // Rail power: integratePower() refreshes plan_.railWatts and
    // plan_.stepPower, which a Derive pass takes as restored.
    if constexpr (kApply) {
        integratePower(demand, active_threads, avg_activity,
                       ms.utilization, fr.utilization, vddq_power,
                       interval);
        traceRailPower(now(), p.stepPower);
    }
    a.powerEwmaTermW = 0.02 * (p.stepPower - cfg_.platformFloor);
    if constexpr (kApply)
        applyAccounting(a, interval);

    if constexpr (kRecord) {
        rec.memActive = mem_active;
        rec.fabric = fr;
        rec.mc = mc;
        rec.retired = retired;
        rec.rendered = rendered;
        // The product EnergyMeter::addPower() would form.
        for (std::size_t i = 0; i < rec.railJoules.size(); ++i)
            rec.railJoules[i] = p.railWatts[i] * secs;
        rec.floorJoules = cfg_.platformFloor * secs;
        rec.stale = false;
    }
}

inline void
Soc::applyCommit(Tick t, Tick interval)
{
    const CommitRecord &rec = record_;
    if (rec.memActive) {
        fabric_->commit(rec.fabric, interval);
        mc_->commit(rec.mc);
    }
    for (std::size_t i = 0; i < rec.retired; ++i)
        cpu_->commitRetire(rec.threads[i]);
    if (rec.rendered)
        gfx_->commitRender(rec.gfx);

    // The energy meter sees the identical per-rail addition sequence
    // integratePower() produced, V_SA's platform floor last.
    for (power::Rail r : power::kAllRails)
        meter_.addEnergy(r, rec.railJoules[power::railIndex(r)]);
    meter_.addEnergy(power::Rail::VSA, rec.floorJoules);
    traceRailPower(t, plan_.stepPower);

    applyAccounting(rec.accounting, interval);
}

inline void
Soc::applyAccounting(const StepAccounting &a, Tick interval)
{
    if (a.qosViolation)
        ++qosViolations_;
    llc_->recordInterval(a.cpuMisses, a.gfxMisses, a.stallCycles,
                         a.cpuOccupancy);
    counters_->accumulate(a.gfxMisses, a.cpuOccupancy, a.stallCycles,
                          a.ioRpq, interval);

    // Reactive power capping: budget models are estimates; when the
    // measured average runs above TDP the compute grant is walked
    // down (and back up once headroom returns).
    powerEwma_ = 0.98 * powerEwma_ + a.powerEwmaTermW;
    if (powerEwma_ > cfg_.tdp) {
        throttle_ = std::max(kThrottleFloor, throttle_ * 0.98);
    } else if (throttle_ < 1.0) {
        throttle_ = std::min(1.0, throttle_ * 1.01);
    }

    bwEwma_ = 0.98 * bwEwma_ + a.bwEwmaTerm;

    // Run-window accumulators.
    elapsedSeconds_ += a.secs;
    memLatIntegral_ += a.memLatIntegral;
    memActiveSeconds_ += a.memActiveSeconds;
    bwIntegral_ += a.bwIntegral;
    coreFreqIntegral_ += a.coreFreqIntegral;
    if (a.lowPoint)
        lowPointSeconds_ += a.secs;
}

void
Soc::integratePower(const IntervalDemand &demand,
                    std::size_t active_threads, double activity,
                    double mc_util, double fabric_util, Watt vddq_power,
                    Tick interval)
{
    const compute::CStateResidency &res = demand.residency;
    const double exec = res.activeFraction() * hdc_.dutyFactor();
    const double leak_w = res.computeLeakWeight();
    const double uncore_w = res.uncoreWeight();

    // VCore: dynamic while executing, leakage weighted by C-state,
    // LLC on the same rail.
    const Watt cpu_total = active_threads
                               ? cpu_->power(active_threads, activity)
                               : cpu_->leakage();
    const Watt cpu_dyn = cpu_total - cpu_->leakage();
    const Watt llc_power = llc_->power(cpu_->voltage(), mc_util);
    const Watt v_core = cpu_dyn * exec +
                        cpu_->leakage() * leak_w + llc_power * leak_w;
    meter_.addPower(power::Rail::VCore, v_core, interval);

    // VGfx: dynamic while rendering, leakage weighted by C-state.
    const Watt gfx_total = gfx_->power(demand.gfxWork);
    const Watt gfx_leak = gfx_->leakage();
    const Watt v_gfx = gfxActive_
                           ? (gfx_total - gfx_leak) * exec +
                                 gfx_leak * leak_w
                           : gfx_leak * leak_w;
    meter_.addPower(power::Rail::VGfx, v_gfx, interval);

    // V_SA: MC + fabric + IO engines (Fig. 1, circled 1).
    const Watt v_sa =
        (mc_->controllerPower(mc_util) + fabric_->power(fabric_util) +
         display_->power() + isp_->power() +
         dma_->power(demand.ioBestEffort)) *
        uncore_w;
    meter_.addPower(power::Rail::VSA, v_sa, interval);

    // V_IO: DDRIO-digital + IO PHYs (circled 4).
    const Watt v_io = mc_->ddrioDigitalPower(mc_util) * uncore_w;
    meter_.addPower(power::Rail::VIO, v_io, interval);

    // VDDQ: DRAM + DDRIO-analog (circled 2 and 3); already blended
    // between active and self-refresh by the caller.
    meter_.addPower(power::Rail::VDDQ, vddq_power, interval);

    // Always-on platform slice outside the managed domains; charged
    // on the V_SA meter channel (same supply branch on the board).
    meter_.addPower(power::Rail::VSA, cfg_.platformFloor, interval);

    const Watt total = v_core + v_gfx + v_sa + v_io + vddq_power +
                       cfg_.platformFloor;

    // Record the per-rail watts: a capturing step's commit record
    // turns them into the energy a replayed step adds.
    plan_.railWatts[power::railIndex(power::Rail::VCore)] = v_core;
    plan_.railWatts[power::railIndex(power::Rail::VGfx)] = v_gfx;
    plan_.railWatts[power::railIndex(power::Rail::VSA)] = v_sa;
    plan_.railWatts[power::railIndex(power::Rail::VIO)] = v_io;
    plan_.railWatts[power::railIndex(power::Rail::VDDQ)] = vddq_power;
    plan_.stepPower = total;
}

Soc::RunAccumulators
Soc::sampleAccumulators() const
{
    RunAccumulators s;
    s.instructions = cpu_->totalInstructions();
    s.frames = gfx_->totalFrames();
    for (power::Rail r : power::kAllRails)
        s.rail[power::railIndex(r)] = meter_.railEnergy(r);
    s.latInt = memLatIntegral_;
    s.latSecs = memActiveSeconds_;
    s.bwInt = bwIntegral_;
    s.freqInt = coreFreqIntegral_;
    s.lowSecs = lowPointSeconds_;
    s.elapsedSeconds = elapsedSeconds_;
    s.qos = qosViolations_.value();
    s.trans = transitions_.value();
    s.stall = stallTicks_.value();
    return s;
}

RunMetrics
Soc::run(Tick duration)
{
    SYSSCALE_ASSERT(duration > 0, "zero-length run");

    const RunAccumulators before = sampleAccumulators();
    sim().run(now() + duration);
    const RunAccumulators after = sampleAccumulators();
    return metricsBetween(before, after, secondsFromTicks(duration));
}

RunMetrics
Soc::metricsBetween(const RunAccumulators &before,
                    const RunAccumulators &after, double seconds)
{
    RunMetrics m;
    m.seconds = seconds;
    m.instructions = after.instructions - before.instructions;
    m.ips = m.instructions / m.seconds;
    m.frames = after.frames - before.frames;
    m.fps = m.frames / m.seconds;

    Joule total = 0.0;
    for (power::Rail r : power::kAllRails) {
        const std::size_t i = power::railIndex(r);
        m.railEnergy[i] = after.rail[i] - before.rail[i];
        total += m.railEnergy[i];
    }
    m.energy = total;
    m.avgPower = total / m.seconds;
    m.edp = power::edp(total, m.seconds);

    const double lat_secs = after.latSecs - before.latSecs;
    m.avgMemLatencyNs =
        lat_secs > 0.0 ? (after.latInt - before.latInt) / lat_secs
                       : 0.0;
    const double elapsed = after.elapsedSeconds - before.elapsedSeconds;
    m.avgMemBandwidth =
        elapsed > 0.0 ? (after.bwInt - before.bwInt) / elapsed : 0.0;
    m.avgCoreFreq =
        elapsed > 0.0 ? (after.freqInt - before.freqInt) / elapsed
                      : 0.0;
    m.lowPointResidency =
        elapsed > 0.0 ? (after.lowSecs - before.lowSecs) / elapsed
                      : 0.0;

    m.qosViolations =
        static_cast<std::uint64_t>(after.qos - before.qos);
    m.transitions =
        static_cast<std::uint64_t>(after.trans - before.trans);
    m.stallTicks = static_cast<Tick>(after.stall - before.stall);
    return m;
}

void
Soc::visitState(StateIO &io)
{
    // Not setTdp(): that traces and re-derives the compute grant.
    // Apply the raw envelope; the grant is restored exactly as saved.
    io.field("tdp", cfg_.tdp);
    if (io.loading()) {
        pbm_.setTdp(cfg_.tdp);
        hdc_ = compute::HardwareDutyCycle(cfg_.tdp);
    }

    io.push("op");
    io.field("name", currentOp_.name);
    io.field("dram_bin", currentOp_.dramBin);
    io.field("fabric_freq", currentOp_.fabricFreq);
    io.field("v_sa", currentOp_.vSa);
    io.field("v_io", currentOp_.vIo);
    io.field("mrc_bin", currentOp_.mrcTrainedBin);
    io.pop();

    io.field("compute_budget", computeBudget_);
    io.field("core_freq_cap", coreFreqCap_);
    io.field("gfx_active", gfxActive_);

    io.push("plan");
    StepPlan &p = plan_;
    io.field("valid", p.valid);
    io.field("demand_valid_until", p.demandValidUntil);
    // The pointer itself cannot survive a process boundary; record
    // whether the plan was captured against the bound workload and
    // rebind on load.
    bool workload_bound = p.workload != nullptr;
    io.field("workload_bound", workload_bound);
    if (io.loading())
        p.workload = workload_bound ? workload_ : nullptr;
    io.field("transitions_seen", p.transitionsSeen);
    io.field("throttle", p.throttle);
    io.field("compute_budget", p.computeBudget);
    io.field("core_freq_cap", p.coreFreqCap);
    io.field("duty_factor", p.dutyFactor);
    io.field("tdp", p.tdp);
    io.field("latency_in_ns", p.latencyInNs);
    io.field("cpu_freq", p.cpuFreq);
    io.field("gfx_freq", p.gfxFreq);
    io.field("iso", p.iso);
    io.field("io_engine_power", p.ioEnginePower);
    io.field("dram_frac", p.dramFrac);
    io.field("exec_frac", p.execFrac);
    io.field("md_cpu_read", p.md.cpuRead);
    io.field("md_cpu_write", p.md.cpuWrite);
    io.field("md_gfx", p.md.gfx);
    io.field("md_io_iso", p.md.ioIso);
    io.field("md_io_best_effort", p.md.ioBestEffort);
    io.field("gfx_demand_c0", p.gfxDemandC0);
    io.field("miss_scale", p.missScale);
    for (std::size_t i = 0; i < p.railWatts.size(); ++i)
        io.field("rail_w" + std::to_string(i), p.railWatts[i]);
    io.field("step_power", p.stepPower);
    io.pop();

    io.field("plan_miss_streak", planMissStreak_);
    io.field("plan_skip_countdown", planSkipCountdown_);
    io.field("plan_just_captured", planJustCaptured_);

    io.field("last_mem_latency_ns", lastMemLatencyNs_);
    io.field("bw_ewma", bwEwma_);
    io.field("power_ewma", powerEwma_);
    io.field("throttle", throttle_);
    io.field("pending_stall", pendingStall_);

    io.field("mem_lat_integral", memLatIntegral_);
    io.field("mem_active_seconds", memActiveSeconds_);
    io.field("bw_integral", bwIntegral_);
    io.field("core_freq_integral", coreFreqIntegral_);
    io.field("low_point_seconds", lowPointSeconds_);
    io.field("elapsed_seconds", elapsedSeconds_);

    // The demand scratch feeds commitStep() on replayed steps, so a
    // restored plan needs the exact demand it was captured with.
    io.push("demand");
    IntervalDemand &d = demandScratch_;
    std::uint64_t threads = d.threadWork.size();
    io.field("threads", threads);
    if (io.loading())
        d.threadWork.clear();
    for (std::uint64_t i = 0; i < threads; ++i) {
        if (io.loading())
            d.threadWork.emplace_back();
        compute::CoreWork &cw = d.threadWork[i];
        io.push("thread" + std::to_string(i));
        io.field("cpi_base", cw.cpiBase);
        io.field("mpki", cw.mpki);
        io.field("blocking_factor", cw.blockingFactor);
        io.field("bytes_per_instr", cw.bytesPerInstr);
        io.field("activity", cw.activity);
        io.pop();
    }
    io.push("gfx");
    io.field("cycles_per_frame", d.gfxWork.cyclesPerFrame);
    io.field("bytes_per_frame", d.gfxWork.bytesPerFrame);
    io.field("target_fps", d.gfxWork.targetFps);
    io.field("activity", d.gfxWork.activity);
    io.pop();
    io.field("io_best_effort", d.ioBestEffort);
    std::array<double, compute::kNumCStates> frac{};
    for (std::size_t i = 0; i < compute::kNumCStates; ++i) {
        frac[i] = d.residency.fraction(compute::kAllCStates[i]);
        io.field("residency" + std::to_string(i), frac[i]);
    }
    // Bit-exact doubles round-trip, so the ctor's sum==1 check holds.
    if (io.loading())
        d.residency = compute::CStateResidency(frac);
    io.field("core_freq_request", d.coreFreqRequest);
    io.field("gfx_freq_request", d.gfxFreqRequest);
    io.pop();

    io.push("meter");
    meter_.visitState(io);
    io.pop();
    io.push("vsa_reg");
    vsaReg_.visitState(io);
    io.pop();
    io.push("vio_reg");
    vioReg_.visitState(io);
    io.pop();

    // The commit record is derived state. The children this Soc owns
    // restore after it, so re-deriving here would read their stale
    // state: the first replay re-derives it instead.
    if (io.loading())
        record_.stale = true;

    io.push("csr");
    for (const std::string &n : csr_.names()) {
        std::uint64_t v = csr_.read(n);
        io.field(n, v);
        if (io.loading())
            csr_.write(n, v);
    }
    io.pop();
}

} // namespace soc
} // namespace sysscale
