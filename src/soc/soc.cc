#include "soc/soc.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace soc {

namespace {

/** LLC capacity the workload profiles were characterized at. */
constexpr std::size_t kProfileLlcBytes = 4ull * 1024 * 1024;

/** Process-wide skip-ahead default for new Soc instances. */
std::atomic<bool> g_skip_ahead_default{true};

bool
sameBits(double a, double b)
{
    std::uint64_t x, y;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

} // namespace

bool
Soc::skipAheadDefault()
{
    return g_skip_ahead_default.load(std::memory_order_relaxed);
}

void
Soc::setSkipAheadDefault(bool on)
{
    g_skip_ahead_default.store(on, std::memory_order_relaxed);
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
    std::iota(mru_.begin(), mru_.end(), 0);

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

Soc::ThreadActivity
Soc::threadActivity(const IntervalDemand &demand)
{
    ThreadActivity act;
    double sum = 0.0;
    for (const auto &w : demand.threadWork) {
        if (w.cpiBase > 0.0) {
            ++act.threads;
            sum += w.activity;
        }
    }
    if (act.threads)
        act.mean = sum / static_cast<double>(act.threads);
    return act;
}

Soc::PStateGrants
Soc::grantsAt(double throttle, const IntervalDemand &demand,
              const ThreadActivity &act) const
{
    const power::ComputeSplit split =
        pbm_.split(computeBudget_, gfxActive_);

    // Idle unit floors are charged from the budget before granting.
    const std::size_t active_cores = std::max<std::size_t>(
        1, (act.threads + cfg_.threadsPerCore - 1) /
               cfg_.threadsPerCore);

    Hertz core_req = demand.coreFreqRequest > 0.0
                         ? demand.coreFreqRequest
                         : cpu_->pstates().max().freq;
    if (coreFreqCap_ > 0.0)
        core_req = std::min(core_req, coreFreqCap_);

    const Watt core_budget = throttle *
        (gfxActive_ ? split.coreBudget : computeBudget_) /
        static_cast<double>(active_cores);
    PStateGrants g;
    g.cpu = &pbm_.grant(cpu_->pstates(), core_req, core_budget,
                        act.mean);

    if (gfxActive_) {
        const Hertz gfx_req = demand.gfxFreqRequest > 0.0
                                  ? demand.gfxFreqRequest
                                  : gfx_->pstates().max().freq;
        g.gfx = &pbm_.grant(gfx_->pstates(), gfx_req,
                            split.gfxBudget * throttle,
                            demand.gfxWork.activity);
    } else {
        g.gfx = &gfx_->pstates().min();
    }
    return g;
}

bool
Soc::findPlan(Tick t)
{
    if (pendingStall_ != 0)
        return false;
    // Every usable plan was captured from the bound workload (a new
    // binding empties the ring), at or before the last slow step and
    // inside its demand horizon, so demandScratch_ is its demand: they
    // share the thread activity and gfxActive_ the grants read. The
    // grants are computed at most once per lookup, and the fingerprint
    // inputs no probe can change are read once.
    const double duty = hdc_.dutyFactor();
    const BytesPerSec io_iso = isoBandwidthDemand();
    const Watt io_engine_power = display_->power() + isp_->power();
    PStateGrants g;
    for (std::size_t i = 0; i < kPlanRingSize; ++i) {
        const StepPlan &p = ring_[mru_[i]].plan;
        if (!live(p, t))
            continue;
        // Exact (bitwise) comparisons throughout: the replay path only
        // engages when its inputs are *identical*, never merely close.
        if (lastMemLatencyNs_ != p.latencyInNs ||
            computeBudget_ != p.computeBudget ||
            coreFreqCap_ != p.coreFreqCap ||
            duty != p.dutyFactor ||
            cfg_.tdp != p.tdp ||
            io_iso != p.md.ioIso ||
            io_engine_power != p.ioEnginePower)
            continue;
        // The throttle reaches a step only through the two P-state
        // grants, so the plan holds under any throttle that grants the
        // captured states.
        if (throttle_ != p.throttle) {
            if (!g.cpu) {
                gfxActive_ = p.gfxActive;
                g = grantsAt(throttle_, demandScratch_, p.act);
            }
            if (g.cpu != p.grants.cpu || g.gfx != p.grants.gfx)
                continue;
        }
        // Set what the slow step would. The current plan's states and
        // gfxActive_ are already set: only steps set them.
        if (i > 0) {
            cpu_->setPState(*p.grants.cpu);
            gfx_->setPState(*p.grants.gfx);
            gfxActive_ = p.gfxActive;
            promote(i);
        }
        return true;
    }
    return false;
}

void
Soc::replaySteps(Tick interval)
{
    const Tick batch_start = now();
    const StepPlan &p = plan();
    CommitRecord &rec = record();

    // A restore leaves the commit records stale; a plan's first
    // replay after it re-derives the record from the restored plan.
    if (rec.stale)
        recordCommit(interval, p.act);
    // The snap the capture made: a plan that moved the latency
    // replays one step, since the next step's fingerprint differs.
    lastMemLatencyNs_ = p.latencyOutNs;

    // Idle skip-ahead: this step plus every grid step after it that
    // nothing can observe apart — before the next pending event and
    // the workload's demand horizon, within the enclosing runUntil()
    // window. Nothing in the commit half or the counter samples reads
    // now() or schedules events, so the pending horizon is stable
    // across the batch and the clock moves once, to its last step.
    const Tick horizon =
        std::min(eventq().nextPendingTick(), p.demandValidUntil);
    const Tick limit = eventq().runLimit();
    std::uint64_t max_steps = 1;
    if (p.latencyOutNs == p.latencyInNs && horizon > batch_start &&
        limit >= batch_start) {
        max_steps += std::min((horizon - batch_start - 1) / interval,
                              (limit - batch_start) / interval);
    }

    // The EWMAs and the reactive throttle walk are the one recurrence
    // that cannot jump, so they step one by one. A step that moves the
    // throttle ends the batch if the next step's P-state grants differ
    // under the new throttle. Once neither EWMA moves (bit for bit)
    // over a step that holds the throttle, every later step repeats
    // that one. The walk runs on locals, so the grant check's call
    // does not force them through memory on every step.
    const StepAccounting a = rec.accounting;
    const Watt tdp = cfg_.tdp;
    Watt power = powerEwma_;
    BytesPerSec bw = bwEwma_;
    double throttle = throttle_;
    std::uint64_t n = 0;
    while (n < max_steps) {
        const Watt power_before = power;
        const BytesPerSec bw_before = bw;
        const double throttle_before = throttle;
        advanceEwmas(a, tdp, power, bw, throttle);
        ++n;
        if (throttle != throttle_before && n < max_steps) {
            const PStateGrants g = grantsAt(throttle, demandScratch_, p.act);
            if (g.cpu != p.grants.cpu || g.gfx != p.grants.gfx)
                break;
        } else if (sameBits(power, power_before) &&
                   sameBits(bw, bw_before)) {
            n = max_steps;
        }
    }
    powerEwma_ = power;
    bwEwma_ = bw;
    throttle_ = throttle;

    applyCommit(batch_start, interval, n);
    const Tick last = batch_start + (n - 1) * interval;
    eventq().advanceNow(last);
    steps_.add(1.0, n);
    replayedSteps_.add(1.0, n);
    eventq().schedule(&stepEvent_, last + interval);

    // One span per batch: the only trace category that differs
    // between skip-ahead on and off (filter "replay" lines to compare
    // the two byte-for-byte; see docs/OBSERVABILITY.md).
    TRACE_SPAN(traceSink(), obs::kCatReplay, "replay_batch",
               batch_start, last, obs::kv("steps", n));
}

void
Soc::step()
{
    const Tick interval = cfg_.stepInterval;

    if (skipAhead_ && findPlan(now())) {
        replaySteps(interval);
        return;
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
    // the replay plan captured below is dead beyond this tick.
    Tick demand_horizon = kMaxTick;
    if (skipAhead_ && workload_)
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

    const ThreadActivity act = threadActivity(demand);
    gfxActive_ = !demand.gfxWork.idle() && exec_frac > 0.0;
    const PStateGrants grants = grantsAt(throttle_, demand, act);
    cpu_->setPState(*grants.cpu);
    gfx_->setPState(*grants.gfx);

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
    // through the current plan, replayed or not. A capture takes the
    // least recently used slot, unless the current one is not live.
    if (skipAhead_ && live(plan(), now()))
        promote(kPlanRingSize - 1);
    StepPlan &p = plan();
    p.dramFrac = dram_frac;
    p.execFrac = exec_frac;
    p.md = md;
    p.gfxDemandC0 = gfx_demand_c0;

    // Capture the replay fingerprint before the commit half mutates
    // any of the fingerprinted state. A step that consumed transition
    // stall baked stall_frac into exec_frac and must not be replayed;
    // the fingerprint's pendingStall check handles consistency, the
    // valid flag handles this capture.
    if (skipAhead_) {
        p.valid = stall_consumed == 0;
        p.demandValidUntil = demand_horizon;
        p.transitionsSeen = transitions_.sum();
        p.throttle = throttle_;
        p.computeBudget = computeBudget_;
        p.coreFreqCap = coreFreqCap_;
        p.dutyFactor = hdc_.dutyFactor();
        p.tdp = cfg_.tdp;
        p.latencyInNs = lastMemLatencyNs_;
        p.grants = grants;
        p.ioEnginePower = display_->power() + isp_->power();
        p.act = act;
        p.gfxActive = gfxActive_;
    }

    // The slow step commits through the path a replay takes: the
    // record, then one application of it. The EWMAs go first, as in
    // a replay batch.
    recordCommit(interval, act);
    p.latencyOutNs = lastMemLatencyNs_;
    advanceEwmas(record().accounting, cfg_.tdp, powerEwma_, bwEwma_,
                 throttle_);
    applyCommit(now(), interval, 1);
    eventq().schedule(&stepEvent_, now() + interval);
}

inline void
Soc::traceRailPower(Tick t, std::uint64_t n)
{
    // Change-filtered in the sink, so a steady phase emits one sample
    // per level shift — and replayed steps (identical watts by
    // construction) emit nothing, keeping traces byte-identical
    // across skip-ahead on/off. Reported once per step, so a full
    // buffer counts every step's drop.
    obs::TraceSink *sink = traceSink();
    if (!TRACE_ACTIVE(sink))
        return;
    const CommitRecord &rec = record();
    sink->counter(obs::kCatPower, "vcore_w", t,
                  rec.railWatts[power::railIndex(power::Rail::VCore)], n);
    sink->counter(obs::kCatPower, "vgfx_w", t,
                  rec.railWatts[power::railIndex(power::Rail::VGfx)], n);
    sink->counter(obs::kCatPower, "vsa_w", t,
                  rec.railWatts[power::railIndex(power::Rail::VSA)], n);
    sink->counter(obs::kCatPower, "vio_w", t,
                  rec.railWatts[power::railIndex(power::Rail::VIO)], n);
    sink->counter(obs::kCatPower, "vddq_w", t,
                  rec.railWatts[power::railIndex(power::Rail::VDDQ)], n);
    sink->counter(obs::kCatPower, "soc_w", t, rec.stepPower, n);
}

void
Soc::recordCommit(Tick interval, const ThreadActivity &act)
{
    const StepPlan &p = plan();
    const IntervalDemand &demand = demandScratch_;
    CommitRecord &rec = record();
    const double dram_frac = p.dramFrac;
    rec.memActive = dram_frac > 1e-9;

    // IO traffic crosses the fabric; CPU/GFX reach the MC via LLC.
    // The MC serves only the DRAM-active share of the step.
    rec.fabric = {};
    rec.mc = {};
    const interconnect::FabricResult &fr = rec.fabric;
    const mem::MemServiceResult &ms = rec.mc.result;
    Watt vddq_power = dram_->selfRefreshPower();
    if (rec.memActive) {
        rec.fabric = fabric_->evaluate(
            interconnect::FabricDemand{p.md.ioIso, p.md.ioBestEffort});
        const Tick active_ticks = static_cast<Tick>(
            static_cast<double>(interval) * dram_frac);
        rec.mc = mc_->evaluate(p.md, std::max<Tick>(1, active_ticks));
        vddq_power = rec.mc.dramPower * dram_frac +
                     dram_->selfRefreshPower() * (1.0 - dram_frac);
        // Bitwise latency stabilization: hold the previous estimate
        // while the fresh one sits inside the fixpoint tolerance. The
        // step's fixpoint already treats such a move as converged;
        // snapping here keeps steady phases at one exact value instead
        // of limit-cycling in the last float bits, which is what lets
        // the replay fingerprint (and therefore skip-ahead) engage on
        // active-but-steady workloads. The plan keeps the value the
        // snap leaves (latencyOutNs), and a replay of it sets it.
        if (std::abs(ms.loadedLatencyNs - lastMemLatencyNs_) >
            kMemLatencyTolNs) {
            lastMemLatencyNs_ = ms.loadedLatencyNs;
        }
    }

    // Retire compute progress.
    double stall_cycles = 0.0;
    rec.instructions = {};
    rec.stallCycles = {};
    rec.rendered = false;
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
            scaled.mpki *= missScale_;
            const compute::CoreResult r = cpu_->evaluateRetire(
                scaled, lastMemLatencyNs_, cpu_grant, exec_ticks);
            rec.instructions += r.instructions;
            rec.stallCycles += r.stallCycles;
            stall_cycles += r.stallCycles;
        }

        // step() sets gfxActive_ only for non-idle work.
        if (gfxActive_) {
            const double gfx_grant =
                p.md.gfx > 1e-9
                    ? std::clamp(ms.achievedGfx / p.md.gfx, 1e-3, 1.0)
                    : 1.0;
            rec.gfx = gfx_->evaluateRender(
                demand.gfxWork, p.gfxDemandC0 * gfx_grant, exec_ticks);
            rec.rendered = true;
        }
    }

    const double secs = secondsFromTicks(interval);
    railPower(demand, act, ms.utilization, fr.utilization, vddq_power);
    for (std::size_t i = 0; i < rec.railJoules.size(); ++i)
        rec.railJoules[i] = rec.railWatts[i] * secs;
    // V_SA's platform floor follows its rail energy in every step.
    rec.railJoules[power::railIndex(power::Rail::VSA)] +=
        cfg_.platformFloor * secs;

    // The Soc's own bookkeeping: counter observables (raw per-step
    // quantities), EWMA terms, and run-accumulator addends.
    StepAccounting &a = rec.accounting;
    a.qosViolation = ms.qosViolation || fr.qosViolation;
    const double gfx_misses = ms.achievedGfx * dram_frac * secs / 64.0;
    a.cpuMisses = ms.achievedCpuRead * dram_frac * secs / 64.0;
    a.gfxMisses = gfx_misses;
    a.stallCycles = stall_cycles;
    a.cpuOccupancy = ms.readPendingOccupancy * dram_frac;
    a.counters = PerfCounterBlock::stepTerms(
        gfx_misses, a.cpuOccupancy, stall_cycles,
        fr.readPendingOccupancy * dram_frac, interval);
    a.powerEwmaTermW = 0.02 * (rec.stepPower - cfg_.platformFloor);
    a.bwEwmaTerm = 0.02 * ms.achievedTotal() * dram_frac;
    a.secs = secs;
    a.memLatIntegral = lastMemLatencyNs_ * secs * dram_frac;
    a.memActiveSeconds = secs * dram_frac;
    a.bwIntegral = ms.achievedTotal() * dram_frac * secs;
    a.coreFreqIntegral = cpu_->frequency() * secs;
    a.lowPoint = !(currentOp_ == opPoints_.high());
    rec.stale = false;
}

void
Soc::applyCommit(Tick t, Tick interval, std::uint64_t n)
{
    const CommitRecord &rec = record();
    if (rec.memActive) {
        fabric_->commit(rec.fabric, interval, n);
        mc_->commit(rec.mc, n);
    }
    cpu_->commitRetire(rec.instructions, rec.stallCycles, n);
    if (rec.rendered)
        gfx_->commitRender(rec.gfx, n);

    for (power::Rail r : power::kAllRails)
        meter_.addEnergy(r, rec.railJoules[power::railIndex(r)], n);
    traceRailPower(t, n);

    applyAccounting(rec.accounting, t, interval, n);
}

inline void
Soc::advanceEwmas(const StepAccounting &a, Watt tdp, Watt &power,
                  BytesPerSec &bw, double &throttle)
{
    // Reactive power capping: budget models are estimates; when the
    // measured average runs above TDP the compute grant is walked
    // down (and back up once headroom returns).
    power = 0.98 * power + a.powerEwmaTermW;
    if (power > tdp) {
        throttle = std::max(kThrottleFloor, throttle * 0.98);
    } else if (throttle < 1.0) {
        throttle = std::min(1.0, throttle * 1.01);
    }

    bw = 0.98 * bw + a.bwEwmaTerm;
}

inline void
Soc::applyAccounting(const StepAccounting &a, Tick t, Tick interval,
                     std::uint64_t n)
{
    if (a.qosViolation)
        qosViolations_.add(1.0, n);
    llc_->recordInterval(a.cpuMisses, a.gfxMisses, a.stallCycles,
                         a.cpuOccupancy, n);
    pmu_->afterSteps(t, interval, n, [&](std::uint64_t m) {
        counters_->accumulate(a.counters, interval, m);
    });

    // Run-window accumulators.
    elapsedSeconds_.add(a.secs, n);
    memLatIntegral_.add(a.memLatIntegral, n);
    memActiveSeconds_.add(a.memActiveSeconds, n);
    bwIntegral_.add(a.bwIntegral, n);
    coreFreqIntegral_.add(a.coreFreqIntegral, n);
    if (a.lowPoint)
        lowPointSeconds_.add(a.secs, n);
}

void
Soc::railPower(const IntervalDemand &demand, const ThreadActivity &act,
               double mc_util, double fabric_util, Watt vddq_power)
{
    const compute::CStateResidency &res = demand.residency;
    const double exec = res.activeFraction() * hdc_.dutyFactor();
    const double leak_w = res.computeLeakWeight();
    const double uncore_w = res.uncoreWeight();
    CommitRecord &rec = record();
    std::array<Watt, power::kNumRails> &w = rec.railWatts;

    // VCore: dynamic while executing, leakage weighted by C-state,
    // LLC on the same rail.
    const Watt cpu_total = act.threads
                               ? cpu_->power(act.threads, act.mean)
                               : cpu_->leakage();
    const Watt cpu_dyn = cpu_total - cpu_->leakage();
    const Watt llc_power = llc_->power(cpu_->voltage(), mc_util);
    const Watt v_core = cpu_dyn * exec +
                        cpu_->leakage() * leak_w + llc_power * leak_w;
    w[power::railIndex(power::Rail::VCore)] = v_core;

    // VGfx: dynamic while rendering, leakage weighted by C-state.
    const Watt gfx_total = gfx_->power(demand.gfxWork);
    const Watt gfx_leak = gfx_->leakage();
    const Watt v_gfx = gfxActive_
                           ? (gfx_total - gfx_leak) * exec +
                                 gfx_leak * leak_w
                           : gfx_leak * leak_w;
    w[power::railIndex(power::Rail::VGfx)] = v_gfx;

    // V_SA: MC + fabric + IO engines (Fig. 1, circled 1).
    const Watt v_sa =
        (mc_->controllerPower(mc_util) + fabric_->power(fabric_util) +
         display_->power() + isp_->power() +
         dma_->power(demand.ioBestEffort)) *
        uncore_w;
    w[power::railIndex(power::Rail::VSA)] = v_sa;

    // V_IO: DDRIO-digital + IO PHYs (circled 4).
    const Watt v_io = mc_->ddrioDigitalPower(mc_util) * uncore_w;
    w[power::railIndex(power::Rail::VIO)] = v_io;

    // VDDQ: DRAM + DDRIO-analog (circled 2 and 3); already blended
    // between active and self-refresh by the caller.
    w[power::railIndex(power::Rail::VDDQ)] = vddq_power;

    // The always-on platform slice outside the managed domains;
    // applyCommit() charges it on the V_SA meter channel (same supply
    // branch on the board).
    rec.stepPower = v_core + v_gfx + v_sa + v_io + vddq_power +
                        cfg_.platformFloor;
}

Soc::RunAccumulators
Soc::sampleAccumulators() const
{
    RunAccumulators s;
    s.instructions = cpu_->totalInstructions();
    s.frames = gfx_->totalFrames();
    for (power::Rail r : power::kAllRails)
        s.rail[power::railIndex(r)] = meter_.railSum(r);
    s.latInt = memLatIntegral_;
    s.latSecs = memActiveSeconds_;
    s.bwInt = bwIntegral_;
    s.freqInt = coreFreqIntegral_;
    s.lowSecs = lowPointSeconds_;
    s.elapsedSeconds = elapsedSeconds_;
    s.qos = qosViolations_.sum();
    s.trans = transitions_.sum();
    s.stall = stallTicks_.sum();
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
    // Each window quantity is an exact difference, rounded once.
    const auto d = [&](stats::ExactSum RunAccumulators::*a) {
        return (after.*a - before.*a).value();
    };
    RunMetrics m;
    m.seconds = seconds;
    m.instructions = d(&RunAccumulators::instructions);
    m.ips = m.instructions / m.seconds;
    m.frames = d(&RunAccumulators::frames);
    m.fps = m.frames / m.seconds;

    Joule total = 0.0;
    for (power::Rail r : power::kAllRails) {
        const std::size_t i = power::railIndex(r);
        m.railEnergy[i] = (after.rail[i] - before.rail[i]).value();
        total += m.railEnergy[i];
    }
    m.energy = total;
    m.avgPower = total / m.seconds;
    m.edp = power::edp(total, m.seconds);

    const double lat_secs = d(&RunAccumulators::latSecs);
    if (lat_secs > 0.0)
        m.avgMemLatencyNs = d(&RunAccumulators::latInt) / lat_secs;
    const double elapsed = d(&RunAccumulators::elapsedSeconds);
    if (elapsed > 0.0) {
        m.avgMemBandwidth = d(&RunAccumulators::bwInt) / elapsed;
        m.avgCoreFreq = d(&RunAccumulators::freqInt) / elapsed;
        m.lowPointResidency = d(&RunAccumulators::lowSecs) / elapsed;
    }

    m.qosViolations =
        static_cast<std::uint64_t>(d(&RunAccumulators::qos));
    m.transitions =
        static_cast<std::uint64_t>(d(&RunAccumulators::trans));
    m.stallTicks = static_cast<Tick>(d(&RunAccumulators::stall));
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

    // The replay ring, most recently used first; a restore puts the
    // plans back in that order. A plan that is not live can never
    // replay again and saves only a cleared flag.
    if (io.loading())
        std::iota(mru_.begin(), mru_.end(), 0);
    const power::PState *cpu_states = cpu_->pstates().states().data();
    const power::PState *gfx_states = gfx_->pstates().states().data();
    for (std::size_t i = 0; i < kPlanRingSize; ++i) {
        StepPlan &p = ring_[mru_[i]].plan;
        io.push("plan" + std::to_string(i));
        bool valid = live(p, now());
        io.field("valid", valid);
        if (io.loading())
            p.valid = valid;
        if (!valid) {
            io.pop();
            continue;
        }
        io.field("demand_valid_until", p.demandValidUntil);
        io.field("transitions_seen", p.transitionsSeen);
        io.field("throttle", p.throttle);
        io.field("compute_budget", p.computeBudget);
        io.field("core_freq_cap", p.coreFreqCap);
        io.field("duty_factor", p.dutyFactor);
        io.field("tdp", p.tdp);
        io.field("latency_in_ns", p.latencyInNs);
        // The granted states, as indices into the P-state tables.
        std::uint64_t cpu_state = p.grants.cpu - cpu_states;
        std::uint64_t gfx_state = p.grants.gfx - gfx_states;
        io.field("cpu_state", cpu_state);
        io.field("gfx_state", gfx_state);
        p.grants = {cpu_states + cpu_state, gfx_states + gfx_state};
        io.field("io_engine_power", p.ioEnginePower);
        std::uint64_t act_threads = p.act.threads;
        io.field("act_threads", act_threads);
        p.act.threads = act_threads;
        io.field("act_mean", p.act.mean);
        io.field("gfx_active", p.gfxActive);
        io.field("dram_frac", p.dramFrac);
        io.field("exec_frac", p.execFrac);
        io.field("md_cpu_read", p.md.cpuRead);
        io.field("md_cpu_write", p.md.cpuWrite);
        io.field("md_gfx", p.md.gfx);
        io.field("md_io_iso", p.md.ioIso);
        io.field("md_io_best_effort", p.md.ioBestEffort);
        io.field("gfx_demand_c0", p.gfxDemandC0);
        io.field("latency_out_ns", p.latencyOutNs);
        io.pop();
    }
    // The commit records are derived state. The children this Soc owns
    // restore after it, so re-deriving here would read their stale
    // state: each plan's first replay re-derives its record instead.
    if (io.loading()) {
        for (PlanEntry &e : ring_)
            e.record.stale = true;
    }

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

    // The demand scratch feeds recordCommit() after a restore, so a
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
