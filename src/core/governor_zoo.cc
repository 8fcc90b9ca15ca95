#include "core/governor_zoo.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/governor_driver.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace core {

namespace {

[[noreturn]] void
badParam(const char *gov, const std::string &key, const char *known)
{
    throw std::invalid_argument(
        std::string("governor \"") + gov + "\": unknown parameter \"" +
        key + "\" (known: " + known + ")");
}

double
parseNum(const char *gov, const std::string &key,
         const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size()) {
        throw std::invalid_argument(
            std::string("governor \"") + gov + "\": bad value \"" +
            value + "\" for parameter \"" + key + "\"");
    }
    return v;
}

std::uint64_t
parseU64(const char *gov, const std::string &key,
         const std::string &value)
{
    if (value.empty() || value[0] < '0' || value[0] > '9') {
        throw std::invalid_argument(
            std::string("governor \"") + gov + "\": bad value \"" +
            value + "\" for parameter \"" + key + "\"");
    }
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size()) {
        throw std::invalid_argument(
            std::string("governor \"") + gov + "\": bad value \"" +
            value + "\" for parameter \"" + key + "\"");
    }
    return v;
}

/** Optimized-interface bandwidth capacity of table point @p op. */
double
pointCapacity(soc::Soc &soc, const soc::OperatingPoint &op)
{
    return soc.config().dramSpec.peakBandwidth(op.dramBin) *
           soc.mrc().optimizedSet(op.dramBin).interfaceEfficiency;
}

} // anonymous namespace

// ---------------------------------------------------------------
// ondemand
// ---------------------------------------------------------------

OndemandGovernor::OndemandGovernor(const GovernorParams &params)
    : PolicyBase("ondemand", FlowOptions{}, /*redistribute=*/true),
      up_(kDefaultUpThreshold), stallGate_(kDefaultStallGate)
{
    for (const auto &kv : params) {
        if (kv.first == "up")
            up_ = parseNum("ondemand", kv.first, kv.second);
        else if (kv.first == "stall-gate")
            stallGate_ = parseNum("ondemand", kv.first, kv.second);
        else
            badParam("ondemand", kv.first, "up, stall-gate");
    }
}

void
OndemandGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                         const soc::CounterSnapshot &avg)
{
    // CPUFreq ondemand: any pressure jumps straight to the fastest
    // point; otherwise pick the saving point if its projected
    // utilization leaves headroom.
    const soc::OperatingPoint &low = soc.opPoints().low();
    const double low_rho =
        soc.recentBandwidth() / pointCapacity(soc, low);
    const bool pressure =
        low_rho > up_ ||
        avg[soc::Counter::LlcStalls] > stallGate_;
    drv.requestOpPoint(pressure ? soc.opPoints().high() : low);
}

// ---------------------------------------------------------------
// conservative
// ---------------------------------------------------------------

ConservativeGovernor::ConservativeGovernor(
    const GovernorParams &params)
    : PolicyBase("conservative", FlowOptions{},
                 /*redistribute=*/true),
      up_(kDefaultUpThreshold), down_(kDefaultDownThreshold)
{
    for (const auto &kv : params) {
        if (kv.first == "up")
            up_ = parseNum("conservative", kv.first, kv.second);
        else if (kv.first == "down")
            down_ = parseNum("conservative", kv.first, kv.second);
        else
            badParam("conservative", kv.first, "up, down");
    }
    if (down_ >= up_) {
        throw std::invalid_argument(
            "governor \"conservative\": down threshold must be "
            "below up threshold");
    }
}

void
ConservativeGovernor::init(GovernorDriver &drv, soc::Soc &soc)
{
    (void)drv;
    (void)soc;
    idx_ = 0; // boot point is the table's high entry
}

void
ConservativeGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                             const soc::CounterSnapshot &avg)
{
    (void)avg;
    // CPUFreq conservative: graceful single-step walks in both
    // directions, judged on the utilization of the *current* point.
    const soc::OpPointTable &pts = soc.opPoints();
    const double rho = soc.recentBandwidth() /
                       pointCapacity(soc, pts.point(idx_));
    if (rho > up_ && idx_ > 0)
        --idx_;
    else if (rho < down_ && idx_ + 1 < pts.size())
        ++idx_;
    drv.requestOpPoint(pts.point(idx_));
}

// ---------------------------------------------------------------
// userspace
// ---------------------------------------------------------------

UserspaceTableGovernor::UserspaceTableGovernor(
    const GovernorParams &params)
    : PolicyBase("userspace", FlowOptions{}, /*redistribute=*/true)
{
    for (const auto &kv : params) {
        if (kv.first == "point") {
            pointIdx_ = static_cast<std::size_t>(
                parseU64("userspace", kv.first, kv.second));
        } else if (kv.first == "at") {
            // at=<ms>@<index>
            const std::size_t sep = kv.second.find('@');
            if (sep == std::string::npos) {
                throw std::invalid_argument(
                    "governor \"userspace\": schedule entry \"" +
                    kv.second + "\" is not <ms>@<index>");
            }
            const std::uint64_t ms = parseU64(
                "userspace", kv.first, kv.second.substr(0, sep));
            const std::size_t idx =
                static_cast<std::size_t>(parseU64(
                    "userspace", kv.first, kv.second.substr(sep + 1)));
            if (!schedule_.empty() &&
                schedule_.back().first >
                    static_cast<Tick>(ms) * kTicksPerMs) {
                throw std::invalid_argument(
                    "governor \"userspace\": schedule times must be "
                    "non-decreasing");
            }
            schedule_.emplace_back(
                static_cast<Tick>(ms) * kTicksPerMs, idx);
        } else {
            badParam("userspace", kv.first, "point, at");
        }
    }
}

void
UserspaceTableGovernor::init(GovernorDriver &drv, soc::Soc &soc)
{
    (void)drv;
    evals_ = 0;
    const std::size_t n = soc.opPoints().size();
    if (pointIdx_ >= n) {
        throw std::invalid_argument(
            "governor \"userspace\": point index " +
            std::to_string(pointIdx_) + " outside the " +
            std::to_string(n) + "-entry table");
    }
    for (const auto &entry : schedule_) {
        if (entry.second >= n) {
            throw std::invalid_argument(
                "governor \"userspace\": schedule index " +
                std::to_string(entry.second) + " outside the " +
                std::to_string(n) + "-entry table");
        }
    }
}

void
UserspaceTableGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                               const soc::CounterSnapshot &avg)
{
    (void)avg;
    // Evaluation count x interval is deterministic simulated time —
    // the schedule replays identically on any worker.
    ++evals_;
    const Tick now = evals_ * soc.config().evaluationInterval;
    std::size_t idx = pointIdx_;
    for (const auto &entry : schedule_) {
        if (entry.first <= now)
            idx = entry.second;
        else
            break;
    }
    drv.requestOpPoint(soc.opPoints().point(idx));
}

// ---------------------------------------------------------------
// latency-budget
// ---------------------------------------------------------------

LatencyBudgetGovernor::LatencyBudgetGovernor(
    const GovernorParams &params)
    : PolicyBase("latency-budget", FlowOptions{},
                 /*redistribute=*/true),
      up_(OndemandGovernor::kDefaultUpThreshold),
      stallGate_(OndemandGovernor::kDefaultStallGate)
{
    double budget_us = kDefaultBudgetUs;
    double burst = kDefaultBurstWindows;
    for (const auto &kv : params) {
        if (kv.first == "budget-us")
            budget_us =
                parseNum("latency-budget", kv.first, kv.second);
        else if (kv.first == "burst")
            burst = parseNum("latency-budget", kv.first, kv.second);
        else if (kv.first == "up")
            up_ = parseNum("latency-budget", kv.first, kv.second);
        else if (kv.first == "stall-gate")
            stallGate_ =
                parseNum("latency-budget", kv.first, kv.second);
        else
            badParam("latency-budget", kv.first,
                     "budget-us, burst, up, stall-gate");
    }
    if (budget_us <= 0.0 || burst < 1.0) {
        throw std::invalid_argument(
            "governor \"latency-budget\": budget-us must be positive "
            "and burst at least 1");
    }
    perWindow_ = static_cast<Tick>(budget_us * kTicksPerUs);
    cap_ = static_cast<Tick>(burst * perWindow_);
}

void
LatencyBudgetGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                              const soc::CounterSnapshot &avg)
{
    accrued_ = std::min(accrued_ + perWindow_, cap_);

    const soc::OperatingPoint &low = soc.opPoints().low();
    const soc::OperatingPoint &high = soc.opPoints().high();
    const double low_rho =
        soc.recentBandwidth() / pointCapacity(soc, low);
    const bool pressure =
        low_rho > up_ ||
        avg[soc::Counter::LlcStalls] > stallGate_;

    if (pressure) {
        // Upward moves are QoS-critical and never constrained.
        drv.requestOpPoint(high);
        return;
    }

    // Downward moves spend from the budget: the driver denies the
    // flow when its estimated latency exceeds what is accrued.
    drv.setTransitionLatencyLimit(accrued_);
    const std::uint64_t runs_before = drv.flowRuns();
    drv.requestOpPoint(low);
    drv.setTransitionLatencyLimit(0);
    if (drv.flowRuns() > runs_before) {
        const Tick spent = drv.lastFlowLatency();
        accrued_ = spent >= accrued_ ? 0 : accrued_ - spent;
    }
}

// ---------------------------------------------------------------
// adaptive
// ---------------------------------------------------------------

OnlineAdaptiveGovernor::OnlineAdaptiveGovernor(
    const GovernorParams &params)
    : PolicyBase("adaptive", FlowOptions{}, /*redistribute=*/true),
      margin_(kDefaultMargin), bound_(kDefaultBound),
      minSamples_(kDefaultMinSamples),
      defaults_(SysScaleGovernor::defaultThresholds()),
      thresholds_(defaults_)
{
    for (const auto &kv : params) {
        if (kv.first == "margin")
            margin_ = parseNum("adaptive", kv.first, kv.second);
        else if (kv.first == "bound")
            bound_ = parseNum("adaptive", kv.first, kv.second);
        else if (kv.first == "min-samples")
            minSamples_ = parseU64("adaptive", kv.first, kv.second);
        else
            badParam("adaptive", kv.first,
                     "margin, bound, min-samples");
    }
    if (!(margin_ > 0.0 && margin_ <= 1.0) ||
        !(bound_ >= 0.0 && bound_ < 1.0)) {
        throw std::invalid_argument(
            "governor \"adaptive\": margin must be in (0,1] and "
            "bound in [0,1)");
    }
}

void
OnlineAdaptiveGovernor::init(GovernorDriver &drv, soc::Soc &soc)
{
    (void)drv;
    // Same static gate as SysScale: the bandwidth the low point can
    // carry while honoring isochronous QoS.
    const soc::OperatingPoint &low = soc.opPoints().low();
    const BytesPerSec low_capacity =
        soc.config().dramSpec.peakBandwidth(low.dramBin) *
        soc.mrc().optimizedSet(low.dramBin).interfaceEfficiency;
    defaults_.staticBw = low_capacity * margin_;
    thresholds_ = defaults_;
    safeSamples_ = 0;
    clamps_ = 0;
    sum_.fill(0.0);
    sumSq_.fill(0.0);
}

void
OnlineAdaptiveGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                               const soc::CounterSnapshot &avg)
{
    // --- Learn from the window just observed (Sec. 4.2, online). --
    // A window is "safe to run low" when its observed bandwidth fits
    // under the low point's guaranteed capacity with the degradation
    // bound to spare — the online proxy for the offline corpus's
    // normPerf >= 1 - bound label.
    const bool window_safe =
        soc.recentBandwidth() <=
        thresholds_.staticBw * (1.0 - bound_);

    if (window_safe) {
        ++safeSamples_;
        for (std::size_t i = 0; i < soc::kNumCounters; ++i) {
            sum_[i] += avg.values[i];
            sumSq_[i] += avg.values[i] * avg.values[i];
        }
        if (safeSamples_ >= minSamples_) {
            const double n = static_cast<double>(safeSamples_);
            for (std::size_t i = 0; i < soc::kNumCounters; ++i) {
                const double mean = sum_[i] / n;
                const double var =
                    std::max(0.0, sumSq_[i] / n - mean * mean);
                // Threshold = mu + sigma, floored so an all-quiet
                // corpus cannot collapse a counter's gate to zero.
                thresholds_.counter[i] =
                    std::max(mean + std::sqrt(var),
                             defaults_.counter[i] * kFloorShare);
            }
        }
    } else {
        // Zero-false-positive clamp: an unsafe window that would
        // slip under every counter threshold pulls the most
        // prominent threshold below that window's value.
        const DemandPredictor check(thresholds_, {});
        const ConditionVector cond = check.conditions(
            avg, table_.staticDemand(soc.csr()));
        if (!cond.any()) {
            std::size_t worst = 0;
            double worst_ratio = -1.0;
            for (std::size_t i = 0; i < soc::kNumCounters; ++i) {
                if (thresholds_.counter[i] <= 0.0)
                    continue;
                const double ratio =
                    avg.values[i] / thresholds_.counter[i];
                if (ratio > worst_ratio) {
                    worst_ratio = ratio;
                    worst = i;
                }
            }
            if (avg.values[worst] > 0.0) {
                thresholds_.counter[worst] =
                    avg.values[worst] * 0.999;
                ++clamps_;
            }
        }
    }

    // --- Decide with the current thresholds (Sec. 4.3 rule). ------
    const BytesPerSec static_demand =
        table_.staticDemand(soc.csr());
    Thresholds active = thresholds_;
    const bool at_high =
        soc.currentOpPoint() == soc.opPoints().high();
    if (!at_high) {
        for (double &t : active.counter)
            t *= SysScaleGovernor::kUpHysteresis;
    }
    const DemandPredictor pred(active, {});
    const ConditionVector cond =
        pred.conditions(avg, static_demand);
    drv.requestOpPoint(cond.any() ? soc.opPoints().high()
                                  : soc.opPoints().low());
}

void
ConservativeGovernor::visitState(StateIO &io)
{
    io.field("idx", idx_);
}

void
UserspaceTableGovernor::visitState(StateIO &io)
{
    io.field("evals", evals_);
}

void
LatencyBudgetGovernor::visitState(StateIO &io)
{
    io.field("accrued", accrued_);
}

void
OnlineAdaptiveGovernor::visitState(StateIO &io)
{
    for (std::size_t i = 0; i < soc::kNumCounters; ++i) {
        const std::string n = std::to_string(i);
        io.field("thr_counter" + n, thresholds_.counter[i]);
        io.field("sum" + n, sum_[i]);
        io.field("sum_sq" + n, sumSq_[i]);
    }
    io.field("thr_static_bw", thresholds_.staticBw);
    io.field("safe_samples", safeSamples_);
    io.field("clamps", clamps_);
}

} // namespace core
} // namespace sysscale
