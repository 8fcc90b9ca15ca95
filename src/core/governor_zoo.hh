/**
 * @file
 * Real-world-shaped governors (the "zoo").
 *
 * Analogues of the Linux CPUFreq governor family, recast onto the
 * SysScale operating-point table and driven through the
 * policy/driver split of core/governor.hh:
 *
 *  - OndemandGovernor: load-based, jumps to the high point under
 *    pressure and drops straight low when projected low-point
 *    utilization has headroom (CPUFreq "ondemand").
 *  - ConservativeGovernor: like ondemand but steps one table entry
 *    at a time in both directions (CPUFreq "conservative").
 *  - UserspaceTableGovernor: no policy at all — the operating point
 *    is dictated by parameters, either a fixed table index or a
 *    time-indexed schedule (CPUFreq "userspace", made declarative).
 *  - LatencyBudgetGovernor: ondemand-style targets, but downward
 *    transitions spend from a per-window transition-latency budget
 *    enforced by the driver's latency constraint; upward (QoS-
 *    critical) moves are never constrained.
 *  - OnlineAdaptiveGovernor: SysScale's five-condition decision with
 *    thresholds that keep learning *during* the run — per-window
 *    mu+sigma updates over windows observed safe, plus the trainer's
 *    zero-false-positive clamp whenever an unsafe window would have
 *    slipped under every threshold (Sec. 4.2, made online).
 *
 * Each constructor validates its GovernorParams and throws
 * std::invalid_argument on unknown keys or malformed values, so a
 * bad --governors token fails at parse/validate time, not mid-cell.
 */

#ifndef SYSSCALE_CORE_GOVERNOR_ZOO_HH
#define SYSSCALE_CORE_GOVERNOR_ZOO_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/demand_predictor.hh"
#include "core/governors.hh"
#include "core/static_table.hh"

namespace sysscale {
namespace core {

/**
 * CPUFreq-ondemand analogue. Params: up (projected low-point
 * utilization above which the high point is demanded, default 0.80),
 * stall-gate (LLC stall cycles/ms treated as pressure, default 1e6).
 */
class OndemandGovernor : public PolicyBase
{
  public:
    explicit OndemandGovernor(const GovernorParams &params = {});

    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 128; }

    static constexpr double kDefaultUpThreshold = 0.80;
    static constexpr double kDefaultStallGate = 1.0e6;

  private:
    double up_;
    double stallGate_;
};

/**
 * CPUFreq-conservative analogue: one table step per evaluation.
 * Params: up (utilization that steps toward high, default 0.65),
 * down (utilization that steps toward low, default 0.30).
 */
class ConservativeGovernor : public PolicyBase
{
  public:
    explicit ConservativeGovernor(const GovernorParams &params = {});

    void init(GovernorDriver &drv, soc::Soc &soc) override;
    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 144; }

    static constexpr double kDefaultUpThreshold = 0.65;
    static constexpr double kDefaultDownThreshold = 0.30;

    /** Snapshot support: the current table index. */
    void visitState(StateIO &io) override;

  private:
    double up_;
    double down_;
    std::size_t idx_ = 0; //!< Current table index (0 = high).
};

/**
 * CPUFreq-userspace analogue, made declarative: the operating point
 * is a parameter, not a decision. Params: point (table index,
 * default 0 = high), and/or repeatable schedule entries
 * at=<ms>@<index> (non-decreasing times; the last entry at or before
 * the current evaluation time wins).
 */
class UserspaceTableGovernor : public PolicyBase
{
  public:
    explicit UserspaceTableGovernor(
        const GovernorParams &params = {});

    void init(GovernorDriver &drv, soc::Soc &soc) override;
    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 96; }

    /** Snapshot support: the evaluation clock. */
    void visitState(StateIO &io) override;

  private:
    std::size_t pointIdx_ = 0;
    std::vector<std::pair<Tick, std::size_t>> schedule_;
    std::uint64_t evals_ = 0;
};

/**
 * Latency-budget governor: ondemand-style targets, but each
 * evaluation window only accrues budget-us microseconds of
 * transition-latency budget, and a downward flow may only run when
 * the accrued budget covers its estimated latency (enforced by the
 * driver's transition-latency constraint). Params: budget-us
 * (default 20), burst (accrual cap in windows, default 4), up /
 * stall-gate as in ondemand.
 */
class LatencyBudgetGovernor : public PolicyBase
{
  public:
    explicit LatencyBudgetGovernor(
        const GovernorParams &params = {});

    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    std::size_t firmwareBytes() const override { return 160; }

    static constexpr double kDefaultBudgetUs = 20.0;
    static constexpr double kDefaultBurstWindows = 4.0;

    /** Snapshot support: the accrued budget. */
    void visitState(StateIO &io) override;

  private:
    double up_;
    double stallGate_;
    Tick perWindow_;
    Tick cap_;
    Tick accrued_ = 0;
};

/**
 * Online-adaptive governor: SysScale's decision rule with thresholds
 * trained *during* the scenario. Windows whose observed bandwidth
 * demand fits the low point (with the degradation bound) feed
 * per-counter running mu+sigma thresholds; any unsafe window that
 * would have slipped under every threshold pulls the most prominent
 * threshold below that window's counter value (the zero-false-
 * positive clamp of Sec. 4.2, applied per evaluation). Params:
 * margin (low-point capacity share for the static gate, default
 * 0.85), bound (degradation bound, default 0.02), min-samples
 * (windows before learned thresholds replace the defaults,
 * default 8).
 */
class OnlineAdaptiveGovernor : public PolicyBase
{
  public:
    explicit OnlineAdaptiveGovernor(
        const GovernorParams &params = {});

    void init(GovernorDriver &drv, soc::Soc &soc) override;
    void decide(GovernorDriver &drv, soc::Soc &soc,
                const soc::CounterSnapshot &avg) override;

    /** Thresholds + running stats live in PMU SRAM; still within
     *  the 640-byte firmware budget. */
    std::size_t firmwareBytes() const override { return 632; }

    /** Current (learning) thresholds, for tests/introspection. */
    const Thresholds &thresholds() const { return thresholds_; }

    /** Safe windows absorbed so far. */
    std::uint64_t safeSamples() const { return safeSamples_; }

    /** Zero-false-positive clamps applied so far. */
    std::uint64_t clamps() const { return clamps_; }

    static constexpr double kDefaultMargin = 0.85;
    static constexpr double kDefaultBound = 0.02;
    static constexpr std::uint64_t kDefaultMinSamples = 8;

    /** Learned thresholds never drop below this share of the
     *  hand-tuned defaults (a quiet corpus must not collapse a
     *  counter's threshold to zero and pin the SoC high). */
    static constexpr double kFloorShare = 0.25;

    /** Snapshot support: the learning state — thresholds,
     *  running mu/sigma sums, safe-sample and clamp counts. */
    void visitState(StateIO &io) override;

  private:
    double margin_;
    double bound_;
    std::uint64_t minSamples_;

    Thresholds defaults_;
    Thresholds thresholds_;
    StaticDemandTable table_;

    std::uint64_t safeSamples_ = 0;
    std::uint64_t clamps_ = 0;
    std::array<double, soc::kNumCounters> sum_{};
    std::array<double, soc::kNumCounters> sumSq_{};
};

} // namespace core
} // namespace sysscale

#endif // SYSSCALE_CORE_GOVERNOR_ZOO_HH
