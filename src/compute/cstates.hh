/**
 * @file
 * SoC idle power states (C-states) and hardware duty cycling.
 *
 * Battery-life workloads spend 60-90% of their time in package idle
 * states (Sec. 7.3): the paper's video-playback example transitions
 * between C0 (active), C2 (shallow idle: compute clock-gated, DRAM
 * still active for display refresh), and C8 (deep idle: DRAM in
 * self-refresh, rails at retention). SysScale can only scale the IO
 * and memory domains while DRAM is active, i.e. in C0 and C2 — which
 * the governor logic relies on.
 *
 * Hardware duty cycling (HDC, Sec. 7.2 footnote) additionally forces
 * idle windows inside C0 at very low TDP by toggling cores through
 * power-gated C-states at coarse grain.
 */

#ifndef SYSSCALE_COMPUTE_CSTATES_HH
#define SYSSCALE_COMPUTE_CSTATES_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace sysscale {
namespace compute {

/** Package power states modeled (subset of ACPI/Intel C-states). */
enum class CState : std::uint8_t { C0, C2, C6, C7, C8 };

constexpr std::size_t kNumCStates = 5;

constexpr std::array<CState, kNumCStates> kAllCStates = {
    CState::C0, CState::C2, CState::C6, CState::C7, CState::C8,
};

constexpr std::size_t
cstateIndex(CState c)
{
    return static_cast<std::size_t>(c);
}

/** Physical behaviour of one C-state. */
struct CStateTraits
{
    /** Compute-domain dynamic power multiplier (1 in C0). */
    double computeDynFactor;

    /** Compute-domain leakage multiplier (power gating in C6+). */
    double computeLeakFactor;

    /** Uncore (fabric + MC) power multiplier. */
    double uncoreFactor;

    /** Whether DRAM stays out of self-refresh in this state. */
    bool dramActive;
};

/** Traits of @p c (Sec. 7.3 semantics). */
const CStateTraits &cstateTraits(CState c);

/**
 * Fraction of time spent in each C-state over a workload window.
 */
class CStateResidency
{
  public:
    /** All time in C0. */
    CStateResidency();

    /**
     * Build from per-state fractions; they must sum to 1 within
     * 1e-6 (fatal otherwise).
     */
    explicit CStateResidency(
        const std::array<double, kNumCStates> &fractions);

    double fraction(CState c) const;

    /** Fraction of time with DRAM out of self-refresh. */
    double dramActiveFraction() const;

    /** Fraction of time the compute domain executes (C0 only). */
    double activeFraction() const { return fraction(CState::C0); }

    /** Weighted compute dynamic-power factor across states. */
    double computeDynWeight() const;

    /** Weighted compute leakage factor across states. */
    double computeLeakWeight() const;

    /** Weighted uncore power factor across states. */
    double uncoreWeight() const;

    bool
    operator==(const CStateResidency &o) const
    {
        return fractions_ == o.fractions_;
    }

  private:
    std::array<double, kNumCStates> fractions_;
};

/**
 * Residency of a package running two independent activities at once:
 * at any instant the package can only idle as deeply as its most
 * active occupant allows. Treating the occupants' idle patterns as
 * independent, the probability the package is deeper than state s is
 * the product of the per-occupant probabilities, which fixes the
 * combined per-state fractions (they still sum to 1). Identity
 * element: a residency that is always in the deepest state.
 * Associative and commutative, so overlaying N activities pairwise
 * is order-independent.
 */
CStateResidency overlayResidency(const CStateResidency &a,
                                 const CStateResidency &b);

/**
 * Hardware duty cycling: an effective C0 duty factor the PMU imposes
 * below a TDP threshold (Sec. 7.2: "at a very low TDP, the effective
 * CPU frequency is reduced below Pn by using hardware duty cycling").
 */
class HardwareDutyCycle
{
  public:
    /**
     * @param tdp SoC thermal design power.
     */
    explicit HardwareDutyCycle(Watt tdp);

    /** Duty factor in (0, 1]: fraction of C0 the cores actually run. */
    double dutyFactor() const { return duty_; }

    /** TDP below which HDC engages. */
    static constexpr Watt kEngageTdp = 5.0;

    /** Duty floor at the lowest supported TDP (3.5W). */
    static constexpr double kMinDuty = 0.75;

  private:
    double duty_;
};

} // namespace compute
} // namespace sysscale

#endif // SYSSCALE_COMPUTE_CSTATES_HH
