/**
 * @file
 * Overlaying several workloads into one demand stream.
 *
 * SysScale's headline scenarios are *concurrent*: camera streaming
 * plus display refresh plus CPU work is exactly where coordinated
 * multi-domain DVFS pays off (paper Secs. 5 and 7). CompositeAgent
 * makes that a first-class workload: it presents any number of
 * member WorkloadAgents — each with its own arrival/departure window
 * — to the SoC as a single IntervalDemand per step.
 *
 * Merge semantics (per step, across the members active at that
 * tick):
 *
 *  - per-thread work is concatenated (each member keeps its own
 *    threads),
 *  - graphics frame work and best-effort IO demand are summed
 *    (cycles/bytes per frame add; the combined frame-rate cap is the
 *    loosest member cap, and any uncapped member uncaps the whole),
 *  - package idle residencies combine via the independent-overlay
 *    product (compute::overlayResidency): the package only idles as
 *    deeply as its most active member allows,
 *  - OS/driver P-state requests merge over the members that carry
 *    the matching work (CPU threads / graphics frames): any such
 *    member requesting "maximum" (0) wins, otherwise the highest
 *    request does. Members without that kind of work express no
 *    opinion.
 *
 * Members see a local clock that starts at their arrival, so a
 * profile joining mid-run begins at its own phase 0.
 */

#ifndef SYSSCALE_WORKLOADS_COMPOSITE_HH
#define SYSSCALE_WORKLOADS_COMPOSITE_HH

#include <vector>

#include "soc/workload_agent.hh"

namespace sysscale {
namespace workloads {

/**
 * A set of concurrently running workload agents presented to the SoC
 * as one.
 */
class CompositeAgent : public soc::WorkloadAgent
{
  public:
    /**
     * Add a member (not owned; must outlive the composite).
     *
     * @param agent The member workload.
     * @param start Arrival tick; before it the member is silent.
     * @param stop Departure tick; 0 means it never departs.
     */
    void addMember(soc::WorkloadAgent &agent, Tick start = 0,
                   Tick stop = 0);

    /** Whether member @p i contributes demand at @p now. */
    bool memberActive(std::size_t i, Tick now) const;

    void demandAt(Tick now, soc::IntervalDemand &demand) override;

    /**
     * Finished once every member is past its departure window or
     * reports itself finished; a composite with no members is
     * trivially finished.
     */
    bool finished(Tick now) const override;

    /**
     * Minimum over every member edge that could change the merged
     * demand: pending arrivals, departures, and each active member's
     * own horizon (translated from its local clock).
     */
    Tick demandHorizon(Tick now) override;

  private:
    struct Member
    {
        soc::WorkloadAgent *agent;
        Tick start;
        Tick stop; //!< 0 = never departs.
    };

    std::vector<Member> members_;
    soc::IntervalDemand scratch_; //!< Reused per member per step.
};

} // namespace workloads
} // namespace sysscale

#endif // SYSSCALE_WORKLOADS_COMPOSITE_HH
