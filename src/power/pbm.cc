#include "power/pbm.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace sysscale {
namespace power {

PowerBudgetManager::PowerBudgetManager(Watt tdp, Watt reserve_w)
    : tdp_(tdp), reserve_(reserve_w)
{
    if (tdp <= 0.0)
        SYSSCALE_FATAL("PBM: non-positive TDP %.2f", tdp);
    if (reserve_w < 0.0 || reserve_w >= tdp)
        SYSSCALE_FATAL("PBM: reserve %.2f outside [0, TDP)", reserve_w);
}

void
PowerBudgetManager::setTdp(Watt tdp)
{
    if (tdp <= 0.0)
        SYSSCALE_FATAL("PBM: non-positive TDP %.2f", tdp);
    debugLog("pbm: tdp %.2f W -> %.2f W (reserve %.2f W)", tdp_, tdp,
             reserve_);
    tdp_ = tdp;
}

Watt
PowerBudgetManager::computeBudget(Watt io_w, Watt mem_w) const
{
    SYSSCALE_ASSERT(io_w >= 0.0 && mem_w >= 0.0,
                    "negative domain power");
    return std::max(0.0, tdp_ - reserve_ - io_w - mem_w);
}

ComputeSplit
PowerBudgetManager::split(Watt budget, bool gfx_active) const
{
    SYSSCALE_ASSERT(budget >= 0.0, "negative compute budget");
    if (!gfx_active) {
        // CPU-only: graphics engine sits at its idle floor, which is
        // charged outside the split.
        return ComputeSplit{budget, 0.0};
    }
    const Watt core = budget * kCoreShareGfxActive;
    return ComputeSplit{core, budget - core};
}

const PState &
PowerBudgetManager::grant(const PStateTable &table, Hertz requested,
                          Watt budget, double activity) const
{
    const Watt p = table.powerAt(requested, activity);
    if (p <= budget) {
        // Find the table state closest-below the request so callers
        // always land on a discrete P-state. States ascend in
        // frequency, so the ones at or below it form a prefix.
        const std::vector<PState> &states = table.states();
        const auto below = std::partition_point(
            states.begin(), states.end(), [&](const PState &s) {
                return s.freq <= requested + 1.0;
            });
        return below == states.begin() ? table.min() : *std::prev(below);
    }
    return table.highestUnder(budget, activity);
}

} // namespace power
} // namespace sysscale
