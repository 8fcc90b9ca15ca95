/**
 * @file
 * Declarative mixed-activity scenarios.
 *
 * A Scenario describes everything that happens *around* a cell's
 * base workload during a run:
 *
 *  - @ref ScenarioLayer "layers": additional workload profiles
 *    overlaid on the base workload (via workloads::CompositeAgent),
 *    each with an arrival tick and an optional departure tick — the
 *    camera-conference-during-SPEC mixes of paper Secs. 5 and 7;
 *  - @ref ScenarioAction "actions": timed mutations of the SoC
 *    itself — TDP stepping for thermal envelopes, display on/off,
 *    camera start/stop — replayed by a ScenarioScript during the
 *    simulation.
 *
 * Scenarios are plain data: exp::ExperimentSpec carries one, the
 * spec codec serializes it (format v2), and the result cache
 * content-addresses it like every other simulation input. All times
 * are absolute simulation ticks (the warm-up window counts).
 */

#ifndef SYSSCALE_WORKLOADS_SCENARIO_HH
#define SYSSCALE_WORKLOADS_SCENARIO_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_object.hh"
#include "workloads/profile.hh"

namespace sysscale {

namespace soc {
class Soc;
} // namespace soc

namespace workloads {

/** One workload overlaid on the base workload for part of a run. */
struct ScenarioLayer
{
    WorkloadProfile profile;

    /** Arrival tick; the layer's phase clock starts here. */
    Tick start = 0;

    /** Departure tick; 0 = stays until the run ends. */
    Tick stop = 0;

    bool
    operator==(const ScenarioLayer &o) const
    {
        return profile == o.profile && start == o.start &&
               stop == o.stop;
    }
};

/** SoC mutations a scenario can schedule. */
enum class ScenarioActionKind : std::uint8_t
{
    SetTdp,     //!< Step the thermal envelope to @ref ScenarioAction::value watts.
    DisplayOn,  //!< Attach the default HD panel to slot 0.
    DisplayOff, //!< Detach every attached panel.
    CameraOn,   //!< Start the default camera stream on the ISP.
    CameraOff,  //!< Stop the camera stream.
};

/** Every action kind, for iteration (codec token lookup, tests). */
constexpr std::array<ScenarioActionKind, 5> kAllScenarioActionKinds = {
    ScenarioActionKind::SetTdp,     ScenarioActionKind::DisplayOn,
    ScenarioActionKind::DisplayOff, ScenarioActionKind::CameraOn,
    ScenarioActionKind::CameraOff,
};

/** Stable token of @p k (used by the spec codec). */
const char *scenarioActionName(ScenarioActionKind k);

/** One timed SoC mutation. */
struct ScenarioAction
{
    Tick at = 0;
    ScenarioActionKind kind = ScenarioActionKind::SetTdp;

    /** TDP watts for SetTdp; unused (and 0) otherwise. */
    double value = 0.0;

    bool
    operator==(const ScenarioAction &o) const
    {
        return at == o.at && kind == o.kind && value == o.value;
    }
};

/**
 * Everything that happens around the base workload during a run.
 */
struct Scenario
{
    std::vector<ScenarioLayer> layers;

    /** Must be sorted by non-decreasing @ref ScenarioAction::at. */
    std::vector<ScenarioAction> actions;

    bool empty() const { return layers.empty() && actions.empty(); }

    bool
    operator==(const Scenario &o) const
    {
        return layers == o.layers && actions == o.actions;
    }
};

/**
 * Throw std::invalid_argument unless @p s is well-formed: every
 * layer has phases and a departure after its arrival, actions are
 * sorted by time, and SetTdp values are positive.
 */
void validateScenario(const Scenario &s);

/**
 * Replays a scenario's action list against a live SoC.
 *
 * Construct one per run next to the Soc; it schedules itself on the
 * simulator's event queue at startup and applies each action exactly
 * once when simulated time reaches it (actions already in the past
 * at startup are applied at the first opportunity).
 */
class ScenarioScript : public SimObject
{
  public:
    ScenarioScript(Simulator &sim, soc::Soc &soc,
                   std::vector<ScenarioAction> actions);
    ~ScenarioScript() override;

    void startup() override;

    /** Actions applied so far. */
    std::size_t applied() const { return next_; }

    /** Snapshot support: the replay cursor (the action list is
     *  construction input). */
    void visitState(StateIO &io) override;

  private:
    void fire();

    soc::Soc &soc_;
    std::vector<ScenarioAction> actions_;
    std::size_t next_ = 0;
    EventFunctionWrapper event_;
};

/** @name Named scenario registry (sweep_grid --scenarios). @{ */

/** Registered scenario names, in presentation order. */
const std::vector<std::string> &scenarioNames();

/**
 * The registered scenario called @p name. Throws
 * std::invalid_argument on unknown names; "none" is the empty
 * scenario.
 */
Scenario scenarioByName(const std::string &name);
/** @} */

} // namespace workloads
} // namespace sysscale

#endif // SYSSCALE_WORKLOADS_SCENARIO_HH
