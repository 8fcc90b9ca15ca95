#include "workloads/scenario.hh"

#include <algorithm>
#include <stdexcept>

#include "io/display.hh"
#include "io/isp.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"

namespace sysscale {
namespace workloads {

const char *
scenarioActionName(ScenarioActionKind k)
{
    switch (k) {
      case ScenarioActionKind::SetTdp: return "set_tdp";
      case ScenarioActionKind::DisplayOn: return "display_on";
      case ScenarioActionKind::DisplayOff: return "display_off";
      case ScenarioActionKind::CameraOn: return "camera_on";
      case ScenarioActionKind::CameraOff: return "camera_off";
    }
    return "?";
}

void
validateScenario(const Scenario &s)
{
    for (const ScenarioLayer &layer : s.layers) {
        if (layer.profile.numPhases() == 0)
            throw std::invalid_argument(
                "scenario: layer workload has no phases");
        if (layer.stop != 0 && layer.stop <= layer.start)
            throw std::invalid_argument(
                "scenario: layer departs before it arrives");
    }
    Tick prev = 0;
    for (const ScenarioAction &a : s.actions) {
        if (a.at < prev)
            throw std::invalid_argument(
                "scenario: actions not sorted by time");
        prev = a.at;
        if (a.kind == ScenarioActionKind::SetTdp && !(a.value > 0.0))
            throw std::invalid_argument(
                "scenario: non-positive TDP step");
    }
}

ScenarioScript::ScenarioScript(Simulator &sim, soc::Soc &soc,
                               std::vector<ScenarioAction> actions)
    : SimObject(sim, nullptr, "scenario"), soc_(soc),
      actions_(std::move(actions)),
      event_("scenario.fire", [this] { fire(); })
{
    validateScenario(Scenario{{}, actions_});
}

ScenarioScript::~ScenarioScript()
{
    if (event_.scheduled())
        eventq().deschedule(&event_);
}

void
ScenarioScript::startup()
{
    if (next_ < actions_.size()) {
        eventq().schedule(&event_,
                          std::max(actions_[next_].at, now()));
    }
}

void
ScenarioScript::fire()
{
    while (next_ < actions_.size() && actions_[next_].at <= now()) {
        const ScenarioAction &a = actions_[next_++];
        TRACE_INSTANT(traceSink(), obs::kCatScenario,
                      scenarioActionName(a.kind), now(),
                      obs::kv("value", a.value));
        debugLog("scenario: %s at %.3f ms",
                 scenarioActionName(a.kind), msFromTicks(now()));
        switch (a.kind) {
          case ScenarioActionKind::SetTdp:
            soc_.setTdp(a.value);
            break;
          case ScenarioActionKind::DisplayOn:
            soc_.display().attachPanel(0, io::kDefaultHdPanel);
            break;
          case ScenarioActionKind::DisplayOff:
            for (std::size_t i = 0; i < io::DisplayEngine::kMaxPanels;
                 ++i) {
                if (soc_.display().panel(i))
                    soc_.display().detachPanel(i);
            }
            break;
          case ScenarioActionKind::CameraOn:
            soc_.isp().startCamera(io::CameraConfig{});
            break;
          case ScenarioActionKind::CameraOff:
            soc_.isp().stopCamera();
            break;
        }
    }
    if (next_ < actions_.size())
        eventq().schedule(&event_, actions_[next_].at);
}

void
ScenarioScript::visitState(StateIO &io)
{
    io.field("next", next_);
    if (io.loading() && next_ > actions_.size())
        throw SnapshotError("scenario: cursor past the action list");
}

const std::vector<std::string> &
scenarioNames()
{
    static const std::vector<std::string> names = {
        "none",         "videoconf", "thermal-step",
        "display-blank", "app-switch",
    };
    return names;
}

Scenario
scenarioByName(const std::string &name)
{
    Scenario s;
    if (name == "none" || name.empty())
        return s;

    if (name == "videoconf") {
        // Video conference joining a running CPU workload: the
        // camera starts immediately, the conference's decode/render
        // work arrives shortly after, and the platform steps its
        // thermal envelope down and back mid-call.
        s.actions.push_back(
            {0, ScenarioActionKind::CameraOn, 0.0});
        s.layers.push_back(
            {videoConferencing(), 200 * kTicksPerMs, 0});
        s.actions.push_back(
            {800 * kTicksPerMs, ScenarioActionKind::SetTdp, 3.5});
        s.actions.push_back(
            {1400 * kTicksPerMs, ScenarioActionKind::SetTdp, 4.5});
        return s;
    }
    if (name == "thermal-step") {
        // Thermal envelope walk: sustained -> throttled -> recovered.
        s.actions.push_back(
            {500 * kTicksPerMs, ScenarioActionKind::SetTdp, 3.5});
        s.actions.push_back(
            {1100 * kTicksPerMs, ScenarioActionKind::SetTdp, 4.5});
        s.actions.push_back(
            {1700 * kTicksPerMs, ScenarioActionKind::SetTdp, 3.5});
        return s;
    }
    if (name == "app-switch") {
        // Foreground/background app switch: the user works in a
        // browser, then at 1s switches to a game — the browser
        // departs in the same step the game arrives, so the
        // composite hands the demand stream from one app to the
        // other mid-run (the cell's base workload plays whatever
        // keeps running in the background).
        s.layers.push_back({webBrowsing(), 0, kTicksPerSec});
        s.layers.push_back({lightGaming(), kTicksPerSec, 0});
        return s;
    }
    if (name == "display-blank") {
        // Panel self-blank and wake: the display's isochronous
        // demand vanishes mid-run and returns.
        s.actions.push_back(
            {600 * kTicksPerMs, ScenarioActionKind::DisplayOff, 0.0});
        s.actions.push_back(
            {1200 * kTicksPerMs, ScenarioActionKind::DisplayOn, 0.0});
        return s;
    }
    throw std::invalid_argument("unknown scenario \"" + name + "\"");
}

} // namespace workloads
} // namespace sysscale
