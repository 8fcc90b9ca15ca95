#include "sim/sim_object.hh"

#include <algorithm>
#include <map>
#include <set>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {

Simulator::Simulator(std::uint64_t seed)
    : statsRoot_(nullptr, ""), rootRng_(seed)
{
}

void
Simulator::registerObject(SimObject *obj)
{
    objects_.push_back(obj);
}

void
Simulator::unregisterObject(SimObject *obj)
{
    auto it = std::find(objects_.begin(), objects_.end(), obj);
    if (it != objects_.end())
        objects_.erase(it);
}

void
Simulator::startAll()
{
    if (started_)
        return;
    started_ = true;
    // Objects may register children during startup; index loop on
    // purpose.
    for (std::size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->startup();
}

std::uint64_t
Simulator::run(Tick limit)
{
    startAll();
    return eventq_.runUntil(limit);
}

void
Simulator::visitState(StateIO &io)
{
    // Every event that can be live mid-run is a named member some
    // object schedules at startup, so on restore the startup harvest
    // is a superset of the saved list and each entry rebinds by name.
    std::map<std::string, Event *> by_name;
    std::vector<EventQueue::SavedEvent> events;
    if (io.loading()) {
        startAll();
        for (Event *ev : eventq_.scheduledEvents())
            by_name[ev->name()] = ev;
        eventq_.clearScheduled();
        eventq_.restoreNow(io.reader().tick());
    } else {
        events = eventq_.saveEvents();
    }

    io.push("events");
    std::uint64_t count = events.size();
    io.field("count", count);
    std::set<std::string> used;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (io.loading())
            events.emplace_back();
        EventQueue::SavedEvent &e = events[i];
        io.push("e" + std::to_string(i));
        io.field("name", e.name);
        io.field("when", e.when);
        io.field("priority", e.priority);
        if (io.loading()) {
            const auto it = by_name.find(e.name);
            if (it == by_name.end())
                throw SnapshotError("snapshot schedules unknown event \"" +
                                    e.name + "\"");
            if (!used.insert(e.name).second)
                throw SnapshotError("snapshot schedules event \"" +
                                    e.name + "\" twice");
            if (it->second->priority() != e.priority)
                throw SnapshotError("event \"" + e.name +
                                    "\" priority mismatch");
            eventq_.schedule(it->second, e.when);
        }
        io.pop();
    }
    io.pop();

    io.push("objects");
    for (SimObject *o : objects_) {
        io.push(o->path());
        o->visitState(io);
        io.pop();
    }
    io.pop();

    io.push("stats");
    statsRoot_.visitStats(io);
    io.pop();

    io.push("rng");
    rootRng_.visitState(io);
    io.pop();
}

SimObject *
Simulator::find(const std::string &name) const
{
    for (auto *obj : objects_) {
        if (obj->path() == name || obj->name() == name)
            return obj;
    }
    return nullptr;
}

SimObject::SimObject(Simulator &sim, SimObject *parent, std::string name)
    : stats::StatGroup(parent ? static_cast<stats::StatGroup *>(parent)
                              : &sim.statsRoot(),
                       std::move(name)),
      sim_(sim)
{
    sim_.registerObject(this);
}

SimObject::~SimObject()
{
    sim_.unregisterObject(this);
}

} // namespace sysscale
