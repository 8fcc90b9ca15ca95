#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sysscale {

Event::Event(std::string name, int priority)
    : name_(std::move(name)), priority_(priority)
{
}

Event::~Event()
{
    // Owners must deschedule before destruction; a scheduled event
    // dying would leave a dangling pointer in the queue.
    SYSSCALE_ASSERT(!scheduled_,
                    "event '%s' destroyed while scheduled",
                    name_.c_str());
}

bool
EventQueue::later(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    if (a.priority != b.priority)
        return a.priority > b.priority;
    return a.seq > b.seq;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    SYSSCALE_ASSERT(ev != nullptr, "schedule(nullptr)");
    SYSSCALE_ASSERT(!ev->scheduled_,
                    "event '%s' double-scheduled", ev->name().c_str());
    SYSSCALE_ASSERT(when >= now_,
                    "event '%s' scheduled in the past (%llu < %llu)",
                    ev->name().c_str(),
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(now_));

    ev->scheduled_ = true;
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    const Entry e{when, ev->priority(), ev->seq_, ev};
    entries_.insert(std::lower_bound(entries_.begin(), entries_.end(),
                                     e, later),
                    e);
}

void
EventQueue::deschedule(Event *ev)
{
    SYSSCALE_ASSERT(ev != nullptr, "deschedule(nullptr)");
    SYSSCALE_ASSERT(ev->scheduled_,
                    "event '%s' descheduled while not scheduled",
                    ev->name().c_str());
    const Entry key{ev->when_, ev->priority(), ev->seq_, ev};
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     key, later);
    SYSSCALE_ASSERT(it != entries_.end() && it->ev == ev,
                    "event '%s' scheduled but missing from the queue",
                    ev->name().c_str());
    entries_.erase(it);
    ev->scheduled_ = false;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::fireNext()
{
    const Entry top = entries_.back();
    entries_.pop_back();

    SYSSCALE_ASSERT(top.when >= now_, "event queue went backwards");
    now_ = top.when;

    Event *ev = top.ev;
    ev->scheduled_ = false;
    ++processed_;
    ev->process();
}

bool
EventQueue::step()
{
    if (entries_.empty())
        return false;
    fireNext();
    return true;
}

void
EventQueue::advanceNow(Tick when)
{
    SYSSCALE_ASSERT(when >= now_, "advanceNow() into the past");
    SYSSCALE_ASSERT(when <= nextPendingTick(),
                    "advanceNow() past a pending event");
    now_ = when;
}

std::vector<EventQueue::SavedEvent>
EventQueue::saveEvents() const
{
    std::vector<SavedEvent> out;
    for (const Event *ev : scheduledEvents())
        out.push_back(SavedEvent{ev->name(), ev->when(), ev->priority()});
    return out;
}

std::vector<Event *>
EventQueue::scheduledEvents() const
{
    std::vector<Event *> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.ev);
    std::sort(out.begin(), out.end(), [](const Event *a, const Event *b) {
        return a->seq_ < b->seq_;
    });
    return out;
}

void
EventQueue::clearScheduled()
{
    for (Event *ev : scheduledEvents())
        deschedule(ev);
    SYSSCALE_ASSERT(entries_.empty(),
                    "clearScheduled left entries behind");
}

void
EventQueue::restoreNow(Tick when)
{
    SYSSCALE_ASSERT(entries_.empty(),
                    "restoreNow() with %zu events still pending",
                    entries_.size());
    SYSSCALE_ASSERT(when >= now_, "restoreNow() into the past");
    now_ = when;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    const Tick prev_limit = runLimit_;
    runLimit_ = limit;

    std::uint64_t fired = 0;
    while (!entries_.empty() && entries_.back().when <= limit) {
        fireNext();
        ++fired;
    }
    if (now_ < limit)
        now_ = limit;

    runLimit_ = prev_limit;
    return fired;
}

} // namespace sysscale
