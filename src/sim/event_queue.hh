/**
 * @file
 * Discrete-event kernel.
 *
 * A single EventQueue orders events by (tick, priority, insertion
 * sequence). Components either subclass Event or use
 * EventFunctionWrapper to run a lambda at a given time, mirroring the
 * gem5 kernel at a much smaller scale.
 *
 * Storage is one vector of the live entries, kept sorted latest-first,
 * so the next event to fire is its back(). A simulation holds a handful
 * of live events — in the steady state the SoC step event plus one PMU
 * evaluation tens of milliseconds out — so peeking at the next event is
 * O(1), firing is a pop_back(), schedule() is a binary-search insert
 * that lands near the back, and deschedule() erases its entry at once,
 * found by the event's own (tick, priority, seq).
 */

#ifndef SYSSCALE_SIM_EVENT_QUEUE_HH
#define SYSSCALE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sysscale {

class EventQueue;

/**
 * An occurrence scheduled at a point in simulated time.
 *
 * Events are owned by their creators (typically as members of
 * SimObjects); the queue never deletes them. An event may be scheduled
 * on at most one queue at a time and may be rescheduled after it fires.
 */
class Event
{
  public:
    /** Relative ordering for events that share a tick (lower first). */
    enum Priority
    {
        kPrioMinimum = 0,
        kPrioDvfsFlow = 10,     //!< PMU transition-flow steps.
        kPrioDefault = 50,
        kPrioStatsSample = 80,  //!< PMU evaluation after model updates.
        kPrioMaximum = 100,
    };

    explicit Event(std::string name, int priority = kPrioDefault);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event's tick is reached. */
    virtual void process() = 0;

    const std::string &name() const { return name_; }
    int priority() const { return priority_; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick this event will fire at (valid only while scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    std::string name_;
    int priority_;
    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * Convenience event that runs a std::function.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::string name, std::function<void()> fn,
                         int priority = kPrioDefault)
        : Event(std::move(name), priority), fn_(std::move(fn))
    {}

    void process() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/**
 * The kernel: a time-ordered list of events plus the current tick.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p ev at absolute time @p when (>= now()).
     * Panics if the event is already scheduled or when is in the past.
     */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event. Panics if it is not scheduled. */
    void deschedule(Event *ev);

    /** Deschedule-if-needed then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /** Number of pending events. */
    std::size_t pending() const { return entries_.size(); }

    bool empty() const { return entries_.empty(); }

    /**
     * Run until the queue empties or @p limit is passed.
     *
     * @param limit Absolute tick bound (inclusive); events scheduled
     *              beyond it remain pending and now() advances to limit.
     * @return Number of events processed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run a single event if one is pending. @return true if fired. */
    bool step();

    /** Tick of the earliest pending event, kMaxTick when empty. */
    Tick
    nextPendingTick() const
    {
        return entries_.empty() ? kMaxTick : entries_.back().when;
    }

    /**
     * Jump now() forward to @p when without firing anything. The
     * caller asserts that nothing observable happens in the skipped
     * span: @p when must not lie beyond the next pending event.
     * This is the kernel half of the SoC's idle skip-ahead.
     */
    void advanceNow(Tick when);

    /**
     * Inclusive limit of the innermost runUntil() in progress, or 0
     * when none is active. Event handlers that advance time
     * themselves (skip-ahead batching) must not advance past it —
     * the caller of runUntil() expects now() == limit on return.
     */
    Tick runLimit() const { return runLimit_; }

    /** Total number of events processed over the queue's lifetime. */
    std::uint64_t processedCount() const { return processed_; }

    /** @name Snapshot support.
     *
     * Saving records every live event as (name, when, priority) in
     * exact seq order. Restoring never serializes Event objects:
     * the restoring cell constructs its components (whose startup
     * hooks schedule the same named events), then clearScheduled()
     * empties the queue, restoreNow() jumps the clock, and the saved
     * list is re-scheduled by name in saved-seq order — which
     * preserves every relative (tick, priority, seq) ordering
     * without serializing nextSeq_ itself.
     * @{ */

    /** One live event as serialized into a snapshot. */
    struct SavedEvent
    {
        std::string name;
        Tick when;
        int priority;
    };

    /** All live events in ascending seq order. */
    std::vector<SavedEvent> saveEvents() const;

    /** Live Event pointers in ascending seq order (restore harvest). */
    std::vector<Event *> scheduledEvents() const;

    /** Deschedule every live event. */
    void clearScheduled();

    /**
     * Jump now() to @p when on an empty queue (restore only). Panics
     * when events are still pending or @p when is in the past.
     */
    void restoreNow(Tick when);
    /** @} */

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;
    };

    /** True when @p a fires after @p b in (tick, priority, seq). */
    static bool later(const Entry &a, const Entry &b);

    /** Pop the earliest entry, advance time, and fire it. */
    void fireNext();

    /** Live entries, sorted latest-first: back() fires next. */
    std::vector<Entry> entries_;

    Tick now_ = 0;
    Tick runLimit_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace sysscale

#endif // SYSSCALE_SIM_EVENT_QUEUE_HH
