/**
 * @file
 * Discrete-event kernel.
 *
 * A single EventQueue orders events by (tick, priority, insertion
 * sequence). Components either subclass Event or use
 * EventFunctionWrapper to run a lambda at a given time, mirroring the
 * gem5 kernel at a much smaller scale.
 *
 * Storage is a calendar queue: an array of buckets, each holding the
 * events of the "days" (fixed-width tick ranges) that alias onto it.
 * The day width is sized to the SoC step interval — the cadence that
 * dominates every simulation — so the common dequeue touches exactly
 * one bucket holding a handful of entries instead of re-heapifying a
 * binary heap. Dequeue scans the current day's bucket for the
 * (tick, priority, seq)-minimum; when no event lives within one full
 * rotation of the calendar (a sparse queue between PMU evaluations or
 * after a skip-ahead), a single global scan over the few live entries
 * finds the minimum directly. Descheduled events are invalidated
 * lazily by a generation counter, exactly as the old heap did, and
 * swept out of whichever bucket a scan next visits.
 */

#ifndef SYSSCALE_SIM_EVENT_QUEUE_HH
#define SYSSCALE_SIM_EVENT_QUEUE_HH

#include <array>
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
    std::uint64_t generation_ = 0; //!< Invalidates stale queue entries.
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
 * The kernel: a time-ordered calendar of events plus the current tick.
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

    /** Remove a scheduled event (no-op panic if not scheduled). */
    void deschedule(Event *ev);

    /** Deschedule-if-needed then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /** Number of pending events. */
    std::size_t pending() const { return live_; }

    bool empty() const { return live_ == 0; }

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

    /**
     * Tick of the earliest pending event, kMaxTick when the queue is
     * empty. Prunes dead entries as a side effect, hence non-const.
     */
    Tick nextPendingTick();

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
    std::vector<SavedEvent> saveEvents();

    /** Live Event pointers in ascending seq order (restore harvest). */
    std::vector<Event *> scheduledEvents();

    /** Deschedule every live event. */
    void clearScheduled();

    /**
     * Jump now() to @p when on an empty queue (restore only). Panics
     * when events are still pending or @p when is in the past.
     */
    void restoreNow(Tick when);
    /** @} */

  private:
    static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *ev;
    };

    /**
     * Bucket and slot of a located entry; bucket kNpos means none.
     * Two words, so it is returned in registers: a third (flag) member
     * sent every findMin() result through a stack round trip.
     */
    struct EntryRef
    {
        std::size_t bucket;
        std::size_t slot;

        bool found() const { return bucket != kNpos; }
    };

    /**
     * Calendar geometry. The day width (2^kDayShift ticks ≈ 134 µs)
     * brackets the 100 µs SoC step interval, so consecutive steps
     * land in the same or adjacent buckets; 64 buckets cover one
     * PMU sample interval (1 ms) several times over before aliasing.
     */
    static constexpr int kDayShift = 27;
    static constexpr std::size_t kNumBuckets = 64;

    static std::uint64_t dayOf(Tick when) { return when >> kDayShift; }

    static bool entryLess(const Entry &a, const Entry &b);

    bool isLive(const Entry &e) const;

    /**
     * Swap-remove every dead (descheduled/stale) entry. Moving a slot
     * invalidates the memoized minimum.
     */
    void pruneBucket(std::vector<Entry> &bucket);

    /**
     * Locate the (tick, priority, seq)-minimum live entry. The answer
     * is memoized until the queue changes, so repeated queries between
     * mutations (advanceNow() inside a replay batch) cost O(1).
     */
    EntryRef findMin();

    /** The uncached search behind findMin(). */
    EntryRef scanMin();

    /** Remove the entry at @p ref, advance time, and fire it. */
    void fireAt(const EntryRef &ref);

    std::array<std::vector<Entry>, kNumBuckets> buckets_;

    /**
     * @name Memoized findMin() result.
     * Valid until the queue changes: schedule() keeps it current in
     * place (push_back leaves existing slots where they are), while
     * removing the memoized event (deschedule(), fireAt()) or moving
     * any slot (pruneBucket()) drops it. Never snapshotted.
     * @{ */
    EntryRef min_{kNpos, 0};
    bool minValid_ = false;
    /** @} */

    Tick now_ = 0;
    Tick runLimit_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t live_ = 0;
    std::size_t dead_ = 0; //!< Lazily-deleted entries still in buckets.
};

} // namespace sysscale

#endif // SYSSCALE_SIM_EVENT_QUEUE_HH
