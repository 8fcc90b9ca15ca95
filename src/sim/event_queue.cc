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
EventQueue::entryLess(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.seq < b.seq;
}

bool
EventQueue::isLive(const Entry &e) const
{
    return e.ev->generation_ == e.generation && e.ev->scheduled_;
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
    ++ev->generation_;
    const std::size_t bi = dayOf(when) % kNumBuckets;
    std::vector<Entry> &bucket = buckets_[bi];
    bucket.push_back(
        Entry{when, ev->priority(), ev->seq_, ev->generation_, ev});
    ++live_;

    if (minValid_ &&
        (!min_.found() ||
         entryLess(bucket.back(), buckets_[min_.bucket][min_.slot]))) {
        min_ = EntryRef{bi, bucket.size() - 1};
    }
}

void
EventQueue::deschedule(Event *ev)
{
    SYSSCALE_ASSERT(ev != nullptr, "deschedule(nullptr)");
    SYSSCALE_ASSERT(ev->scheduled_,
                    "event '%s' descheduled while not scheduled",
                    ev->name().c_str());
    if (minValid_ && min_.found() &&
        buckets_[min_.bucket][min_.slot].ev == ev)
        minValid_ = false;
    // Lazy deletion: bump the generation so the bucket entry is
    // skipped (and swept) by the next scan that visits it.
    ev->scheduled_ = false;
    ++ev->generation_;
    --live_;
    ++dead_;

    // Pathological churn into far-future buckets could otherwise pile
    // up corpses faster than day-by-day scanning sweeps them.
    if (dead_ > kNumBuckets && dead_ > 4 * live_) {
        for (auto &bucket : buckets_)
            pruneBucket(bucket);
    }
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::pruneBucket(std::vector<Entry> &bucket)
{
    for (std::size_t i = 0; i < bucket.size();) {
        if (isLive(bucket[i])) {
            ++i;
            continue;
        }
        bucket[i] = bucket.back();
        bucket.pop_back();
        --dead_;
        minValid_ = false;
    }
}

EventQueue::EntryRef
EventQueue::findMin()
{
    if (!minValid_) {
        min_ = scanMin();
        minValid_ = true;
    }
    return min_;
}

EventQueue::EntryRef
EventQueue::scanMin()
{
    if (live_ == 0)
        return EntryRef{kNpos, 0};

    // Walk days forward from now; all events of a day share one
    // bucket, so the first day with a live entry yields the global
    // minimum.
    std::uint64_t day = dayOf(now_);
    for (std::size_t probes = 0; probes < kNumBuckets; ++probes, ++day) {
        const std::size_t bi = day % kNumBuckets;
        std::vector<Entry> &bucket = buckets_[bi];
        pruneBucket(bucket);
        std::size_t best = kNpos;
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            if (dayOf(bucket[i].when) != day)
                continue; // different rotation of the calendar
            if (best == kNpos || entryLess(bucket[i], bucket[best]))
                best = i;
        }
        if (best != kNpos)
            return EntryRef{bi, best};
    }

    // Sparse queue: nothing within one calendar rotation of now.
    // live_ > 0, so a direct scan over the few survivors finds the
    // minimum without day filtering.
    EntryRef ref{kNpos, 0};
    for (std::size_t bi = 0; bi < kNumBuckets; ++bi) {
        std::vector<Entry> &bucket = buckets_[bi];
        pruneBucket(bucket);
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            if (!ref.found() ||
                entryLess(bucket[i],
                          buckets_[ref.bucket][ref.slot])) {
                ref = EntryRef{bi, i};
            }
        }
    }
    SYSSCALE_ASSERT(ref.found(), "live events but none found");
    return ref;
}

void
EventQueue::fireAt(const EntryRef &ref)
{
    std::vector<Entry> &bucket = buckets_[ref.bucket];
    const Entry top = bucket[ref.slot];
    bucket[ref.slot] = bucket.back();
    bucket.pop_back();
    minValid_ = false;

    SYSSCALE_ASSERT(top.when >= now_, "event queue went backwards");
    now_ = top.when;

    Event *ev = top.ev;
    ev->scheduled_ = false;
    --live_;
    ++processed_;
    ev->process();
}

bool
EventQueue::step()
{
    const EntryRef ref = findMin();
    if (!ref.found())
        return false;
    fireAt(ref);
    return true;
}

Tick
EventQueue::nextPendingTick()
{
    const EntryRef ref = findMin();
    return ref.found() ? buckets_[ref.bucket][ref.slot].when : kMaxTick;
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
EventQueue::saveEvents()
{
    std::vector<Entry> live;
    for (auto &bucket : buckets_) {
        pruneBucket(bucket);
        for (const Entry &e : bucket)
            live.push_back(e);
    }
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) {
                  return a.seq < b.seq;
              });
    std::vector<SavedEvent> out;
    out.reserve(live.size());
    for (const Entry &e : live)
        out.push_back(SavedEvent{e.ev->name(), e.when, e.priority});
    return out;
}

std::vector<Event *>
EventQueue::scheduledEvents()
{
    std::vector<Entry> live;
    for (auto &bucket : buckets_) {
        pruneBucket(bucket);
        for (const Entry &e : bucket)
            live.push_back(e);
    }
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) {
                  return a.seq < b.seq;
              });
    std::vector<Event *> out;
    out.reserve(live.size());
    for (const Entry &e : live)
        out.push_back(e.ev);
    return out;
}

void
EventQueue::clearScheduled()
{
    for (Event *ev : scheduledEvents())
        deschedule(ev);
    for (auto &bucket : buckets_)
        pruneBucket(bucket);
    SYSSCALE_ASSERT(live_ == 0 && dead_ == 0,
                    "clearScheduled left entries behind");
}

void
EventQueue::restoreNow(Tick when)
{
    SYSSCALE_ASSERT(live_ == 0,
                    "restoreNow() with %zu events still pending", live_);
    SYSSCALE_ASSERT(when >= now_, "restoreNow() into the past");
    now_ = when;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    const Tick prev_limit = runLimit_;
    runLimit_ = limit;

    std::uint64_t fired = 0;
    while (true) {
        const EntryRef ref = findMin();
        if (!ref.found())
            break;
        if (buckets_[ref.bucket][ref.slot].when > limit)
            break;
        fireAt(ref);
        ++fired;
    }
    if (now_ < limit)
        now_ = limit;

    runLimit_ = prev_limit;
    return fired;
}

} // namespace sysscale
