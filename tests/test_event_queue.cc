/**
 * @file
 * Unit tests for the discrete-event kernel.
 *
 * Besides the API-level tests, this file carries the differential
 * property suite for the sorted-vector queue: thousands of seeded random
 * schedule/deschedule/reschedule/run interleavings are replayed
 * against a trivially-correct reference model (a sorted vector), and
 * the firing order must match entry for entry in
 * (tick, priority, seq). SYSSCALE_STRESS_ITERS multiplies the trial
 * count — the CI sanitizer matrix runs the same suite 100x longer
 * than the tier-1 lane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "tests/test_util.hh"

namespace sysscale {
namespace {

using test::stressIters;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper a("a", [&] { order.push_back(1); });
    EventFunctionWrapper b("b", [&] { order.push_back(2); });
    EventFunctionWrapper c("c", [&] { order.push_back(3); });

    q.schedule(&c, 300);
    q.schedule(&a, 100);
    q.schedule(&b, 200);

    EXPECT_EQ(q.runUntil(1000), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper lo("lo", [&] { order.push_back(1); },
                            Event::kPrioMinimum);
    EventFunctionWrapper hi("hi", [&] { order.push_back(3); },
                            Event::kPrioMaximum);
    EventFunctionWrapper first("f", [&] { order.push_back(2); });
    EventFunctionWrapper second("s", [&] { order.push_back(4); });

    q.schedule(&second, 50);
    q.schedule(&hi, 50);
    q.schedule(&first, 50);
    q.schedule(&lo, 50);

    q.runUntil(100);
    // Priority first; ties broken by insertion sequence.
    EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper late("late", [&] { ++fired; });
    q.schedule(&late, 500);

    EXPECT_EQ(q.runUntil(499), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 499u);
    EXPECT_TRUE(late.scheduled());

    q.runUntil(500);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev("ev", [&] { ++fired; });
    q.schedule(&ev, 100);
    EXPECT_TRUE(ev.scheduled());

    q.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    q.runUntil(1000);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired_at = 0;
    EventFunctionWrapper ev("ev", [&] { fired_at = q.now(); });
    q.schedule(&ev, 100);
    q.reschedule(&ev, 700);

    q.runUntil(1000);
    EXPECT_EQ(fired_at, 700u);
}

TEST(EventQueue, EventCanRescheduleItself)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper *ptr = nullptr;
    EventFunctionWrapper ev("tick", [&] {
        if (++count < 5)
            q.schedule(ptr, q.now() + 10);
    });
    ptr = &ev;
    q.schedule(&ev, 10);

    q.runUntil(1000);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.processedCount(), 5u);
}

TEST(EventQueue, StepFiresOneEvent)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper a("a", [&] { ++fired; });
    EventFunctionWrapper b("b", [&] { ++fired; });
    q.schedule(&a, 10);
    q.schedule(&b, 20);

    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, NextPendingTickTracksEarliestLiveEvent)
{
    EventQueue q;
    EXPECT_EQ(q.nextPendingTick(), kMaxTick);

    EventFunctionWrapper a("a", [] {});
    EventFunctionWrapper b("b", [] {});
    q.schedule(&a, 500);
    q.schedule(&b, 200);
    EXPECT_EQ(q.nextPendingTick(), 200u);

    q.deschedule(&b);
    EXPECT_EQ(q.nextPendingTick(), 500u);

    q.reschedule(&a, 900);
    EXPECT_EQ(q.nextPendingTick(), 900u);

    q.runUntil(1000);
    EXPECT_EQ(q.nextPendingTick(), kMaxTick);
}

TEST(EventQueue, AdvanceNowJumpsWithoutFiring)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev("ev", [&] { ++fired; });
    q.schedule(&ev, 1000);

    q.advanceNow(999);
    EXPECT_EQ(q.now(), 999u);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(ev.scheduled());

    // Advancing exactly onto the pending tick is allowed (the event
    // has not been skipped; it still fires next).
    q.advanceNow(1000);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, RunLimitVisibleToHandlersAndRestored)
{
    EventQueue q;
    Tick seen = 0;
    EventFunctionWrapper ev("ev", [&] { seen = q.runLimit(); });
    q.schedule(&ev, 10);

    EXPECT_EQ(q.runLimit(), 0u);
    q.runUntil(750);
    EXPECT_EQ(seen, 750u);
    EXPECT_EQ(q.runLimit(), 0u);
}

TEST(EventQueue, FarFutureEventsBeyondOneRotationFire)
{
    // Events up to ~0.7 s out (thousands of SoC steps, far beyond
    // one PMU interval) still fire in tick order.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper near_ev("near", [&] { order.push_back(1); });
    EventFunctionWrapper far_ev("far", [&] { order.push_back(2); });
    EventFunctionWrapper very_far("vf", [&] { order.push_back(3); });

    const Tick day = Tick(1) << 27;
    q.schedule(&very_far, 5000 * day);
    q.schedule(&far_ev, 300 * day + 17);
    q.schedule(&near_ev, 3);

    EXPECT_EQ(q.nextPendingTick(), 3u);
    EXPECT_EQ(q.runUntil(6000 * day), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameBucketDifferentRotationOrdersByTick)
{
    // Two events exactly 2^33 ticks (~8.6 ms) apart: the later one
    // stays pending after the first fires.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper first("first", [&] { order.push_back(1); });
    EventFunctionWrapper later("later", [&] { order.push_back(2); });

    const Tick rotation = (Tick(1) << 27) * 64;
    q.schedule(&later, 100 + rotation);
    q.schedule(&first, 100);

    EXPECT_TRUE(q.step());
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(q.nextPendingTick(), 100 + rotation);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/**
 * Reference model for the differential suite: the queue semantics
 * restated in the simplest possible form — a flat vector of
 * (when, priority, seq) records, linearly scanned for the minimum.
 */
struct ModelEntry
{
    Tick when;
    int priority;
    std::uint64_t seq;
    std::size_t id;
};

class ReferenceQueue
{
  public:
    explicit ReferenceQueue(std::size_t n) : scheduled_(n, false) {}

    bool scheduled(std::size_t id) const { return scheduled_[id]; }
    Tick now() const { return now_; }
    std::size_t pending() const { return entries_.size(); }

    /** Earliest live tick, kMaxTick when empty. */
    Tick
    nextTick() const
    {
        Tick t = kMaxTick;
        for (const ModelEntry &e : entries_)
            t = std::min(t, e.when);
        return t;
    }

    /** Jump the clock without firing (@p when <= nextTick()). */
    void advanceNow(Tick when) { now_ = when; }

    /** Live (id, when) pairs in ascending seq order. */
    std::vector<std::pair<std::size_t, Tick>>
    bySeq() const
    {
        std::vector<ModelEntry> sorted = entries_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const ModelEntry &a, const ModelEntry &b) {
                      return a.seq < b.seq;
                  });
        std::vector<std::pair<std::size_t, Tick>> out;
        for (const ModelEntry &e : sorted)
            out.emplace_back(e.id, e.when);
        return out;
    }

    void
    schedule(std::size_t id, int priority, Tick when)
    {
        entries_.push_back(ModelEntry{when, priority, nextSeq_++, id});
        scheduled_[id] = true;
    }

    void
    deschedule(std::size_t id)
    {
        entries_.erase(
            std::remove_if(entries_.begin(), entries_.end(),
                           [id](const ModelEntry &e) {
                               return e.id == id;
                           }),
            entries_.end());
        scheduled_[id] = false;
    }

    /** Fire everything through @p limit into @p log as event ids. */
    void
    runUntil(Tick limit, std::vector<std::size_t> &log)
    {
        while (true) {
            std::size_t best = entries_.size();
            for (std::size_t i = 0; i < entries_.size(); ++i) {
                if (best == entries_.size() ||
                    less(entries_[i], entries_[best]))
                    best = i;
            }
            if (best == entries_.size() ||
                entries_[best].when > limit)
                break;
            const ModelEntry e = entries_[best];
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(best));
            now_ = e.when;
            scheduled_[e.id] = false;
            log.push_back(e.id);
        }
        if (now_ < limit)
            now_ = limit;
    }

  private:
    static bool
    less(const ModelEntry &a, const ModelEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    std::vector<ModelEntry> entries_;
    std::vector<bool> scheduled_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/**
 * One seeded trial: drive the event queue and the reference model
 * through an identical random op sequence and require identical
 * firing logs, clocks, pending counts and earliest pending ticks
 * throughout. The ops cover every path that changes or reads the
 * sorted entries: schedule, deschedule, reschedule, run, advanceNow
 * and the seq-ordered snapshot listing (saveEvents).
 */
void
differentialTrial(std::uint64_t seed, std::size_t num_ops)
{
    std::mt19937_64 rng(seed);
    constexpr std::size_t kNumEvents = 24;

    EventQueue q;
    ReferenceQueue model(kNumEvents);

    std::vector<std::size_t> fired;       // by the real queue
    std::vector<std::size_t> expected;    // by the model

    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    std::uniform_int_distribution<int> prio(Event::kPrioMinimum,
                                            Event::kPrioMaximum);
    for (std::size_t i = 0; i < kNumEvents; ++i) {
        events.emplace_back(new EventFunctionWrapper(
            "ev" + std::to_string(i), [&fired, i] { fired.push_back(i); },
            prio(rng)));
    }

    // Delays mix three scales: a few nanoseconds, up to ~1.3 ms
    // (PMU-sample scale) and up to ~27 ms (about one PMU evaluation),
    // so inserts land at the back, in the middle and at the front.
    auto random_delay = [&rng]() -> Tick {
        std::uniform_int_distribution<int> regime(0, 9);
        const int r = regime(rng);
        if (r < 6) {
            return std::uniform_int_distribution<Tick>(0, 2000)(rng);
        }
        if (r < 9) {
            return std::uniform_int_distribution<Tick>(
                0, Tick(10) << 27)(rng);
        }
        return std::uniform_int_distribution<Tick>(
            0, Tick(200) << 27)(rng);
    };

    std::uniform_int_distribution<int> op_dist(0, 11);
    std::uniform_int_distribution<std::size_t> ev_dist(
        0, kNumEvents - 1);

    for (std::size_t op = 0; op < num_ops; ++op) {
        const std::size_t i = ev_dist(rng);
        Event *ev = events[i].get();
        switch (op_dist(rng)) {
          case 0: case 1: case 2: case 3:
            if (!ev->scheduled()) {
                const Tick when = q.now() + random_delay();
                q.schedule(ev, when);
                model.schedule(i, ev->priority(), when);
            }
            break;
          case 4:
            if (ev->scheduled()) {
                q.deschedule(ev);
                model.deschedule(i);
            }
            break;
          case 5: case 6:
            {
                const Tick when = q.now() + random_delay();
                if (ev->scheduled())
                    model.deschedule(i);
                q.reschedule(ev, when);
                model.schedule(i, ev->priority(), when);
            }
            break;
          case 7:
            {
                // Anywhere in [now, next pending], both ends included.
                const Tick next = model.nextTick();
                const Tick span =
                    std::min<Tick>(next - q.now(), Tick(20) << 27);
                const Tick when =
                    q.now() +
                    std::uniform_int_distribution<Tick>(0, span)(rng);
                q.advanceNow(when);
                model.advanceNow(when);
            }
            break;
          case 8:
            {
                // Lists every live event without changing what is
                // live.
                const std::vector<EventQueue::SavedEvent> saved =
                    q.saveEvents();
                const auto want = model.bySeq();
                ASSERT_EQ(saved.size(), want.size()) << "seed " << seed;
                for (std::size_t k = 0; k < saved.size(); ++k) {
                    ASSERT_EQ(saved[k].name,
                              "ev" + std::to_string(want[k].first))
                        << "seed " << seed;
                    ASSERT_EQ(saved[k].when, want[k].second)
                        << "seed " << seed;
                }
            }
            break;
          default:
            {
                const Tick limit = q.now() + random_delay();
                q.runUntil(limit);
                model.runUntil(limit, expected);
                ASSERT_EQ(q.now(), model.now()) << "seed " << seed;
            }
            break;
        }
        ASSERT_EQ(q.pending(), model.pending()) << "seed " << seed;
        ASSERT_EQ(q.nextPendingTick(), model.nextTick())
            << "seed " << seed << " op " << op;
    }

    // Drain everything that is left and compare the full history.
    q.runUntil(kMaxTick);
    model.runUntil(kMaxTick, expected);
    // The real queue records callbacks; map through to ids directly.
    ASSERT_EQ(fired, expected) << "seed " << seed;
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDifferential, RandomizedAgainstReferenceModel)
{
    // ~200 base trials x 400 ops; the stress knob scales trials.
    const std::size_t trials = 200 * stressIters();
    for (std::size_t t = 0; t < trials; ++t)
        differentialTrial(0x5eedf00d + t, 400);
}

TEST(EventQueueDifferential, DenseSameTickTies)
{
    // Heavy same-tick collisions stress the (priority, seq)
    // tie-break: all delays collapse onto a handful of ticks.
    const std::size_t trials = 50 * stressIters();
    for (std::size_t t = 0; t < trials; ++t) {
        std::mt19937_64 rng(0xc01db00c + t);
        EventQueue q;
        ReferenceQueue model(16);
        std::vector<std::size_t> fired, expected;
        std::vector<std::unique_ptr<EventFunctionWrapper>> events;
        std::uniform_int_distribution<int> prio(0, 3);
        for (std::size_t i = 0; i < 16; ++i) {
            events.emplace_back(new EventFunctionWrapper(
                "t" + std::to_string(i),
                [&fired, i] { fired.push_back(i); }, prio(rng) * 25));
        }
        std::uniform_int_distribution<Tick> tick_dist(0, 3);
        for (std::size_t i = 0; i < 16; ++i) {
            const Tick when = q.now() + tick_dist(rng) * 100;
            q.schedule(events[i].get(), when);
            model.schedule(i, events[i]->priority(), when);
        }
        q.runUntil(1000);
        model.runUntil(1000, expected);
        ASSERT_EQ(fired, expected) << "trial " << t;
    }
}

TEST(EventQueue, ClearScheduledEmptiesTheQueue)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper a("a", [&] { ++fired; });
    EventFunctionWrapper b("b", [&] { ++fired; });
    EventFunctionWrapper c("c", [&] { ++fired; });
    q.schedule(&a, 300);
    q.schedule(&b, 100);
    q.schedule(&c, 100 + (Tick(30) * kTicksPerMs));

    q.clearScheduled();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.nextPendingTick(), kMaxTick);
    for (const Event *ev : {&a, &b, &c})
        EXPECT_FALSE(ev->scheduled()) << ev->name();
    EXPECT_TRUE(q.scheduledEvents().empty());

    // Every cleared event can be scheduled again, and fires once.
    q.schedule(&c, 30);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    EXPECT_EQ(q.pending(), 3u);
    EXPECT_EQ(q.runUntil(1000), 3u);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RescheduledTieFiresInSeqOrder)
{
    // Same tick, same priority: a reschedule takes a fresh seq, so
    // the rescheduled event now fires after the one it used to lead.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper a("a", [&] { order.push_back(1); });
    EventFunctionWrapper b("b", [&] { order.push_back(2); });
    EventFunctionWrapper c("c", [&] { order.push_back(3); });
    q.schedule(&a, 100);
    q.schedule(&b, 100);
    q.schedule(&c, 100);

    q.deschedule(&a);
    q.schedule(&a, 100);
    q.reschedule(&b, 100);
    EXPECT_EQ(q.runUntil(100), 3u);
    EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(EventQueueDeath, DescheduleUnscheduledPanics)
{
    EventQueue q;
    EventFunctionWrapper ev("ev", [] {});
    EXPECT_DEATH(q.deschedule(&ev), "not scheduled");

    // A fired event is no longer scheduled either.
    q.schedule(&ev, 10);
    q.runUntil(20);
    EXPECT_DEATH(q.deschedule(&ev), "not scheduled");
}

TEST(EventQueueDeath, AdvanceNowPastPendingEventPanics)
{
    EventQueue q;
    EventFunctionWrapper ev("ev", [] {});
    q.schedule(&ev, 100);
    EXPECT_DEATH(q.advanceNow(101), "");
    q.deschedule(&ev); // leave the parent process clean
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    EventFunctionWrapper a("a", [] {});
    q.schedule(&a, 100);
    q.runUntil(200);
    EXPECT_DEATH(q.schedule(&a, 50), "");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue q;
    EventFunctionWrapper a("a", [] {});
    q.schedule(&a, 100);
    EXPECT_DEATH(q.schedule(&a, 200), "");
    q.deschedule(&a); // leave the parent process clean
}

} // namespace
} // namespace sysscale
