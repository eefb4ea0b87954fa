/**
 * @file
 * Tests for the calendar event queue and the allocation-free event
 * core (docs/performance.md): same-tick FIFO within and across the
 * wheel/overflow boundary, runUntil boundary semantics, reset,
 * checker drain-point cadence, far-future overflow migration,
 * reserved slots (reserve / schedule(Slot) / passed /
 * nothingPendingNow), a differential run against a reference binary
 * heap, Event small-buffer semantics, packet-pool reuse, and
 * allocation-counting guards over the steady-state scheduling paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

// GCC pairs the replaced operator new with the library operator
// delete across inlining and misreports the malloc/free replacement
// pattern below as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <vector>

#include "protocol/packet_pool.hh"
#include "runner/config_digest.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary is
// counted so tests can assert that a steady-state region performs no
// heap allocation at all. Single-threaded by the test contract.
// ---------------------------------------------------------------------

namespace
{
std::size_t g_allocations = 0;
}

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hmcsim
{
namespace
{

/** Ticks covered by the wheel before entries spill to overflow. */
constexpr Tick wheelHorizon =
    EventQueue::bucketTicks * EventQueue::numBuckets;

TEST(CalendarQueue, SameTickFifoAcrossManyEvents)
{
    EventQueue q;
    std::vector<int> order;
    // Same tick, scheduled from several buckets' worth of "now"
    // distance: all land in one bucket and must pop in seq order.
    for (int i = 0; i < 1000; ++i)
        q.schedule(5000, [&order, i] { order.push_back(i); });
    q.runToCompletion();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(CalendarQueue, SameTickFifoAcrossWheelAndOverflow)
{
    EventQueue q;
    std::vector<int> order;
    // First event targets a tick beyond the wheel horizon, so it
    // starts life in the overflow ladder; by the time the second event
    // is scheduled at the *same* tick the cursor has advanced and the
    // tick is wheel-resident. Seq order must still win.
    const Tick when = 2 * wheelHorizon + 123;
    q.schedule(when, [&order] { order.push_back(0); });
    EXPECT_EQ(q.overflowPending(), 1u);
    q.runUntil(when - 10);
    q.schedule(when, [&order] { order.push_back(1); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(CalendarQueue, InterleavedTicksExecuteInTimeOrder)
{
    EventQueue q;
    std::vector<Tick> fired;
    // Scatter schedules across buckets, laps, and the overflow in a
    // deliberately shuffled order.
    std::vector<Tick> when;
    for (Tick t = 0; t < 64; ++t)
        when.push_back((t * 7919) % (3 * wheelHorizon));
    for (const Tick t : when)
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    q.runToCompletion();
    ASSERT_EQ(fired.size(), when.size());
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.overflowPending(), 0u);
}

TEST(CalendarQueue, OverflowMigratesIntoWheel)
{
    EventQueue q;
    int fired = 0;
    // Deadlines two wheel horizons out overflow, then migrate as the
    // window slides over them.
    for (int i = 0; i < 8; ++i)
        q.schedule(2 * wheelHorizon + static_cast<Tick>(i), [&] { ++fired; });
    EXPECT_EQ(q.overflowPending(), 8u);
    EXPECT_EQ(q.pending(), 8u);
    q.runToCompletion();
    EXPECT_EQ(fired, 8);
    EXPECT_EQ(q.overflowPending(), 0u);
}

TEST(CalendarQueue, CursorRewindsForNearSchedulesAfterFarPeek)
{
    EventQueue q;
    std::vector<int> order;
    // A far-only queue makes the cursor jump toward the overflow
    // entry during the (idle) runUntil peek; a subsequent near-future
    // schedule must pull it back and still fire first.
    const Tick far = 10 * wheelHorizon;
    q.schedule(far, [&order] { order.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
    q.schedule(200, [&order] { order.push_back(1); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), far);
}

TEST(CalendarQueue, RunUntilExecutesEventsExactlyAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(999, [&] { ++fired; });
    q.schedule(1000, [&] { ++fired; });
    q.schedule(1000, [&] { ++fired; });
    q.schedule(1001, [&] { ++fired; });
    const Tick stopped = q.runUntil(1000);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(stopped, 1000u);
    EXPECT_EQ(q.now(), 1000u);
    EXPECT_EQ(q.pending(), 1u);
    q.runToCompletion();
    EXPECT_EQ(fired, 4);
}

TEST(CalendarQueue, RunUntilAdvancesIdleTimeToLimit)
{
    EventQueue q;
    EXPECT_EQ(q.runUntil(5 * wheelHorizon), 5 * wheelHorizon);
    EXPECT_EQ(q.now(), 5 * wheelHorizon);
    // And the queue still accepts/executes later work correctly.
    int fired = 0;
    q.scheduleIn(10, [&] { ++fired; });
    q.runToCompletion();
    EXPECT_EQ(fired, 1);
}

TEST(CalendarQueue, ResetClearsWheelOverflowAndClock)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(5 * wheelHorizon, [] {});
    q.runUntil(20);
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.overflowPending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
    // Post-reset scheduling starts from tick zero again.
    std::vector<int> order;
    q.schedule(1, [&order] { order.push_back(1); });
    q.schedule(0, [&order] { order.push_back(0); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(CalendarQueue, CheckerCadenceFollowsEveryN)
{
    EventQueue q;
    CheckerRegistry registry;
    std::vector<Tick> checkedAt;
    registry.addLambda("probe", [&checkedAt](Tick now) -> std::string {
        checkedAt.push_back(now);
        return {};
    });
    q.setCheckers(&registry, 4);
    for (Tick i = 1; i <= 10; ++i)
        q.schedule(i * 100, [] {});
    q.runToCompletion();
    // Drain points: after events 4 and 8, plus the final drain of
    // runToCompletion.
    ASSERT_EQ(checkedAt.size(), 3u);
    EXPECT_EQ(checkedAt[0], 400u);
    EXPECT_EQ(checkedAt[1], 800u);
    EXPECT_EQ(checkedAt[2], 1000u);
    EXPECT_EQ(registry.checksRun(), 3u);
}

TEST(CalendarQueue, StepExecutesOneEventAtATime)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(fired, 2);
}

/**
 * Differential harness: drives an EventQueue and a reference
 * std::priority_queue on (when, seq) with the same operations, and
 * checks every fired event against the reference's top.
 *
 * Reserved slots ride along as "ghost" reference entries: a ghost
 * passes when a real event ordered after it fires, or when a
 * runUntil() reaches its tick. That is an independent model of
 * EventQueue::passed(), and a fill turns the ghost into a real entry.
 */
class QueueDifferential
{
  public:
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t id;

        bool
        operator>(const Ref &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** priority_queue with its container exposed for snapshots. */
    struct RefQueue
        : std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>>
    {
        using std::priority_queue<Ref, std::vector<Ref>,
                                  std::greater<Ref>>::c;
    };

    /** The trivially-copyable capture every harness event carries. */
    struct Fire
    {
        QueueDifferential *h;
        std::uint64_t id;

        void operator()() const { h->fired(id); }
    };

    /** What a reference entry (by id) stands for. */
    enum class Kind : std::uint8_t
    {
        Real,
        Ghost,       ///< reserved slot, not yet passed
        GhostPassed, ///< reserved slot execution has moved past
    };

    /** A reserved slot not yet filled or dropped. */
    struct Open
    {
        EventQueue::Slot slot;
        std::uint64_t id;
        std::uint64_t epoch; ///< runUntil() calls before the reserve
    };

    EventQueue q;
    RefQueue ref;
    Xoshiro256StarStar rng{20241017};
    std::vector<Kind> kinds;
    std::vector<Open> open;
    std::size_t refReal = 0;
    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;
    std::uint64_t executed = 0;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t distanceUse[5] = {};
    std::uint64_t fillsAtNow = 0;
    std::uint64_t fillsAcrossRunUntil = 0;
    std::uint64_t passedSeen[2] = {};
    std::uint64_t nothingNowSeen[2] = {};
    bool failed = false;

    /** A scheduling distance from one of five classes: zero, inside
     *  the current bucket, inside the wheel, just past the horizon,
     *  and several wheel laps out. */
    Tick
    distance()
    {
        const std::uint64_t cls = rng.nextBounded(5);
        ++distanceUse[cls];
        switch (cls) {
          case 0:
            return 0;
          case 1:
            return rng.nextBounded(EventQueue::bucketTicks -
                                   q.now() % EventQueue::bucketTicks);
          case 2:
            return rng.nextBounded(wheelHorizon);
          case 3:
            return wheelHorizon - 2 * EventQueue::bucketTicks +
                   rng.nextBounded(4 * EventQueue::bucketTicks);
          default:
            return (2 + rng.nextBounded(4)) * wheelHorizon +
                   rng.nextBounded(wheelHorizon);
        }
    }

    std::uint64_t
    newId(Kind kind)
    {
        kinds.push_back(kind);
        return kinds.size() - 1;
    }

    void
    scheduleOne()
    {
        const Tick when = q.now() + distance();
        const std::uint64_t id = newId(Kind::Real);
        if (q.seqCounter() != seq)
            failed = true;
        q.schedule(when, Fire{this, id});
        ref.push({when, seq++, id});
        ++refReal;
        ++scheduleCalls;
    }

    /** Reserve a slot, at now() half of the time so fills land inside
     *  the draining bucket. */
    void
    reserveOne()
    {
        const Tick when = q.now() + (rng.nextBounded(2) ? 0 : distance());
        const EventQueue::Slot slot = q.reserve(when);
        if (slot.when != when || slot.seq != seq)
            failed = true;
        const std::uint64_t id = newId(Kind::Ghost);
        ref.push({when, seq++, id});
        open.push_back({slot, id, epoch});
    }

    /** Check passed() on a random open slot, then fill it (or drop
     *  it, once passed). */
    void
    fillOne()
    {
        if (open.empty())
            return;
        const std::size_t i = rng.nextBounded(open.size());
        const Open o = open[i];
        open[i] = open.back();
        open.pop_back();
        const bool passed = kinds[o.id] == Kind::GhostPassed;
        ++passedSeen[passed];
        if (q.passed(o.slot) != passed) {
            failed = true;
            return;
        }
        if (passed)
            return;
        if (o.slot.when == q.now())
            ++fillsAtNow;
        if (o.epoch != epoch)
            ++fillsAcrossRunUntil;
        q.schedule(o.slot, Fire{this, o.id});
        kinds[o.id] = Kind::Real;
        ++refReal;
    }

    /** Ghosts at the reference's top sort before anything still to
     *  run: they pass. With @p limit, so do ghosts at or before it. */
    void
    passGhosts(Tick limit)
    {
        while (!ref.empty() && kinds[ref.top().id] != Kind::Real &&
               ref.top().when <= limit) {
            kinds[ref.top().id] = Kind::GhostPassed;
            ref.pop();
        }
    }

    /** True when the reference holds no real entry at now(). */
    bool
    refNothingNow() const
    {
        for (const Ref &r : ref.c)
            if (kinds[r.id] == Kind::Real && r.when == q.now())
                return false;
        return true;
    }

    void
    fired(std::uint64_t id)
    {
        ++executed;
        passGhosts(maxTick);
        if (ref.empty() || ref.top().id != id ||
            ref.top().when != q.now()) {
            failed = true;
            return;
        }
        ref.pop();
        --refReal;
        // Inside a callback the cursor sits on now()'s bucket, so
        // nothingPendingNow() must be exact.
        if (rng.nextBounded(4) == 0) {
            const bool none = refNothingNow();
            ++nothingNowSeen[none];
            if (q.nothingPendingNow() != none)
                failed = true;
        }
        // Callbacks schedule, reserve and fill too, like every model
        // pipeline stage. Mean ~0.75 new events keeps the depth
        // bounded.
        const std::uint64_t draw = rng.nextBounded(10);
        const int children = draw < 4 ? 0 : draw < 9 ? 1 : 2;
        for (int i = 0; i < children; ++i) {
            if (rng.nextBounded(5) == 0)
                reserveOne();
            else
                scheduleOne();
        }
        if (rng.nextBounded(5) == 0)
            fillOne();
    }

    /** The harness's runUntil(): the reference passes every ghost at
     *  or before the limit. */
    Tick
    runUntil(Tick limit)
    {
        const Tick stopped = q.runUntil(limit);
        passGhosts(limit);
        ++epoch;
        return stopped;
    }

    /** Compare pendingSnapshot() with the reference, in seq order. */
    void
    checkSnapshot()
    {
        std::vector<Ref> want;
        for (const Ref &r : ref.c)
            if (kinds[r.id] == Kind::Real)
                want.push_back(r);
        std::sort(want.begin(), want.end(),
                  [](const Ref &a, const Ref &b) { return a.seq < b.seq; });
        const auto views = q.pendingSnapshot();
        ASSERT_EQ(views.size(), want.size());
        for (std::size_t i = 0; i < views.size(); ++i) {
            ASSERT_EQ(views[i].seq, want[i].seq);
            ASSERT_EQ(views[i].when, want[i].when);
            ASSERT_EQ(views[i].ev->invokeTarget(),
                      &Event::invokeAs<Fire>);
            Fire capture;
            std::memcpy(&capture, views[i].ev->captureBytes(),
                        sizeof(capture));
            ASSERT_EQ(capture.id, want[i].id);
        }
    }
};

TEST(CalendarQueue, MatchesReferenceHeapUnderRandomOperations)
{
    QueueDifferential h;
    std::uint64_t resets = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t rewinds = 0;
    for (int op = 0; op < 120000 && !h.failed; ++op) {
        const std::uint64_t kind = h.rng.nextBounded(100);
        if (kind < 45) {
            h.scheduleOne();
        } else if (kind < 50) {
            h.reserveOne();
        } else if (kind < 55) {
            h.fillOne();
        } else if (kind < 80) {
            const bool any = h.refReal > 0;
            EXPECT_EQ(h.q.step(), any);
        } else if (kind < 97) {
            // A runUntil slice, often ending in an idle gap: the peek
            // past the limit runs the cursor ahead, and the next near
            // schedule has to pull it back.
            h.passGhosts(h.q.now());
            const bool idle_before =
                h.ref.empty() || h.ref.top().when > h.q.now();
            Tick limit = h.q.now() + h.rng.nextBounded(3 * wheelHorizon);
            // Some slices end exactly on an open slot's tick, which
            // the runUntil() then passes.
            if (!h.open.empty() && h.rng.nextBounded(4) == 0) {
                const Tick at =
                    h.open[h.rng.nextBounded(h.open.size())].slot.when;
                if (at >= h.q.now())
                    limit = at;
            }
            EXPECT_EQ(h.runUntil(limit), limit);
            ASSERT_TRUE(h.ref.empty() || h.ref.top().when > limit);
            if (idle_before && !h.ref.empty())
                ++rewinds;
        } else if (kind < 99) {
            h.checkSnapshot();
            ++snapshots;
        } else {
            // Reset with non-trivial captures pending: every one must
            // be released without running.
            auto token = std::make_shared<int>(0);
            for (int i = 0; i < 4; ++i)
                h.q.schedule(h.q.now() + static_cast<Tick>(i) * wheelHorizon,
                             [token] { ++*token; });
            h.q.reset();
            EXPECT_EQ(token.use_count(), 1);
            EXPECT_EQ(*token, 0);
            h.ref = {};
            h.refReal = 0;
            h.open.clear();
            h.seq = 0;
            ++resets;
        }
        // Outside a callback nothingPendingNow() may answer a
        // conservative false, but never a wrong true.
        if (h.q.nothingPendingNow()) {
            ASSERT_TRUE(h.refNothingNow());
        }
        ASSERT_EQ(h.q.pending(), h.refReal);
        ASSERT_EQ(h.q.seqCounter(), h.seq);
    }
    ASSERT_FALSE(h.failed);
    h.q.runToCompletion();
    ASSERT_FALSE(h.failed);
    EXPECT_EQ(h.refReal, 0u);
    EXPECT_EQ(h.q.pending(), 0u);
    EXPECT_EQ(h.q.overflowPending(), 0u);
    // Once the queue ran dry, every open slot has passed.
    for (const QueueDifferential::Open &o : h.open)
        EXPECT_TRUE(h.q.passed(o.slot));
    // The run covered what it claims to.
    EXPECT_GE(h.scheduleCalls + h.executed, 100000u);
    for (const std::uint64_t uses : h.distanceUse)
        EXPECT_GT(uses, 1000u);
    EXPECT_GT(resets, 100u);
    EXPECT_GT(snapshots, 100u);
    EXPECT_GT(rewinds, 100u);
    EXPECT_GT(h.fillsAtNow, 500u);
    EXPECT_GT(h.fillsAcrossRunUntil, 300u);
    EXPECT_GT(h.passedSeen[0], 1000u);
    EXPECT_GT(h.passedSeen[1], 1000u);
    EXPECT_GT(h.nothingNowSeen[0], 500u);
    EXPECT_GT(h.nothingNowSeen[1], 1000u);
}

TEST(CalendarQueue, ReservedSlotRunsWhereItWasReserved)
{
    EventQueue q;
    std::vector<int> order;
    // Reserve between two same-tick events, fill after the second was
    // scheduled: the fill sorts between them.
    q.schedule(100, [&order] { order.push_back(0); });
    const EventQueue::Slot slot = q.reserve(100);
    q.schedule(100, [&order] { order.push_back(2); });
    EXPECT_FALSE(q.passed(slot));
    q.schedule(slot, [&order] { order.push_back(1); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(q.passed(slot));
}

TEST(CalendarQueue, ReservedSlotAtNowFillsInsideDrainingBucket)
{
    EventQueue q;
    std::vector<int> order;
    EventQueue::Slot slot{};
    // At tick 50: event A reserves (50, s), then B is scheduled at 50.
    // B fires after A; when A's sibling C (scheduled before the
    // reserve) fills the slot, it must run before B.
    q.schedule(50, [&] {
        order.push_back(0);
        q.schedule(50, [&] {
            order.push_back(1);
            EXPECT_FALSE(q.passed(slot));
            EXPECT_FALSE(q.nothingPendingNow());
            q.schedule(slot, [&] {
                order.push_back(2);
                EXPECT_TRUE(q.passed(slot));
            });
        });
        slot = q.reserve(50);
        q.schedule(50, [&] {
            order.push_back(3);
            EXPECT_TRUE(q.nothingPendingNow());
        });
    });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueue, PassedFollowsRunUntilAndStep)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    const EventQueue::Slot before = q.reserve(10);
    const EventQueue::Slot at = q.reserve(20);
    const EventQueue::Slot later = q.reserve(30);
    ASSERT_TRUE(q.step()); // the event at 10 ran; `before` sorts after it
    EXPECT_FALSE(q.passed(before));
    q.runUntil(15); // everything at or before 15 has run
    EXPECT_TRUE(q.passed(before));
    EXPECT_FALSE(q.passed(at));
    q.runUntil(20);
    EXPECT_TRUE(q.passed(at));
    EXPECT_FALSE(q.passed(later));
    // A slot reserved at now() after the run is still ahead.
    const EventQueue::Slot fresh = q.reserve(20);
    EXPECT_FALSE(q.passed(fresh));
    int fired = 0;
    q.schedule(fresh, [&fired] { ++fired; });
    q.schedule(later, [&fired] { ++fired; });
    q.runToCompletion();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 30u);
    EXPECT_TRUE(q.passed(later));
}

TEST(SboEvent, NonTrivialCapturesDestructOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue q;
        int seen = 0;
        q.schedule(5, [token, &seen] { seen = *token; });
        token.reset();
        EXPECT_FALSE(watch.expired()); // queue keeps the capture alive
        q.runToCompletion();
        EXPECT_EQ(seen, 7);
    }
    EXPECT_TRUE(watch.expired());
}

TEST(SboEvent, UnexecutedNonTrivialCapturesReleaseOnReset)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventQueue q;
    q.schedule(5, [token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());
    q.reset(); // dropped without executing: capture must still die
    EXPECT_TRUE(watch.expired());
}

TEST(SboEvent, StdFunctionFitsViaManagerPath)
{
    // A std::function callable (the test-scaffolding case) rides the
    // manager path and survives queue-internal relocation.
    EventQueue q;
    int fired = 0;
    std::function<void()> fn = [&fired] { ++fired; };
    q.schedule(3 * wheelHorizon, fn); // overflow -> migrate -> wheel
    q.runToCompletion();
    EXPECT_EQ(fired, 1);
}

TEST(SboEvent, MoveTransfersOwnership)
{
    int fired = 0;
    Event a = [&fired] { ++fired; };
    Event b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(fired, 1);
    Event c;
    EXPECT_FALSE(static_cast<bool>(c));
    c = std::move(b);
    c();
    EXPECT_EQ(fired, 2);
}

namespace
{

/** A non-trivial capture that counts its moves and the destruction
 *  of the one instance still holding it (moved-from shells do not
 *  count). */
struct CountedCapture
{
    int *destroyed;
    int *moves;
    bool engaged = true;

    CountedCapture(int *destroyed, int *moves)
        : destroyed(destroyed), moves(moves)
    {
    }
    CountedCapture(CountedCapture &&other) noexcept
        : destroyed(other.destroyed), moves(other.moves),
          engaged(other.engaged)
    {
        other.engaged = false;
        ++*moves;
    }
    CountedCapture(const CountedCapture &) = delete;
    ~CountedCapture()
    {
        if (engaged)
            ++*destroyed;
    }
    void operator()() {}
};

} // namespace

TEST(Event, EmplaceDestroysNonTrivialCaptureOnce)
{
    int destroyedA = 0, destroyedB = 0, moves = 0;
    {
        Event ev;
        ev.emplace(CountedCapture{&destroyedA, &moves});
        ASSERT_TRUE(static_cast<bool>(ev));
        EXPECT_FALSE(ev.trivialCapture());
        EXPECT_EQ(moves, 1); // built once, from the argument
        // Emplacing over a held capture destroys that one first.
        ev.emplace(CountedCapture{&destroyedB, &moves});
        EXPECT_EQ(destroyedA, 1);
        EXPECT_EQ(destroyedB, 0);
        ev();
        ev.reset();
        EXPECT_FALSE(static_cast<bool>(ev));
        EXPECT_EQ(destroyedB, 1);
        ev.reset(); // empty: nothing left to destroy
    }
    EXPECT_EQ(destroyedA, 1);
    EXPECT_EQ(destroyedB, 1);

    // The queue builds a scheduled capture in its slab slot: one move
    // from the argument, none through an Event temporary, and exactly
    // one destruction once it has fired -- through a fresh seq and a
    // reserved slot alike.
    int destroyed = 0;
    moves = 0;
    EventQueue q;
    q.schedule(5, CountedCapture{&destroyed, &moves});
    q.schedule(q.reserve(6), CountedCapture{&destroyed, &moves});
    EXPECT_EQ(moves, 2);
    EXPECT_EQ(destroyed, 0);
    q.runToCompletion();
    EXPECT_EQ(destroyed, 2);
    EXPECT_EQ(moves, 2);
}

TEST(PacketPool, AcquireCopiesInitAndCountsLive)
{
    PacketPool pool(4);
    Packet init;
    init.id = 42;
    init.addr = 0x1234;
    init.payload = 64;
    init.link = 3;
    Packet *a = pool.acquire(init);
    EXPECT_EQ(a->id, 42u);
    EXPECT_EQ(a->addr, 0x1234u);
    EXPECT_EQ(a->payload, 64u);
    EXPECT_EQ(a->link, 3u);
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.highWater(), 1u);

    a->id = 7;
    a->tResponse = 99;
    pool.release(a);
    Packet *b = pool.acquire(init);
    EXPECT_EQ(b, a);            // the hot slot comes back...
    EXPECT_EQ(b->id, 42u);      // ...holding the copy,
    EXPECT_EQ(b->tResponse, 0u); // nothing of its last packet
    Packet *c = pool.acquire();
    EXPECT_EQ(c->id, 0u);
    EXPECT_EQ(pool.live(), 2u);
    EXPECT_EQ(pool.highWater(), 2u);
    pool.release(b);
    pool.release(c);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, ReusesReleasedSlots)
{
    PacketPool pool(4);
    Packet *a = pool.acquire();
    a->id = 42;
    pool.release(a);
    Packet *b = pool.acquire();
    EXPECT_EQ(a, b);       // LIFO free list hands the hot slot back
    EXPECT_EQ(b->id, 0u);  // ...reset to a fresh Packet
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.highWater(), 1u);
    pool.release(b);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.blocksAllocated(), 1u);
}

TEST(PacketPool, GrowsByBlocksUnderLoad)
{
    PacketPool pool(4);
    std::vector<Packet *> live;
    for (int i = 0; i < 9; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.blocksAllocated(), 3u);
    EXPECT_EQ(pool.capacity(), 12u);
    EXPECT_EQ(pool.highWater(), 9u);
    for (Packet *p : live)
        pool.release(p);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.capacity(), 12u); // blocks stay for reuse
}

TEST(AllocationGuard, SteadyStateEventLoopIsAllocationFree)
{
    EventQueue q;
    // 64 interleaved self-scheduling chains, mimicking the port/vault
    // pipelines: warm one full wheel revolution so every bucket slot
    // and the drain vector reach their steady capacity...
    std::uint64_t executed = 0;
    struct Chain
    {
        EventQueue *q;
        std::uint64_t *executed;
        Tick period;

        void
        operator()() const
        {
            ++*executed;
            q->scheduleIn(period, *this);
        }
    };
    for (int i = 0; i < 64; ++i)
        q.schedule(static_cast<Tick>(i),
                   Chain{&q, &executed, Tick{97} + Tick(i % 7)});
    q.runUntil(2 * wheelHorizon);
    const std::uint64_t warmed = executed;
    ASSERT_GT(warmed, 100000u);

    // ...then the measured region must not allocate at all: no heap
    // traffic per schedule or per fire (the acceptance criterion of
    // docs/performance.md).
    const std::size_t before = g_allocations;
    q.runUntil(4 * wheelHorizon);
    const std::size_t during = g_allocations - before;
    EXPECT_GE(executed, 2 * warmed - 64);
    EXPECT_EQ(during, 0u);
}

/** A chain link that reserves its next firing @p period out and
 *  has a same-tick ReservedFill put the event into the slot. */
struct ReservedChain
{
    EventQueue *q;
    std::uint64_t *executed;
    Tick period;

    void operator()() const;
};

struct ReservedFill
{
    EventQueue *q;
    EventQueue::Slot slot;
    ReservedChain chain;

    void operator()() const { q->schedule(slot, ReservedChain{chain}); }
};

void
ReservedChain::operator()() const
{
    ++*executed;
    q->scheduleIn(0, ReservedFill{q, q->reserve(q->now() + period), *this});
}

TEST(AllocationGuard, ReservedSlotsAreAllocationFree)
{
    EventQueue q;
    // 64 chains whose every firing goes through reserve(), a
    // same-tick sorted insert into the draining bucket, and
    // schedule(Slot) into the wheel.
    std::uint64_t executed = 0;
    for (int i = 0; i < 64; ++i)
        q.schedule(static_cast<Tick>(i),
                   ReservedChain{&q, &executed,
                                 3 * EventQueue::bucketTicks + Tick(i)});
    q.runUntil(2 * wheelHorizon);
    const std::uint64_t warmed = executed;
    ASSERT_GT(warmed, 100000u);

    const std::size_t before = g_allocations;
    q.runUntil(4 * wheelHorizon);
    EXPECT_GE(executed, 2 * warmed - 64);
    EXPECT_EQ(g_allocations - before, 0u);
}

TEST(AllocationGuard, PoolAcquireReleaseCycleIsAllocationFree)
{
    PacketPool pool(256);
    // Warm: force the first block(s) into existence at a realistic
    // in-flight depth.
    std::vector<Packet *> live;
    live.reserve(128);
    for (int i = 0; i < 128; ++i)
        live.push_back(pool.acquire());
    for (Packet *p : live)
        pool.release(p);

    const std::size_t before = g_allocations;
    for (int round = 0; round < 1000; ++round) {
        live.clear();
        for (int i = 0; i < 128; ++i)
            live.push_back(pool.acquire());
        for (Packet *p : live)
            pool.release(p);
    }
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(pool.blocksAllocated(), 1u);
}

TEST(AllocationGuard, ConfigDigestsAreAllocationFree)
{
    // Digests run on every sweep point and every serve memory hit.
    const ExperimentConfig cfg;
    const StreamExperimentConfig stream;
    const std::size_t before = g_allocations;
    const std::uint64_t sink = configDigest(cfg) ^
                               configDigest(cfg, false) ^
                               warmupDigest(cfg) ^ configDigest(stream);
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_NE(sink, 0u);
}

} // namespace
} // namespace hmcsim
