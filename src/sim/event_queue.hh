// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue executes (tick, sequence, callback) entries in
 * non-decreasing tick order. Events scheduled at the same tick execute
 * in scheduling order (FIFO), which keeps component pipelines
 * deterministic.
 *
 * Internally the queue is a slab-backed two-level calendar rather than
 * a binary heap (docs/performance.md):
 *
 *  - a slab of event nodes holds every pending Event at a stable
 *    address: Events live in fixed 1024-slot chunks that never move,
 *    and each node's (when, seq, next) metadata sits in one dense
 *    array. An event fires in place and its node returns to an
 *    intrusive free list, so neither scheduling nor firing relocates
 *    a callable.
 *  - a timing wheel of `numBuckets` buckets, each spanning
 *    `bucketTicks` picoseconds, holds the next ~67 us -- long enough
 *    for a vault-queued response round trip and for refresh
 *    deadlines. A bucket is an intrusive singly linked list of nodes,
 *    so schedule() is a push-front; a two-level occupancy bitmap lets
 *    the cursor skip idle time. The bucket being drained is copied
 *    into a small (when, seq, node) key buffer and sorted once, with a
 *    sorted insert for same-bucket arrivals.
 *  - a sorted-run ladder of keys holds what lies beyond the wheel
 *    (thermal sampling, end-of-window drains): schedule() appends to
 *    an unsorted staging buffer, which is sorted wholesale into a run
 *    the first time the wheel's window touches it. Keys migrate into
 *    the wheel as the cursor advances, as sequential pops from the
 *    run backs; the Events themselves stay in the slab.
 *
 * Execution order is exactly (when, seq) -- identical to the old
 * heap, so stat digests and the --selfcheck probe are unchanged.
 * Events are hmcsim::Event (sim/event.hh): fixed-size, inline-capture
 * callables, and the slab only grows while the pending high-water
 * mark does, so the steady-state schedule/fire path performs no heap
 * allocation at all.
 */

#ifndef HMCSIM_SIM_EVENT_QUEUE_HH
#define HMCSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hh"
#include "sim/event.hh"
#include "sim/types.hh"

namespace hmcsim
{

class CheckerRegistry;

/** Callback type executed when an event fires. */
using EventFn = Event;

/**
 * A discrete-event queue with a monotonically advancing current time.
 *
 * Not thread safe; one queue per simulated system.
 */
class EventQueue
{
  public:
    /** Wheel bucket span in ticks (power of two; 4096 ps ~= 4 ns).
     *  A bucket is sorted when it drains, so the span only trades
     *  sort length against the number of buckets. */
    static constexpr Tick bucketTicks = 4096;
    /** Number of wheel buckets (power of two). The wheel spans
     *  bucketTicks * numBuckets ~= 67 us beyond the cursor, which
     *  covers the high-load round trip (vault queueing makes it
     *  us-scale) and refresh (7.8 us); thermal sampling and
     *  end-of-window drains live in the overflow ladder. */
    static constexpr std::size_t numBuckets = 16384;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events currently pending. */
    std::size_t pending() const { return numPending; }

    /** Total number of events ever executed. */
    std::uint64_t executed() const { return numExecuted; }

    /** Events currently waiting in the far-future overflow ladder
     *  (observability hook for tests and the perf bench). */
    std::size_t overflowPending() const { return overflowCount; }

    /**
     * Schedule a callback at an absolute tick.
     * @param when Absolute time; must be >= now().
     * @param fn Callback to run: any callable fitting the Event
     *        inline-capture budget (sim/event.hh), constructed in
     *        place in its slab node, or an Event already built.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        checkNotPast(when);
        store(place(when, nextSeq++), std::forward<F>(fn));
    }

    /** Schedule a callback @p delta ticks in the future. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&fn)
    {
        schedule(_now + delta, std::forward<F>(fn));
    }

    /** A place in the (when, seq) execution order. */
    struct Slot
    {
        Tick when;
        std::uint64_t seq;
    };

    /**
     * Take the place schedule(@p when, ...) would take now -- the
     * same seq -- without storing anything. A later schedule(Slot,
     * ...) puts an event exactly there, so it runs where an event
     * scheduled now would have run. A slot never filled costs
     * nothing.
     */
    Slot
    reserve(Tick when)
    {
        checkNotPast(when);
        return {when, nextSeq++};
    }

    /** Schedule a callback into a reserved slot (or a snapshot
     *  source's (when, seq)); the slot must not have passed. */
    template <typename F>
    void
    schedule(Slot slot, F &&fn)
    {
        checkNotPast(slot.when);
        HMCSIM_DCHECK(!passed(slot) && slot.seq < nextSeq,
                      "scheduling into a passed or unissued slot "
                      "(when=%llu seq=%llu)",
                      static_cast<unsigned long long>(slot.when),
                      static_cast<unsigned long long>(slot.seq));
        store(place(slot.when, slot.seq), std::forward<F>(fn));
    }

    /** True once execution has moved past @p slot: an event there
     *  would already have run. */
    bool
    passed(Slot slot) const
    {
        return slot.when < _now ||
               (slot.when == _now && slot.seq < doneSeq);
    }

    /**
     * True when no event is pending at now(), so an event scheduled
     * at now() with a fresh seq would run next. O(1): pending events
     * at now() sit at the drain point of the cursor's bucket, where
     * the cursor always is while an event runs. Outside an event the
     * cursor may be elsewhere; the answer is then a conservative
     * false.
     */
    bool
    nothingPendingNow() const
    {
        return cursorBucket == bucketOf(_now) &&
               (drainIdx == current.size() ||
                current[drainIdx].when != _now);
    }

    /**
     * Execute the single next event (advancing time to it).
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or time would exceed @p limit.
     * Events exactly at @p limit are executed.
     * @return Tick at which execution stopped.
     */
    Tick runUntil(Tick limit);

    /** Run until no events remain. */
    void runToCompletion();

    /** Drop all pending events and reset time to zero. */
    void reset();

    /**
     * Attach an invariant-checker registry to this queue's drain
     * points. After every @p every_n executed events (and at the end
     * of runUntil / runToCompletion) the registry's checkers run at
     * the current tick, so a violated model invariant aborts at the
     * offending event rather than corrupting downstream statistics.
     * Pass nullptr to detach.
     */
    void setCheckers(CheckerRegistry *registry, std::uint64_t every_n = 1);

    /** The attached checker registry, or nullptr. */
    CheckerRegistry *checkers() const { return checkerRegistry; }

    // --- Snapshot/fork support (sim/snapshot.hh) -------------------
    //
    // A forked simulator adopts the source's clock, seq counter and
    // execution position (restoreBegin), then schedules a clone of
    // each of the source's pending events into the source's own
    // (when, seq) slot. The fork's order is then the source's
    // exactly, and so is passed() -- a slot a component reserved in
    // the source stays valid in the fork.

    /** Read-only view of one pending entry. */
    struct PendingView
    {
        Tick when;
        std::uint64_t seq;
        const Event *ev;
    };

    /** All pending entries, sorted ascending by seq. Views are valid
     *  until the next mutating call. */
    std::vector<PendingView> pendingSnapshot() const;

    /** The seq the next scheduled event will receive. */
    std::uint64_t seqCounter() const { return nextSeq; }

    /** Slots at now() with a seq below this have passed. */
    std::uint64_t doneSeqBound() const { return doneSeq; }

    /** Events executed since the checkers last ran. */
    std::uint64_t eventsSinceCheckCount() const { return eventsSinceCheck; }

    /**
     * Prepare an empty queue for restoring a snapshot taken at
     * @p now: adopts the source's clock, seq counter (@p next_seq)
     * and execution position (@p done_seq, its doneSeqBound()), and
     * places the calendar cursor on the matching bucket so
     * re-scheduled entries land exactly where the source's calendar
     * held them. Fatal if the queue is not fresh.
     */
    void restoreBegin(Tick now, std::uint64_t next_seq,
                      std::uint64_t done_seq);

    /** Adopt the source queue's event counters after re-scheduling
     *  its pending entries (see restoreBegin). */
    void restoreFinish(std::uint64_t num_executed,
                       std::uint64_t events_since_check);

  private:
    /** Index of a node in the event slab. */
    using NodeId = std::uint32_t;
    static constexpr NodeId noNode = ~NodeId{0};

    /** Ordering metadata of one slab node. `next` links the node
     *  into its wheel bucket's list while pending, and into the free
     *  list while unused. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        NodeId next;
    };

    /** Sort key of a pending node: what the drain buffer and the
     *  overflow ladder hold, so ordering never touches an Event. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        NodeId node;
    };

    /** Events per slab chunk. */
    static constexpr std::size_t chunkEvents = 1024;

    /** Run attached checkers at a drain point. */
    void runCheckers();

    void
    checkNotPast(Tick when) const
    {
        // Stays a release-build check: a past-tick schedule means the
        // calendar is already corrupt, and the cost was audited into
        // the PR-4 event-core budget (docs/performance.md).
        // lint:allow(hot-check)
        HMCSIM_CHECK(when >= _now,
                     "scheduling event in the past (when=%llu now=%llu)",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(_now));
    }

    /** Take a node for (@p when, @p seq) and link it into the
     *  calendar, the one insertion routine behind both schedule()
     *  overloads. The caller stores the callback in the returned node
     *  before anything can run. */
    NodeId place(Tick when, std::uint64_t seq);

    /** Store @p fn in node @p id: an Event moves in, any other
     *  callable is built in place. */
    template <typename F>
    void
    store(NodeId id, F &&fn)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, Event>)
            eventOf(id) = std::forward<F>(fn);
        else
            eventOf(id).emplace(std::forward<F>(fn));
    }

    /** Pop the next key (already located by peekNext) and execute it
     *  at its tick (shared by step/runUntil). */
    void executeNext();

    /**
     * Locate the next event in (when, seq) order, advancing the
     * cursor past empty buckets and migrating overflow keys whose
     * tick slid under the wheel window. Returns nullptr when empty.
     * Does not advance now() or pop the event.
     */
    const Key *peekNext();

    /** Move in-window overflow keys into their wheel buckets. */
    void migrateOverflow();

    /** Sort the staging buffer into a run and fold it into the run
     *  ladder, merging runs to keep their sizes geometric. */
    void foldStagingIntoRuns();

    /** A free node, growing the slab by one chunk when none is left. */
    NodeId acquireNode();

    /** Add a chunk of nodes to the slab and the free list. */
    void growSlab();

    /** The Event stored in node @p id. */
    Event &
    eventOf(NodeId id)
    {
        return chunks[id / chunkEvents][id % chunkEvents];
    }

    const Event &
    eventOf(NodeId id) const
    {
        return chunks[id / chunkEvents][id % chunkEvents];
    }

    /** Push node @p id onto the list of the wheel slot holding
     *  absolute bucket @p abs. */
    void
    linkIntoWheel(NodeId id, std::uint64_t abs)
    {
        const std::uint64_t slot = abs & bucketMask;
        nodes[id].next = heads[slot];
        heads[slot] = id;
        markOccupied(slot);
    }

    /** Bucket of the earliest overflow entry (staging or runs);
     *  noBucket when the overflow is empty. */
    std::uint64_t
    overflowMin() const
    {
        return stagingMinBucket < runsMinBucket ? stagingMinBucket
                                                : runsMinBucket;
    }

    /** Absolute bucket index of @p when. */
    static std::uint64_t bucketOf(Tick when) { return when / bucketTicks; }

    /** Sentinel for "no overflow entries pending". */
    static constexpr std::uint64_t noBucket = ~std::uint64_t{0};

    static constexpr std::size_t occupiedWords = numBuckets / 64;

    void
    markOccupied(std::uint64_t slot)
    {
        const std::uint64_t word = slot >> 6;
        occupied[word] |= std::uint64_t{1} << (slot & 63);
        occupiedSummary[word >> 6] |= std::uint64_t{1} << (word & 63);
    }

    void
    clearOccupied(std::uint64_t slot)
    {
        const std::uint64_t word = slot >> 6;
        occupied[word] &= ~(std::uint64_t{1} << (slot & 63));
        if (occupied[word] == 0)
            occupiedSummary[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
    }

    /** First occupied wheel slot at or after @p from (no wrap), or
     *  numBuckets when there is none. */
    std::uint64_t firstOccupiedFrom(std::uint64_t from) const;

    /**
     * Absolute bucket index of the nearest occupied wheel slot after
     * the cursor (up to one full lap, so a slot holding only
     * later-lap entries resolves to cursorBucket + numBuckets), or
     * noBucket when the wheel is empty. The summary bitmap has one
     * bit per occupancy word, so sparse simulated time costs O(1)
     * per 4096 empty buckets instead of one loop iteration each.
     */
    std::uint64_t nextOccupiedBucket() const;

    static constexpr std::uint64_t bucketMask = numBuckets - 1;
    static_assert((numBuckets & bucketMask) == 0,
                  "numBuckets must be a power of two");
    static_assert(numBuckets % (64 * 64) == 0,
                  "the two-level occupancy bitmap needs whole words");
    static_assert((bucketTicks & (bucketTicks - 1)) == 0,
                  "bucketTicks must be a power of two");

    /** Slab metadata, one Node per slot of `chunks`. */
    std::vector<Node> nodes;
    /** Slab storage: Events never move once their chunk exists, so an
     *  event can run in place while its callback schedules more. */
    std::vector<std::unique_ptr<Event[]>> chunks;
    /** Head of the intrusive free list of nodes. */
    NodeId freeHead = noNode;

    /** The wheel: slot b heads the list of nodes whose absolute
     *  bucket index is congruent to b modulo numBuckets; lap
     *  membership is checked when a bucket drains. */
    std::vector<NodeId> heads;
    /** Keys of the bucket currently draining (absolute index
     *  cursorBucket), sorted by (when, seq); [drainIdx, end) remain. */
    std::vector<Key> current;
    std::size_t drainIdx = 0;
    /** Absolute index of the bucket the cursor is on. */
    std::uint64_t cursorBucket = 0;
    /** One bit per wheel slot: set while the slot's list is non-empty. */
    std::array<std::uint64_t, occupiedWords> occupied{};
    /** One bit per word of `occupied`: set while that word is non-zero. */
    std::array<std::uint64_t, occupiedWords / 64> occupiedSummary{};
    /** Far-future keys not yet sorted: schedule() appends here in
     *  O(1) and the batch is sorted wholesale the first time the
     *  wheel's window touches it. A binary heap here costs one
     *  random-access sift-down per entry on migration, which is what
     *  made far-future preloads slow (docs/performance.md). */
    std::vector<Key> staging;
    /** Ladder of sorted runs, each descending by (when, seq) so the
     *  earliest key is a pop from the back. Run sizes are kept
     *  geometric by merging, bounding the ladder at O(log n) runs. */
    std::vector<std::vector<Key>> runs;
    /** Reused merge buffer for run compaction. */
    std::vector<Key> mergeScratch;
    /** Total keys across staging and runs. */
    std::size_t overflowCount = 0;
    /** Bucket of the earliest staging / run key (noBucket when
     *  empty); lets the cursor advance without touching the data. */
    std::uint64_t stagingMinBucket = noBucket;
    std::uint64_t runsMinBucket = noBucket;
    std::size_t numPending = 0;

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    /** Execution position within now(): every (now(), seq) with seq
     *  below this has run. executeNext() sets it to the running
     *  event's seq + 1; a runUntil() that reaches its limit sets it
     *  to nextSeq, since nothing at or before now() is left. */
    std::uint64_t doneSeq = 0;
    std::uint64_t numExecuted = 0;
    CheckerRegistry *checkerRegistry = nullptr;
    std::uint64_t checkEveryN = 1;
    std::uint64_t eventsSinceCheck = 0;
};

} // namespace hmcsim

#endif // HMCSIM_SIM_EVENT_QUEUE_HH
